import json
import random

import pytest

from helpers import empirical_probability

from plkb.data import SeedSpec, balance, from_rows, generate_synthetic, split
from plkb.evaluate import (
    ExperimentConfig,
    bench_lp,
    classify_query,
    f1_score,
    random_bench_kb,
    random_knowledge_clauses,
    run_eval,
    run_explanation_eval,
    run_knowledge_experiment,
    train_kb,
    true_knowledge_clauses,
)
from plkb.direct import active_kb
from plkb.explain import compute_explanation
from plkb.kb import KnowledgeBase, WeightedClause, merge, parse_kb, serialize_kb
from plkb.lp import infer_pos

SEED = SeedSpec("3232411132", 10, 4, 5)


def separable_dataset():
    rng = random.Random(4)
    rows = []
    for _ in range(60):
        a = rng.choice("01")
        b = rng.choice("012")
        rows.append(((a, b), a == "0"))
    return from_rows(["a1", "a2"], rows)


class TestF1:
    def test_all_correct(self):
        rep = f1_score([True, False, True], [True, False, True])
        assert rep.f1 == 1.0
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 0, 0, 1)

    def test_all_negative_predictions(self):
        rep = f1_score([False] * 4, [True, True, False, False])
        assert rep.f1 == 0.0
        assert rep.recall == 0.0

    def test_hand_computed(self):
        # TP=2, FP=1, FN=1 -> P = R = 2/3 -> F1 = 2/3
        preds = [True, True, True, False, False]
        labels = [True, True, False, True, False]
        rep = f1_score(preds, labels)
        assert rep.f1 == pytest.approx(2 / 3, abs=1e-9)
        assert rep.n_test == 5
        assert rep.tp + rep.fp + rep.fn + rep.tn == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="predictions"):
            f1_score([True], [True, False])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            f1_score([], [])

    def test_confusion_layout(self):
        rep = f1_score([True, False], [False, True])
        assert rep.confusion == ((0, 1), (1, 0))


class TestRunEval:
    @pytest.mark.parametrize("method", ["tree", "tree-all", "direct"])
    def test_separable_dataset_is_learned_perfectly(self, method):
        config = ExperimentConfig(dataset=separable_dataset(), method=method, rng_seed=1)
        assert run_eval(config).f1 == 1.0

    def test_deterministic(self):
        ds = generate_synthetic(SEED, 200, 7)
        config = ExperimentConfig(dataset=ds, method="tree", rng_seed=3)
        a, b = run_eval(config), run_eval(config)
        assert a == b
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    def test_seed_changes_the_split(self):
        ds = generate_synthetic(SEED, 200, 7)
        a = run_eval(ExperimentConfig(dataset=ds, method="tree", rng_seed=0))
        b = run_eval(ExperimentConfig(dataset=ds, method="tree", rng_seed=1))
        assert a != b  # almost surely

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(dataset=separable_dataset(), method="forest")
        with pytest.raises(ValueError, match="method must be one of"):
            train_kb(separable_dataset(), "forest")

    def test_knowledge_merge_changes_predictions(self):
        ds = separable_dataset()
        knowledge = parse_kb("1.0 pos | !a1=1\n0.0 pos | !a1=0")
        config = ExperimentConfig(
            dataset=ds, method="tree", rng_seed=1, knowledge=knowledge
        )
        # the injected rules invert the ground truth and win on every query
        assert run_eval(config).f1 == 0.0


class TestClassifyQuery:
    def test_matches_direct_training_probabilities(self, strings_direct_kb, strings_ds):
        res = classify_query(strings_direct_kb, {"a4": "1"})
        assert res.p_avg == pytest.approx(
            float(empirical_probability(strings_ds, [("a4", "1")])), abs=1e-6
        )

    def test_direct_pipeline_builds_no_clause_list(self):
        # Training, classification and explanation read the direct KB's
        # counts; none of them may materialise its clause objects.
        ds = generate_synthetic(SEED, 120, 5)
        kb = train_kb(ds, "direct")
        positives = [
            inst.values for inst in ds.instances if classify_query(kb, inst.values).label
        ]
        assert positives
        for query in positives:
            compute_explanation(query, kb, 2)
        assert "clauses" not in kb.__dict__

    def test_saved_direct_model_builds_no_clause_list(self):
        # A direct model read back from its text keeps rows only: the CLI's
        # classify and explain answer from it without clause objects.
        ds = generate_synthetic(SEED, 120, 5)
        trained = train_kb(ds, "direct")
        kb = parse_kb(serialize_kb(trained))
        assert not kb.others
        positives = []
        for inst in ds.instances:
            label = infer_pos(active_kb(inst.values, kb), inst.values).label
            assert label == classify_query(trained, inst.values).label
            if label:
                positives.append(inst.values)
        assert positives
        for query in positives:
            assert len(compute_explanation(query, kb, 2).sub_query) == 2
        assert "clauses" not in kb.__dict__


class TestExplanationEval:
    def test_perfect_accuracy_when_everything_matches_the_seed(self):
        spec = SeedSpec("11", 2, 2, 2)
        rows = [(("1", "1"), True), (("1", "2"), False), (("2", "1"), False),
                (("2", "2"), False)] * 6
        ds = from_rows(["a1", "a2"], rows)
        config = ExperimentConfig(dataset=ds, method="direct", rng_seed=2)
        rep = run_explanation_eval(config, spec, 1)
        assert rep.n_explained > 0
        assert rep.mean_accuracy == 1.0

    def test_max_instances_caps_the_loop(self):
        ds = generate_synthetic(SEED, 300, 9)
        config = ExperimentConfig(dataset=ds, method="direct", rng_seed=2)
        rep = run_explanation_eval(config, SEED, 1, max_instances=5)
        assert rep.n_explained <= 5


class TestKnowledgeClauses:
    def test_true_clauses_carry_empirical_probabilities(self):
        ds = generate_synthetic(SEED, 200, 5)
        clauses = true_knowledge_clauses(ds, SEED, 20, 11)
        assert len(clauses) == 20
        for wc in clauses:
            body = sorted(wc.clause.body)
            for f, v in body:
                position = int(f[1:])
                assert SEED.seed[position - 1] == v
            assert wc.probability == empirical_probability(ds, body)

    def test_random_clauses_shape(self):
        ds = generate_synthetic(SEED, 50, 5)
        clauses = random_knowledge_clauses(ds, 30, 3)
        assert len(clauses) == 30
        for wc in clauses:
            assert 1 <= len(wc.clause.body) <= 10
            assert 0 <= wc.probability <= 1

    def test_deterministic(self):
        ds = generate_synthetic(SEED, 100, 5)
        a = true_knowledge_clauses(ds, SEED, 10, 1)
        b = true_knowledge_clauses(ds, SEED, 10, 1)
        assert a == b


class TestKnowledgeExperiment:
    def test_no_injection_equals_baseline(self):
        ds = generate_synthetic(SEED, 200, 5)
        config = ExperimentConfig(dataset=ds, method="tree", rng_seed=4)
        baseline = run_eval(config)
        repeated = run_knowledge_experiment(config, SEED, 0, 0, rng_seed=99)
        assert baseline == repeated

    def test_injection_changes_something(self):
        ds = generate_synthetic(SEED, 200, 5)
        config = ExperimentConfig(dataset=ds, method="tree", rng_seed=4)
        with_true = run_knowledge_experiment(config, SEED, 50, 0, rng_seed=1)
        assert isinstance(with_true.f1, float)

    def test_injected_clauses_win_over_config_knowledge(self):
        # config.knowledge holds the injected bodies at other probabilities:
        # the run scores as merge(merge(kb, knowledge), injected), which here
        # differs from the opposite order.
        ds = generate_synthetic(SEED, 200, 5)
        injected = true_knowledge_clauses(ds, SEED, 20, 1)
        knowledge = [WeightedClause(1 - wc.probability, wc.clause) for wc in injected]
        config = ExperimentConfig(dataset=ds, method="tree", rng_seed=4, knowledge=knowledge)
        train, test = split(balance(ds, 4), 0.7, 4)
        kb = train_kb(train, "tree")

        def score(merged):
            labels = [classify_query(merged, inst.values).label for inst in test.instances]
            return f1_score(labels, [inst.label for inst in test.instances])

        got = run_knowledge_experiment(config, SEED, 20, 0, rng_seed=1)
        assert got == score(merge(merge(kb, knowledge), injected))
        assert got != score(merge(merge(kb, injected), knowledge))

    def test_knowledge_as_a_kb_or_as_its_clauses(self):
        ds = generate_synthetic(SEED, 200, 5)
        kb = KnowledgeBase(true_knowledge_clauses(ds, SEED, 20, 1))
        configs = [ExperimentConfig(dataset=ds, method="tree", rng_seed=4, knowledge=knowledge)
                   for knowledge in (kb, kb.clauses)]
        assert run_eval(configs[0]) == run_eval(configs[1])
        assert (run_knowledge_experiment(configs[0], SEED, 0, 5, rng_seed=2)
                == run_knowledge_experiment(configs[1], SEED, 0, 5, rng_seed=2))


class TestBench:
    def test_small_bench_completes(self):
        res = bench_lp(10, 10, 0)
        assert res.seconds > 0
        assert res.objective >= 0
        assert (res.n_vars, res.n_clauses) == (10, 10)

    def test_doubling_clauses_is_stable(self):
        for m in (5, 10, 20):
            res = bench_lp(10, m, 1)
            assert res.objective == res.objective  # finite, not NaN

    def test_random_kb_shape(self):
        kb = random_bench_kb(20, 15, 3)
        assert len(kb) == 15
        for wc in kb:
            assert 1 <= len(wc.clause.literals) <= 10
            assert 0 <= wc.probability <= 1

    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            random_bench_kb(0, 5, 0)

    def test_clause_count_capped_by_distinct_clauses(self):
        # n atoms give sum_{s=1..min(10,n)} C(n,s) 2^s distinct clauses.
        for n_vars, n_clauses in ((1, 3), (2, 9)):
            with pytest.raises(ValueError, match="distinct clauses"):
                random_bench_kb(n_vars, n_clauses, 0)
        for n_vars, n_clauses in ((1, 2), (2, 8)):
            assert len(random_bench_kb(n_vars, n_clauses, 0)) == n_clauses
