"""End-to-end acceptance checks.

Each test is one verifiable claim about the system, run at its stated
tolerance; the conftest hook prints one PASS/FAIL line per check.  The
slower checks reproduce the headline numbers of the evaluation protocol
at desk scale with frozen seeds.
"""

import random
import time
from fractions import Fraction

import pytest
from scipy.stats import spearmanr

from helpers import (
    monk1_dataset,
    monk2_dataset,
    monk3_dataset,
    query_from_string,
    random_dataset,
    satisfiable_random_kb,
    unpresolved_infer,
)

from plkb.data import balance, generate_synthetic, random_seed_spec, split
from plkb.direct import build_direct_kb, relevant_kb
from plkb.evaluate import (
    ExperimentConfig,
    bench_lp,
    classify_query,
    run_eval,
    run_explanation_eval,
    run_knowledge_experiment,
    train_kb,
)
from plkb.explain import compute_explanation
from plkb.kb import (
    POS,
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    WeightedClause,
    parse_kb,
    rule_clause,
)
from plkb.lp import check_consistency, infer_pos, nilsson_oracle
from plkb.tree import build_id3, kb_from_tree

TREE_KB_EXPECTED = {
    rule_clause([("a1", "0"), ("a2", "0"), ("a3", "1"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "0"), ("a2", "0"), ("a3", "0"), ("a4", "0")]): Fraction(1),
    rule_clause([("a1", "0"), ("a2", "1"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "1"), ("a2", "0"), ("a3", "1"), ("a4", "0")]): Fraction(1),
    rule_clause([("a1", "1"), ("a2", "0"), ("a3", "0"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "1"), ("a2", "1"), ("a3", "1"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "1"), ("a2", "1"), ("a3", "0"), ("a4", "0")]): Fraction(1),
    rule_clause([("a4", "1")]): Fraction(1),
}

RELEVANT_0101_EXPECTED = {
    rule_clause([("a1", "0")]): Fraction(1, 3),
    rule_clause([("a2", "1")]): Fraction(1, 2),
    rule_clause([("a3", "0")]): Fraction(1, 2),
    rule_clause([("a4", "1")]): Fraction(1),
    rule_clause([("a1", "0"), ("a2", "1")]): Fraction(0),
    rule_clause([("a1", "0"), ("a3", "0")]): Fraction(1, 2),
    rule_clause([("a2", "1"), ("a3", "0")]): Fraction(1, 2),
    rule_clause([("a2", "1"), ("a4", "1")]): Fraction(1),
    rule_clause([("a1", "0"), ("a2", "1"), ("a3", "0")]): Fraction(0),
}


@pytest.fixture(scope="module")
def synthetic():
    spec = random_seed_spec(10, 4, 5, 20260808)
    return spec, generate_synthetic(spec, 2000, 1)


def test_c01_tree_kb_reproduces_the_worked_example_exactly(strings_ds):
    start = time.perf_counter()
    kb = kb_from_tree(build_id3(strings_ds), mode="leaves")
    got = {wc.clause: wc.probability for wc in kb}
    assert got == TREE_KB_EXPECTED
    assert all(isinstance(p, Fraction) for p in got.values())
    assert time.perf_counter() - start < 1.0


def test_c02_relevant_kb_for_0101_matches_the_worked_example(strings_ds):
    kb = build_direct_kb(strings_ds)
    rel = relevant_kb(query_from_string("0101"), kb)
    got = {wc.clause: wc.probability for wc in rel}
    assert got == RELEVANT_0101_EXPECTED


def test_c03_query_0101_classifies_negative(strings_direct_kb):
    q = query_from_string("0101")
    res = infer_pos(relevant_kb(q, strings_direct_kb), q)
    assert res.p_avg <= 0.5
    assert res.label is False
    full = unpresolved_infer(strings_direct_kb, q)
    assert full.p_avg <= 0.5 + 1e-6
    assert full.label is False


def test_c04_single_feature_explanation_for_0101(strings_direct_kb):
    q = query_from_string("0101")
    expected_scores = {"a1": 1 / 3, "a2": 0.5, "a3": 0.5, "a4": 1.0}
    for feature, value in q.items():
        sub = {feature: value}
        res = infer_pos(relevant_kb(sub, strings_direct_kb), sub)
        assert res.p_avg == pytest.approx(expected_scores[feature], abs=1e-3)
    expl = compute_explanation(q, strings_direct_kb, 1)
    assert expl.sub_query == {"a1": "0"}


def test_c05_probabilistic_modus_ponens_bounds(implication_kb):
    res = infer_pos(implication_kb, target=Atom("b"))
    assert res.objective_min <= 1e-6
    assert res.p_upper == pytest.approx(0.6, abs=1e-6)
    assert res.p_lower == pytest.approx(0.4, abs=1e-6)
    feasible, lo, hi = nilsson_oracle(implication_kb, Atom("b"))
    assert feasible
    assert lo == pytest.approx(0.4, abs=1e-7)
    assert hi == pytest.approx(0.6, abs=1e-7)


def test_c06_consistency_suite(strings_tree_kb):
    start = time.perf_counter()
    # (a) probabilities drawn from explicit world distributions relax to zero
    rng = random.Random(606)
    for _ in range(50):
        kb, _ = satisfiable_random_kb(rng, rng.randint(1, 6), rng.randint(1, 8))
        _, objective = check_consistency(kb)
        assert objective <= 1e-6
    # (b) asserting the 0000 pattern as unit clauses contradicts the tree KB
    units = [
        WeightedClause(1.0, Clause([Literal(Atom(f"a{i}", "0"))]))
        for i in range(1, 5)
    ]
    merged = KnowledgeBase(list(strings_tree_kb.clauses) + units)
    hint, objective = check_consistency(merged)
    assert objective > 1e-4
    assert hint is False
    feasible, _, _ = nilsson_oracle(merged, POS)
    assert not feasible
    # (c) pairwise 1.0 disjunctions admit a relaxed zero-deviation point
    pairwise = parse_kb("1.0 a | b\n1.0 a | c\n1.0 b | c\n1.0 a | b | c")
    _, objective = check_consistency(pairwise)
    assert objective == pytest.approx(0.0, abs=1e-6)
    assert time.perf_counter() - start < 30.0


def test_c07_relaxed_bounds_contain_exact_bounds():
    rng = random.Random(707)
    for _ in range(50):
        kb, _ = satisfiable_random_kb(rng, rng.randint(2, 8), rng.randint(1, 6))
        target = rng.choice(sorted(kb.universe, key=str))
        feasible, exact_lo, exact_hi = nilsson_oracle(kb, target)
        assert feasible
        res = infer_pos(kb, target=target)
        assert res.p_lower <= exact_lo + 1e-6
        assert res.p_upper >= exact_hi - 1e-6


def test_c08_every_tree_clause_is_a_direct_clause():
    rng = random.Random(808)
    for _ in range(50):
        ds = random_dataset(rng, max_features=6, max_values=3, max_rows=40)
        tree_kb = kb_from_tree(build_id3(ds), mode="leaves")
        direct = {wc.clause: wc.probability for wc in build_direct_kb(ds)}
        for wc in tree_kb:
            if not wc.clause.body:
                continue  # a splitless root yields the bare class clause
            assert direct[wc.clause] == wc.probability


def test_c09_relevant_extraction_classifies_like_the_full_kb(strings_direct_kb):
    for bits in range(16):
        q = query_from_string(format(bits, "04b"))
        via_relevant = infer_pos(relevant_kb(q, strings_direct_kb), q)
        via_full = unpresolved_infer(strings_direct_kb, q)
        assert via_relevant.label == via_full.label
        assert via_relevant.p_avg == pytest.approx(via_full.p_avg, abs=1e-6)


def test_c10_synthetic_f1_at_desk_scale(synthetic):
    spec, ds = synthetic
    start = time.perf_counter()
    direct_scores = []
    tree_scores = []
    for seed in range(5):
        direct_scores.append(
            run_eval(ExperimentConfig(dataset=ds, method="direct", rng_seed=seed)).f1
        )
        tree_scores.append(
            run_eval(ExperimentConfig(dataset=ds, method="tree", rng_seed=seed)).f1
        )
    mean_direct = sum(direct_scores) / 5
    mean_tree = sum(tree_scores) / 5
    assert mean_direct >= 0.85
    assert mean_direct > mean_tree
    assert time.perf_counter() - start < 600.0


def test_c11_explanation_accuracy_at_desk_scale(synthetic):
    spec, ds = synthetic
    config = ExperimentConfig(dataset=ds, method="direct", rng_seed=0)
    rep1 = run_explanation_eval(config, spec, 1, max_instances=250)
    assert rep1.n_explained >= 200
    assert rep1.mean_accuracy >= 0.95
    rep3 = run_explanation_eval(config, spec, 3, max_instances=250)
    assert rep3.n_explained >= 200
    assert rep3.mean_accuracy >= 0.90


def test_c12_solver_scaling():
    small = bench_lp(1000, 1000, 0)
    assert small.seconds < 10.0
    large = bench_lp(10_000, 10_000, 0)
    assert large.seconds < 300.0


def test_c13_knowledge_injection_directions(synthetic):
    spec, ds = synthetic

    def mean_f1(n_true: int, n_random: int) -> float:
        scores = []
        for seed in range(5):
            config = ExperimentConfig(dataset=ds, method="tree", rng_seed=seed)
            scores.append(
                run_knowledge_experiment(config, spec, n_true, n_random, seed).f1
            )
        return sum(scores) / len(scores)

    baseline = mean_f1(0, 0)
    with_true = mean_f1(200, 0)
    assert with_true >= baseline - 0.01

    counts = [0, 100, 200, 300, 400, 500]
    polluted = [baseline] + [mean_f1(0, n) for n in counts[1:]]
    assert polluted[-1] <= baseline + 0.01
    rho, _ = spearmanr(counts, polluted)
    assert rho <= 0


@pytest.fixture(scope="module")
def monk1():
    return monk1_dataset()


def mean_f1(ds, method: str) -> float:
    """The test F1 of ``method`` on ``ds``, averaged over seeds 0-4."""
    return sum(run_eval(ExperimentConfig(dataset=ds, method=method, rng_seed=seed)).f1
               for seed in range(5)) / 5


def test_c14_monk1_f1(monk1):
    # Measured over seeds 0-4: direct 0.745, 0.812, 0.804, 0.639, 0.717
    # (mean 0.743); tree 0.959, 0.929, 1.0, 0.936, 0.917 (mean 0.948).  Each
    # mean bound sits about 0.04 below its measured mean.
    assert mean_f1(monk1, "direct") >= 0.70
    assert mean_f1(monk1, "tree") >= 0.90


def test_c14_monk1_explanations_hold_a_true_reason(monk1):
    # The k=2 direct explanation of a test row that is positive and
    # classifies positive should hold a reason the concept gives: a5=1, or
    # a1 and a2 with equal values.  Measured over seeds 0-4: 38/38, 35/41,
    # 37/41, 31/31 and 28/33 (169/184 = 0.918, each seed at least 0.848).
    # The bounds sit about 0.05 below: 0.85 over all, 0.80 per seed, and
    # at least 25 rows explained per seed (31 measured at least).
    held = explained = 0
    for seed in range(5):
        train, test = split(balance(monk1, seed), 0.7, seed)
        kb = train_kb(train, "direct")
        seed_held = seed_explained = 0
        for inst in test.instances:
            if not (inst.label and classify_query(kb, inst.values).label):
                continue
            sub = compute_explanation(inst.values, kb, 2).sub_query
            seed_explained += 1
            seed_held += sub.get("a5") == "1" or ("a1" in sub and sub.get("a2") == sub["a1"])
        assert seed_explained >= 25
        assert seed_held / seed_explained >= 0.80
        held += seed_held
        explained += seed_explained
    assert held / explained >= 0.85


def test_c15_monk2_f1():
    # Exactly two attributes equal to 1: no short rule body holds the
    # concept.  Measured over seeds 0-4: direct 0.657, 0.632, 0.660, 0.667,
    # 0.619 (mean 0.647); tree 0.735, 0.713, 0.653, 0.667, 0.698 (mean
    # 0.693).  Each mean bound sits about 0.04 below its measured mean.
    ds = monk2_dataset()
    assert mean_f1(ds, "direct") >= 0.61
    assert mean_f1(ds, "tree") >= 0.65


def test_c16_monk3_f1():
    # Measured over seeds 0-4: direct 0.954, 0.919, 0.935, 0.939, 0.948
    # (mean 0.939); tree 1.0 on every seed.  Each mean bound sits about
    # 0.04 below its measured mean.
    ds = monk3_dataset()
    assert mean_f1(ds, "direct") >= 0.90
    assert mean_f1(ds, "tree") >= 0.96
