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
    balance_scale_dataset,
    forest_label,
    grow_forest,
    monk1_dataset,
    monk2_dataset,
    monk3_dataset,
    query_from_string,
    random_dataset,
    satisfiable_random_kb,
    smallest_reason,
    sufficient,
    tic_tac_toe_dataset,
    unpresolved_infer,
)

from plkb.data import balance, generate_synthetic, random_seed_spec, split
from plkb.direct import build_direct_kb, relevant_kb
from plkb.evaluate import (
    ExperimentConfig,
    bench_lp,
    classify_query,
    f1_score,
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


def test_c17_tic_tac_toe_f1():
    # 958 end boards, 626 won by x.  Measured over seeds 0-4: direct 0.894,
    # 0.915, 0.871, 0.912, 0.872 (mean 0.893); tree 0.875, 0.866, 0.872,
    # 0.931, 0.864 (mean 0.882).  Each mean bound sits about 0.04 below its
    # measured mean.
    ds = tic_tac_toe_dataset()
    assert mean_f1(ds, "direct") >= 0.85
    assert mean_f1(ds, "tree") >= 0.84


def test_c18_balance_scale_f1():
    # 625 rows, 288 tipping left.  Measured over seeds 0-4: direct 0.926,
    # 0.929, 0.951, 0.905, 0.913 (mean 0.925); tree 0.716, 0.726, 0.681,
    # 0.731, 0.773 (mean 0.726).  Each mean bound sits about 0.04 below its
    # measured mean.
    ds = balance_scale_dataset()
    assert mean_f1(ds, "direct") >= 0.88
    assert mean_f1(ds, "tree") >= 0.68


def mean_forest_f1(ds) -> float:
    """The test F1 of a 100-tree random forest on ``ds``, split as
    :func:`mean_f1` splits it and seeded by the run seed, averaged over
    seeds 0-4."""
    scores = []
    for seed in range(5):
        train, test = split(balance(ds, seed), 0.7, seed)
        forest = grow_forest(train, seed)
        scores.append(f1_score([forest_label(forest, inst.values) for inst in test.instances],
                               [inst.label for inst in test.instances]).f1)
    return sum(scores) / 5


def test_c19_random_forest_beats_both_methods_on_monk1(monk1):
    # Measured over seeds 0-4: forest 1.0 on every seed, against direct
    # 0.743 and tree 0.948 (c14).  The forest's bound sits 0.04 below.
    forest = mean_forest_f1(monk1)
    assert forest >= 0.96
    assert forest > mean_f1(monk1, "tree") > mean_f1(monk1, "direct")


def test_c19_direct_beats_a_random_forest_on_seed_strings():
    # The paper's claim: the direct method is comparable to a random forest.
    # Measured over seeds 0-4 on 800 seed strings: forest 0.830, 0.851,
    # 0.840, 0.879, 0.843 (mean 0.849); direct 0.863, 0.903, 0.879, 0.898,
    # 0.833 (mean 0.875); tree 0.658, 0.689, 0.675, 0.623, 0.648 (mean
    # 0.659).  Each mean bound sits about 0.04 below its measured mean.
    ds = generate_synthetic(random_seed_spec(10, 4, 5, 0), 800, 1)
    forest, direct, tree = mean_forest_f1(ds), mean_f1(ds, "direct"), mean_f1(ds, "tree")
    assert forest >= 0.81 and direct >= 0.83 and tree >= 0.62
    assert direct > forest > tree


def explanation_sufficiency(ds, method: str):
    """Explanations of ``method`` checked as sufficient reasons against
    every row of ``ds``, over the test rows of seeds 0-4 that
    :func:`classify_query` labels correctly.  Returns the number of those
    rows; of sufficient explanations at k = 1, 2, 3; of rows with a
    sufficient reason of at most 1, 2, 3 pairs; and ``(seed, features,
    score)`` of each k=1 explanation that is not sufficient though a
    one-pair reason exists."""
    rows = ds.instances
    explained, held, reasons, missed = 0, [0, 0, 0], [0, 0, 0], []
    for seed in range(5):
        train, test = split(balance(ds, seed), 0.7, seed)
        kb = train_kb(train, method)
        for inst in test.instances:
            if classify_query(kb, inst.values).label != inst.label:
                continue
            explained += 1
            reason = smallest_reason(inst.values, rows, inst.label, 3)
            for k in (1, 2, 3):
                expl = compute_explanation(inst.values, kb, k)
                ok = sufficient(expl.sub_query, rows, inst.label)
                held[k - 1] += ok
                reasons[k - 1] += reason is not None and len(reason) <= k
                if k == 1 and not ok and reason is not None and len(reason) == 1:
                    missed.append((seed, tuple(expl.sub_query), expl.score))
    return explained, held, reasons, missed


def test_c20_monk1_explanations_are_sufficient_reasons(monk1):
    # A sufficient reason: every one of the 432 rows that agrees with the
    # sub-query has the row's label.  Measured over seeds 0-4, correctly
    # classified rows; sufficient at k=1/2/3; rows with a reason of at most
    # 1/2/3 pairs:
    #   direct: 524; 155/169/438 (0.296/0.323/0.836); 155/184/524
    #   tree:   619; 156/285/385 (0.252/0.460/0.622); 156/285/619
    # Each share bound sits about 0.05 below.  Both methods find a one-pair
    # reason whenever one exists.
    for method, bounds in (("direct", (0.25, 0.27, 0.79)), ("tree", (0.20, 0.41, 0.57))):
        explained, held, reasons, missed = explanation_sufficiency(monk1, method)
        assert reasons[2] == explained  # every row has a reason of 3 pairs
        assert all(h / explained >= b for h, b in zip(held, bounds))
        assert missed == []


def test_c20_monk3_explanations_are_sufficient_reasons():
    # As c20 on MONK-1.  Measured over seeds 0-4:
    #   direct: 645; 170/285/553 (0.264/0.442/0.857); 170/645/645
    #   tree:   685; 147/613/685 (0.215/0.895/1.0);   189/685/685
    # Each share bound sits about 0.05 below.  Direct finds a one-pair
    # reason whenever one exists.  Tree misses it on 42 rows, all at seed
    # 2: that seed's ID3 tree roots at a2 and has no leaf at depth 1, so
    # every one-pair sub-query has no relevant row, scores 0.5, and the
    # tie-break picks the smallest, a1=...  Pinned as measured.
    ds = monk3_dataset()
    for method, bounds in (("direct", (0.21, 0.39, 0.81)), ("tree", (0.16, 0.84, 0.95))):
        explained, held, reasons, missed = explanation_sufficiency(ds, method)
        assert reasons[1] == explained  # every row has a reason of 2 pairs
        assert all(h / explained >= b for h, b in zip(held, bounds))
        assert missed == ([] if method == "direct" else [(2, ("a1",), 0.5)] * 42)
