"""The lexicographic solve on one warm HiGHS model
(``plkb.lp._bounded_target``) against the three cold ``linprog`` solves it
replaced (``helpers.reference_bounded_target``), on the same program: v*
within 1e-9 relative, the bounds within 1e-6 and the same label.

Programs come from KBs of every clause shape under full and partial
queries, and from arbitrary-probability KBs, mostly inconsistent, whose
clauses share atoms more densely.  ``TestOptimalFace`` pins bounds that
the reference's slack on v* would widen, and solves programs whose
stage-1 dual is not unique.  ``TestBoxSatisfiedRows`` solves the program
``build_lp`` writes against the full program (``reference_build_lp``),
which also holds the rows the bounds alone satisfy.
"""

import random

import pytest
from hypothesis import example, given, settings

from helpers import (
    PRESOLVE_TRAP,
    arbitrary_random_kb,
    captured_program,
    coded_kbs,
    decoded_presolve,
    mixed_coded_kbs,
    mixed_kbs_and_queries,
    reference_bounded_target,
    reference_build_lp,
)

from plkb.evaluate import bench_lp, random_bench_kb
from plkb.kb import POS, Clause, Literal, WeightedClause, parse_kb
from plkb.lp import LABEL_EPS, _bounded_target, _result, apply_query, build_lp


def assert_same_solve(kb, query, target):
    assert_same_bounds(apply_query(build_lp(kb), query), target)


def assert_same_bounds(lp, target):
    target_var = lp.atom_index.get(target)
    v_star, lo, hi = _bounded_target(lp, target_var)
    ref_v_star, ref_lo, ref_hi = reference_bounded_target(lp, target_var)
    assert v_star == pytest.approx(ref_v_star, rel=1e-9)
    if target_var is None:
        assert lo is hi is ref_lo is ref_hi is None
        return
    assert lo == pytest.approx(ref_lo, abs=1e-6)
    assert hi == pytest.approx(ref_hi, abs=1e-6)
    assert _result(v_star, lo, hi).label == _result(ref_v_star, ref_lo, ref_hi).label


class TestWarmAgainstCold:
    @settings(max_examples=200, deadline=None)
    @given(mixed_kbs_and_queries())
    @example(PRESOLVE_TRAP)
    def test_mixed_kbs(self, case):
        kb, query, target = case
        if len(kb):
            assert_same_solve(kb, query, target)

    def test_arbitrary_kbs_every_target(self):
        rng = random.Random(11)
        for _ in range(12):
            kb, atoms = arbitrary_random_kb(rng, rng.randint(2, 7), rng.randint(4, 30))
            for atom in atoms:
                assert_same_solve(kb, {}, atom)

    def test_bench_lp_objective(self):
        ref_v_star = reference_bounded_target(build_lp(random_bench_kb(1000, 1000, 0)), None)[0]
        assert bench_lp(1000, 1000, 0).objective == pytest.approx(ref_v_star, rel=1e-9)


class TestOptimalFace:
    """Stages 2 and 3 range over exactly the stage-1 optimal set: no slack
    on v* widens the bounds, and a program with more than one stage-1
    dual, such as a clause sequence that repeats a clause (as a presolved
    residual can), gets the reference's bounds whichever dual HiGHS
    returns."""

    def test_exact_bounds_on_a_flat_optimum(self):
        # With a=1, "pos | !a=1" is pos itself, deviating |pi - 0.2000005|.
        # "pos | !b=1" deviates max(0, pi - 0.2) at the best b: below 0.2
        # some 1 - x_b makes it exact, above it pi(c) >= pi > 0.2.  The sum
        # is 0.2000005 - pi below 0.2, the constant 5e-7 for pi in
        # [0.2, 0.2000005] and 2 pi - 0.4000005 above, so v* = 5e-7 and the
        # optimal face bounds pi(pos) to exactly [0.2, 0.2000005].
        kb = parse_kb("0.2000005 pos | !a=1\n0.2 pos | !b=1")
        lp = apply_query(build_lp(kb), {"a": "1"})
        v_star, lo, hi = _bounded_target(lp, lp.atom_index[POS])
        assert v_star == pytest.approx(5e-7, abs=1e-12)
        assert lo == pytest.approx(0.2, abs=1e-12)
        assert hi == pytest.approx(0.2000005, abs=1e-12)

    def test_repeated_unit_clauses_give_the_median_interval(self):
        # sum |pi - p_i| over 0.4, 0.4, 0.8, 0.8 is 0.8 on all of [0.4, 0.8]
        clauses = [*parse_kb("0.4 pos").clauses] * 2 + [*parse_kb("0.8 pos").clauses] * 2
        lp = build_lp(clauses)
        v_star, lo, hi = _bounded_target(lp, lp.atom_index[POS])
        assert v_star == pytest.approx(0.8, abs=1e-9)
        assert (lo, hi) == (pytest.approx(0.4, abs=1e-9), pytest.approx(0.8, abs=1e-9))
        assert_same_bounds(lp, POS)

    def test_repeated_clauses_match_the_reference(self):
        rng = random.Random(5)
        for _ in range(30):
            kb, atoms = arbitrary_random_kb(rng, rng.randint(2, 5), rng.randint(2, 8))
            clauses = list(kb.clauses)
            clauses += rng.choices(clauses, k=rng.randint(1, len(clauses)))
            rng.shuffle(clauses)
            lp = build_lp(clauses)
            for atom in atoms:
                assert_same_bounds(lp, atom)


def assert_same_as_full(program, full, target):
    """The written program solves as the full one: v* within 1e-9
    relative, the bounds within ``LABEL_EPS`` and the same label."""
    target_var = full.atom_index.get(target)
    assert program.atom_index == full.atom_index
    v_star, lo, hi = _bounded_target(program, target_var)
    full_v_star, full_lo, full_hi = _bounded_target(full, target_var)
    assert v_star == pytest.approx(full_v_star, rel=1e-9)
    if target_var is None:
        return
    assert lo == pytest.approx(full_lo, abs=LABEL_EPS)
    assert hi == pytest.approx(full_hi, abs=LABEL_EPS)
    assert _result(v_star, lo, hi).label == _result(full_v_star, full_lo, full_hi).label


class TestBoxSatisfiedRows:
    """Clause probabilities are drawn in eighths, so rules and clauses
    with p = 0 and p = 1, whose rows ``build_lp`` partly leaves out, occur
    in most KBs: the residual program of each query and the whole KB's
    program under it solve as the full programs do."""

    @settings(max_examples=150, deadline=None)
    @given(coded_kbs() | mixed_coded_kbs())
    def test_written_program_solves_as_the_full_one(self, case):
        kb, queries = case
        unit = Clause([Literal(POS)])
        for query in queries:
            if not kb.counts and POS not in kb.universe:
                break  # infer_pos refuses a KB that never mentions pos
            program = captured_program(kb, query)
            if program is not None:
                _, probs, rest = decoded_presolve(kb, query)
                full = reference_build_lp([*(WeightedClause(p, unit) for p in probs), *rest])
                assert_same_as_full(program, full, POS)
            if len(kb):
                assert_same_as_full(apply_query(build_lp(kb), query),
                                    apply_query(reference_build_lp(kb.clauses), query), POS)
