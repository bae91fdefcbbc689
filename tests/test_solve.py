"""The lexicographic solve on one warm HiGHS model
(``plkb.lp._bounded_target``) against the three cold ``linprog`` solves it
replaced (``helpers.reference_bounded_target``), on the same program: v*
within 1e-9 relative, the bounds within 1e-6 and the same label.

Programs come from KBs of every clause shape under full and partial
queries, and from arbitrary-probability KBs, mostly inconsistent, whose
clauses share atoms more densely.
"""

import random

import pytest
from hypothesis import example, given, settings

from helpers import (
    PRESOLVE_TRAP,
    arbitrary_random_kb,
    mixed_kbs_and_queries,
    reference_bounded_target,
)

from plkb.evaluate import bench_lp, random_bench_kb
from plkb.lp import _bounded_target, _result, apply_query, build_lp


def assert_same_solve(kb, query, target):
    lp = apply_query(build_lp(kb), query)
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
