import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plkb.lp as lp_module
from helpers import (
    PRESOLVE_TRAP,
    _ub,
    arbitrary_random_kb,
    datasets_and_queries,
    decoded_presolve,
    mixed_kbs_and_queries,
    query_from_string,
    reference_build_lp,
    reference_infer,
    satisfiable_random_kb,
    stop_highs_at_time_limit,
    tuple_counts,
    unpresolved_infer,
    without_box_satisfied_rows,
)

from plkb.cli import check_query
from plkb.data import from_rows
from plkb.direct import build_direct_kb, relevant_kb
from plkb.kb import (
    POS,
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    WeightedClause,
    merge,
    parse_kb,
    rule_clause,
)
from plkb.evaluate import random_bench_kb
from plkb.lp import (
    TAU_ZERO,
    LinearProgram,
    Rows,
    _median_interval,
    apply_query,
    build_lp,
    check_consistency,
    dump_lp,
    infer_pos,
    minimum_deviation,
    nilsson_oracle,
)

PAIRWISE_KB_TEXT = "1.0 a | b\n1.0 a | c\n1.0 b | c\n1.0 a | b | c"


def query_unit_clauses(s: str):
    return [
        WeightedClause(1.0, Clause([Literal(Atom(f"a{i}", ch))]))
        for i, ch in enumerate(s, start=1)
    ]


def program_rows(lp):
    """Each row as (frozenset of (variable name, coefficient), rhs)."""
    rows = lp.constraints
    return [
        (
            frozenset(
                (lp.variables[rows.indices[j]], rows.data[j])
                for j in range(rows.indptr[r], rows.indptr[r + 1])
            ),
            pytest.approx(rhs, abs=1e-12),
        )
        for r, rhs in enumerate(rows.rhs)
    ]


def stage_one(lp):
    """Variable values and v* of one stage-1 HiGHS solve of the program."""
    res = lp_module.linprog(lp.objective, *_ub(lp), bounds=lp.bounds, method="highs")
    assert res.status == 0, res.message
    return dict(zip(lp.variables, map(float, res.x))), float(res.fun)


def row_sides(lp, values):
    """(left-hand side, rhs) of every row at the given variable values."""
    rows = lp.constraints
    return [
        (sum(rows.data[j] * values[rows.indices[j]]
             for j in range(rows.indptr[r], rows.indptr[r + 1])), rhs)
        for r, rhs in enumerate(rows.rhs)
    ]


def least_deviation(wc, values, atom_index):
    """The least |pi(c) - p| the clause admits at the given atom values."""
    lits = [
        1.0 - values[atom_index[lit.atom]] if lit.negated else values[atom_index[lit.atom]]
        for lit in wc.clause.literals
    ]
    p = float(wc.probability)
    return max(0.0, max(lits) - p, p - sum(lits))


class TestBuildLp:
    def test_two_clause_structure(self, implication_kb):
        lp = build_lp(implication_kb)
        # 2 atoms, then one deviation per clause
        assert lp.variables == ("a", "b", "d0", "d1")
        # 2 cover rows + 3 literal rows, all <=
        assert len(lp.constraints) == 2 + 3
        assert lp.objective == (0.0, 0.0, 1.0, 1.0)
        assert lp.bounds == ((0.0, 1.0),) * 2 + ((0.0, None),) * 2

    def test_two_clause_constraints_written_out(self, implication_kb):
        lp = build_lp(implication_kb)
        # clause order follows the KB: c0 = !a | b (0.6), c1 = a (0.8)
        assert [str(wc.clause) for wc in implication_kb] == ["!a | b", "a"]
        assert program_rows(lp) == [
            # d0 + (1 - a) + b >= 0.6
            (frozenset({("d0", -1.0), ("a", 1.0), ("b", -1.0)}), 0.4),
            # (1 - a) - d0 <= 0.6
            (frozenset({("a", -1.0), ("d0", -1.0)}), -0.4),
            # b - d0 <= 0.6
            (frozenset({("b", 1.0), ("d0", -1.0)}), 0.6),
            # d1 + a >= 0.8
            (frozenset({("d1", -1.0), ("a", -1.0)}), -0.8),
            # a - d1 <= 0.8
            (frozenset({("a", 1.0), ("d1", -1.0)}), 0.8),
        ]

    def test_single_unit_clause(self):
        kb = parse_kb("1.0 pos")
        lp = build_lp(kb)
        assert lp.variables == ("pos", "d0")
        # d0 + pos >= 1; pos - d0 <= 1 holds on the whole box and is not written
        assert program_rows(lp) == [
            (frozenset({("d0", -1.0), ("pos", -1.0)}), -1.0),
        ]

    @pytest.mark.parametrize("text, n_rows", [
        ("1 pos | !a1=1", 1),  # the sum row only
        ("0 pos | !a1=1 | !a2=0 | !a3=1", 3 + 1),  # the literal rows only
        ("0.7 pos | !a1=1", 1 + 2),
        ("1 b | !c", 1),
        ("0 b | !c", 2),
        ("0.7 pos | a1=1", 1 + 2),
    ])
    def test_rows_the_box_satisfies_are_not_written(self, text, n_rows):
        kb = parse_kb(text)
        lp = build_lp(kb)
        assert len(lp.constraints) == n_rows
        assert lp == without_box_satisfied_rows(reference_build_lp(kb.clauses))

    @pytest.mark.parametrize("kb", ["implication_kb", "strings_tree_kb"])
    def test_consistency_is_the_full_programs(self, kb, request):
        kb = request.getfixturevalue(kb)
        hint, v_star = check_consistency(kb)
        full = max(0.0, minimum_deviation(reference_build_lp(kb.clauses)))
        assert v_star == pytest.approx(full, rel=1e-9, abs=1e-12)
        assert hint == (full <= TAU_ZERO)

    def test_structural_counts_on_random_kbs(self):
        rng = random.Random(5)
        for _ in range(20):
            kb, atoms = arbitrary_random_kb(rng, rng.randint(1, 6), rng.randint(1, 8))
            lp = build_lp(kb)
            n = len(kb.universe)
            m = len(kb.clauses)
            total_literals = sum(len(wc.clause.literals) for wc in kb)
            assert lp.n_variables == n + m
            assert len(lp.constraints) == m + total_literals
            assert len(lp.constraints.indices) == 2 * total_literals + m + total_literals

    def test_empty_kb_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_lp(KnowledgeBase())


class TestApplyQuery:
    def test_full_query_fixes_every_sibling(self, strings_tree_kb):
        lp = build_lp(strings_tree_kb)
        out = apply_query(lp, query_from_string("0101"))
        fixed = {
            name: lo
            for name, (lo, hi) in zip(out.variables, out.bounds)
            if lo == hi
        }
        assert fixed == {
            "a1=0": 1.0, "a1=1": 0.0,
            "a2=0": 0.0, "a2=1": 1.0,
            "a3=0": 1.0, "a3=1": 0.0,
            "a4=0": 0.0, "a4=1": 1.0,
        }

    def test_empty_query_changes_nothing(self, strings_tree_kb):
        lp = build_lp(strings_tree_kb)
        assert apply_query(lp, {}).bounds == lp.bounds

    def test_partial_query_only_touches_the_feature(self, strings_tree_kb):
        lp = build_lp(strings_tree_kb)
        out = apply_query(lp, {"a1": "0"})
        fixed = sum(1 for lo, hi in out.bounds if lo == hi)
        assert fixed == 2

    def test_unknown_atom_skipped_silently(self, strings_tree_kb):
        lp = build_lp(strings_tree_kb)
        out = apply_query(lp, {"zz": "1"})
        assert out.bounds == lp.bounds

    def test_out_of_domain_value_warns_but_asserts(self, strings_tree_kb, capsys):
        lp = build_lp(strings_tree_kb)
        check_query({"a1": "7"}, {"a1": {"0", "1"}})
        assert capsys.readouterr().err == "query value a1=7 outside the feature's domain\n"
        out = apply_query(lp, {"a1": "7"})
        # the asserted atom does not exist, so only siblings get zeroed
        fixed = {
            name: lo
            for name, (lo, hi) in zip(out.variables, out.bounds)
            if lo == hi
        }
        assert fixed == {"a1=0": 0.0, "a1=1": 0.0}

    def test_feature_missing_from_domains_rejected(self):
        with pytest.raises(ValueError, match="not in domains"):
            check_query({"a1": "0"}, {"a2": {"0", "1"}})


class TestSolveLp:
    """Stage 1 of the solve, through :func:`minimum_deviation`."""

    def test_hand_built_deviation_program(self):
        # minimise d  s.t.  x - d <= 0.3, -x - d <= -0.3, x in [0, 1]
        lp = LinearProgram(
            variables=("x", "d"),
            constraints=Rows([0, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, -1.0], [0.3, -0.3]),
            objective=(0.0, 1.0),
            bounds=((0.0, 1.0), (0.0, None)),
        )
        assert minimum_deviation(lp) == pytest.approx(0.0, abs=1e-9)
        assert stage_one(lp)[0]["x"] == pytest.approx(0.3, abs=1e-9)

    def test_infeasible_status(self):
        # -x <= -2 with x in [0, 1]
        lp = LinearProgram(
            variables=("x",),
            constraints=Rows([0, 1], [0], [-1.0], [-2.0]),
            objective=(1.0,),
            bounds=((0.0, 1.0),),
        )
        with pytest.raises(RuntimeError, match="Infeasible"):
            minimum_deviation(lp)

    def test_unbounded_is_an_internal_error(self):
        lp = LinearProgram(
            variables=("x",),
            constraints=Rows([0], [], [], []),
            objective=(-1.0,),
            bounds=((0.0, None),),
        )
        with pytest.raises(RuntimeError, match="Unbounded"):
            minimum_deviation(lp)

    def test_consistent_kb_minimises_to_zero(self, implication_kb):
        assert minimum_deviation(build_lp(implication_kb)) == pytest.approx(0.0, abs=1e-7)
        a = infer_pos(implication_kb, target=Atom("a"))
        assert a.p_lower == pytest.approx(0.8, abs=1e-6)
        assert a.p_upper == pytest.approx(0.8, abs=1e-6)
        b = infer_pos(implication_kb, target=Atom("b"))
        assert 0.4 - 1e-6 <= b.p_lower <= b.p_upper <= 0.6 + 1e-6

    def test_world_generated_kbs_minimise_to_zero(self):
        rng = random.Random(17)
        for _ in range(20):
            kb, _ = satisfiable_random_kb(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert minimum_deviation(build_lp(kb)) <= 1e-6


class TestInfer:
    def test_unit_class_clause(self):
        kb = parse_kb("1.0 pos")
        res = infer_pos(kb)
        assert res.p_lower == pytest.approx(1.0, abs=1e-5)
        assert res.p_upper == pytest.approx(1.0, abs=1e-9)
        assert res.label is True

    def test_implication_bounds_for_consequent(self, implication_kb):
        res = infer_pos(implication_kb, target=Atom("b"))
        assert res.objective_min <= 1e-6
        assert res.p_lower == pytest.approx(0.4, abs=1e-6)
        assert res.p_upper == pytest.approx(0.6, abs=1e-6)
        assert res.p_avg == pytest.approx(0.5, abs=1e-6)
        assert res.label is False

    def test_full_query_on_direct_kb_is_a_coin_flip(self, strings_direct_kb):
        res = unpresolved_infer(strings_direct_kb, query_from_string("0101"))
        assert res.p_avg == pytest.approx(0.5, abs=1e-5)
        assert res.label is False

    def test_tree_kb_follows_its_only_active_clause(self, strings_tree_kb):
        # every path clause but the a4=1 one is pinned true by this query,
        # so the class probability follows that clause's probability 1.0
        res = unpresolved_infer(strings_tree_kb, query_from_string("0101"))
        assert res.p_avg > 0.99
        assert res.label is True

    def test_empty_kb_is_maximally_uncertain(self):
        res = infer_pos(KnowledgeBase(), {"a1": "0"})
        assert (res.p_lower, res.p_upper) == (0.0, 1.0)
        assert res.label is False

    def test_a_status_but_optimal_is_an_internal_error(self, strings_direct_kb, monkeypatch):
        message = stop_highs_at_time_limit(monkeypatch)
        with pytest.raises(RuntimeError, match=f"^internal error: {message}$"):
            infer_pos(strings_direct_kb, {"a1": "0"})

    def test_an_optimum_without_a_valid_dual_is_an_internal_error(
        self, strings_direct_kb, monkeypatch
    ):
        # stages 2 and 3 are set up from stage 1's dual
        from scipy.optimize._highspy import _core

        class NoDual(_core._Highs):
            def getSolution(self):
                solution = super().getSolution()
                solution.dual_valid = False
                return solution

        monkeypatch.setattr(_core, "_Highs", NoDual)
        with pytest.raises(RuntimeError, match="^internal error: no valid dual solution$"):
            infer_pos(strings_direct_kb, {"a1": "0"})

    def test_only_a_bounded_target_reads_the_solution(self, strings_direct_kb, monkeypatch):
        # each stage reads the objective value; stage 1's dual is copied
        # once, and only when stages 2 and 3 need it
        from scipy.optimize._highspy import _core

        calls = []

        class CountSolutions(_core._Highs):
            def getSolution(self):
                calls.append(1)
                return super().getSolution()

        monkeypatch.setattr(_core, "_Highs", CountSolutions)
        infer_pos(strings_direct_kb, {"a1": "0"})
        assert len(calls) == 1
        calls.clear()
        minimum_deviation(build_lp(strings_direct_kb))
        assert calls == []

    def test_the_presolved_program_takes_no_query(self, monkeypatch):
        # the residual of a partial query mentions no atom the query fixes
        kb = parse_kb("0.8 pos | !a=1\n0.3 pos | !b=0\n0.6 pos | c\n0.4 !c | a=0")
        expected = unpresolved_infer(kb, {"a": "1"})

        def no_query(*args):
            raise AssertionError("apply_query called on a presolved program")

        monkeypatch.setattr(lp_module, "apply_query", no_query)
        res = infer_pos(kb, {"a": "1"})
        assert res.p_lower < res.p_upper
        assert (res.p_lower, res.p_upper) == pytest.approx(
            (expected.p_lower, expected.p_upper), abs=1e-6
        )

    def test_missing_target_rejected(self, strings_tree_kb):
        with pytest.raises(ValueError, match="target"):
            infer_pos(strings_tree_kb, target=Atom("zz"))

    def test_exact_midpoint_classifies_negative(self):
        kb = parse_kb("0.5 pos")
        assert infer_pos(kb).label is False

    def test_pinned_and_lp_engines_agree(self):
        # Rule clauses are pos plus negated pairs the query asserts, which
        # the presolve reduces to pos; a mixed-in clause either is one the
        # query decides (it has a literal the query makes true) or keeps
        # another free literal, so the closed form must decline and the LP
        # answer the residual.
        rng = random.Random(23)
        n_pinned = n_declined = 0
        for _ in range(60):
            n_features = rng.randint(1, 4)
            pairs = [(f"f{i}", rng.choice("01")) for i in range(1, n_features + 1)]
            query = dict(pairs)
            n_clauses = min(rng.randint(1, 6), 2 ** len(pairs))
            by_clause = {}
            while len(by_clause) < n_clauses:
                clause = rule_clause(rng.sample(pairs, rng.randint(0, len(pairs))))
                if clause not in by_clause:
                    by_clause[clause] = WeightedClause(rng.random(), clause)
            pinned = rng.random() < 0.5
            if not pinned:
                f, v = rng.choice(pairs)
                other = "1" if v == "0" else "0"
                shape = rng.randrange(5)
                clause = [
                    Clause([Literal(POS), Literal(Atom(f, v))]),
                    Clause([Literal(POS), Literal(Atom(f, other), True)]),
                    Clause([Literal(POS, True), Literal(Atom(f, v), True)]),
                    Clause([Literal(POS), Literal(Atom("b"), True)]),
                    Clause([Literal(Atom("t", "0")), Literal(Atom(f, v), True)]),
                ][shape]
                by_clause[clause] = WeightedClause(rng.random(), clause)
                pinned = shape < 2  # the query makes its feature literal true
            kb = KnowledgeBase(by_clause.values())
            constant, probs, rest = decoded_presolve(kb, query)
            assert (not rest) == pinned
            assert len(probs) + len(rest) <= len(kb)
            n_pinned += pinned
            n_declined += not pinned
            fast = infer_pos(kb, query)
            slow = unpresolved_infer(kb, query)
            assert fast.p_lower == pytest.approx(slow.p_lower, abs=1e-6)
            assert fast.p_upper == pytest.approx(slow.p_upper, abs=1e-6)
            assert fast.objective_min == pytest.approx(slow.objective_min, abs=1e-6)
            with pytest.raises(ValueError, match="does not occur"):
                infer_pos(kb, query, target=Atom("zz"))
        assert n_pinned > 10 and n_declined > 10

    def test_bounds_are_never_negative_zero(self):
        # HiGHS can return -0.0 for a target fixed to 0; the result clamps
        # it to +0.0 so that printed bounds never read -0.000000.
        kb = parse_kb("0.8 t=0 | !f=1\n0.6 t=0")
        res = infer_pos(kb, {"f": "1", "t": "1"}, target=Atom("t", "0"))
        # the query fixes the target's own feature, so t=0 is pinned at 0
        assert (res.p_lower, res.p_upper) == pytest.approx((0.0, 0.0), abs=1e-9)
        for value in (res.p_lower, res.p_upper, res.objective_min):
            assert math.copysign(1.0, value) == 1.0

    def test_clause_order_invariance(self, strings_direct_kb):
        q = query_from_string("0101")
        rel = relevant_kb(q, strings_direct_kb)
        base = unpresolved_infer(rel, q)
        rng = random.Random(3)
        clauses = list(rel.clauses)
        for _ in range(5):
            rng.shuffle(clauses)
            res = unpresolved_infer(KnowledgeBase(clauses), q)
            assert res.p_lower == pytest.approx(base.p_lower, abs=1e-6)
            assert res.p_upper == pytest.approx(base.p_upper, abs=1e-6)

    def test_bitwise_determinism(self, strings_direct_kb):
        q = query_from_string("1100")
        a = unpresolved_infer(strings_direct_kb, q)
        b = unpresolved_infer(strings_direct_kb, q)
        assert a == b

    def test_probability_laws_on_an_optimal_solution(self, implication_kb):
        v, v_star = stage_one(build_lp(implication_kb))
        assert 0.0 <= v["a"] <= 1.0 and 0.0 <= v["b"] <= 1.0
        # c0 = !a | b at 0.6: pi(c0) fits in [max(1 - a, b), 1 - a + b]
        assert max(1.0 - v["a"], v["b"]) <= 0.6 + v["d0"] + 1e-7
        assert 1.0 - v["a"] + v["b"] >= 0.6 - v["d0"] - 1e-7
        # c1 = a at 0.8
        assert abs(v["a"] - 0.8) <= v["d1"] + 1e-7
        assert v["d0"] + v["d1"] == pytest.approx(v_star, abs=1e-9)

    def test_probability_laws_hold_on_random_optima(self):
        rng = random.Random(99)
        for _ in range(15):
            kb, _ = arbitrary_random_kb(rng, rng.randint(1, 6), rng.randint(1, 8))
            lp = build_lp(kb)
            solved, _ = stage_one(lp)
            values = [solved[name] for name in lp.variables]
            for lhs, rhs in row_sides(lp, values):
                assert lhs <= rhs + 1e-7
            for idx, (lo, hi) in enumerate(lp.bounds):
                assert values[idx] >= lo - 1e-7
                if hi is not None:
                    assert values[idx] <= hi + 1e-7
            # at the optimum each deviation is the least its clause admits
            n = len(lp.atom_index)
            for i, wc in enumerate(kb.clauses):
                expected = least_deviation(wc, values, lp.atom_index)
                assert values[n + i] == pytest.approx(expected, abs=1e-7)


class TestPresolve:
    """Presolved ``pos`` answers against ``helpers.unpresolved_infer``."""

    @staticmethod
    def assert_same_answer(kb, query, target=POS, fast=None):
        fast = infer_pos(kb, query, target=target) if fast is None else fast
        slow = unpresolved_infer(kb, query, target)
        assert fast.label == slow.label
        assert fast.p_lower == pytest.approx(slow.p_lower, abs=1e-6)
        assert fast.p_upper == pytest.approx(slow.p_upper, abs=1e-6)
        assert fast.objective_min == pytest.approx(slow.objective_min, abs=1e-6)
        return fast

    @settings(max_examples=150, deadline=None)
    @given(mixed_kbs_and_queries())
    def test_matches_the_unpresolved_lp(self, case):
        kb, query, target = case
        if target in kb.universe or len(kb) == 0:
            self.assert_same_answer(kb, query, target)
            return
        with pytest.raises(ValueError, match="does not occur"):
            infer_pos(kb, query, target=target)

    @settings(max_examples=40, deadline=None)
    @given(datasets_and_queries())
    def test_matches_the_unpresolved_lp_on_direct_tables(self, case):
        ds, max_arity, queries = case
        table = build_direct_kb(ds, max_arity)
        answers = [infer_pos(table, query) for query in queries]
        # the reference iterates the table, which builds its clauses
        assert "clauses" not in table.__dict__
        for query, fast in zip(queries, answers):
            self.assert_same_answer(table, query, fast=fast)

    def test_whole_kb_constant_enters_the_deviation(self):
        # 0.8 pos | !a=0 is pinned true by a=1: it leaves with deviation 0.2
        text = "0.5 pos | !a=1\n0.8 pos | !a=0"
        for kb in (parse_kb(text), KnowledgeBase(list(parse_kb(text).clauses))):
            fast = self.assert_same_answer(kb, {"a": "1"})
            assert (fast.p_lower, fast.p_upper) == (0.5, 0.5)
            assert fast.objective_min == pytest.approx(0.2, abs=1e-12)

    def test_clauses_reducing_to_one_residual_keep_every_copy(self):
        kb = parse_kb(
            "0.6 pos | !a=1 | b\n0.7 pos | a=0 | b\n0.9 pos | b\n"
            "0.2 pos | !a=1\n0.4 pos | a=0\n0.3 pos\n0.1 pos | !b"
        )
        constant, probs, rest = decoded_presolve(kb, {"a": "1"})
        assert constant == 0.0
        assert sorted(probs) == [0.2, 0.3, 0.4]
        assert [str(wc.clause) for wc in rest] == ["pos | b"] * 3 + ["pos | !b"]
        assert [float(wc.probability) for wc in rest[:3]] == [0.6, 0.7, 0.9]
        self.assert_same_answer(kb, {"a": "1"})

    def test_decided_target_is_unconstrained(self):
        # every clause mentioning the target is decided by the query: [0, 1]
        # with the constant as v*, and with the residual's stage-1 v* added
        kb = parse_kb("0.7 pos | !a=0\n0.6 pos | a=1")
        res = self.assert_same_answer(kb, {"a": "1"})
        assert (res.p_lower, res.p_upper) == (0.0, 1.0)
        assert res.objective_min == pytest.approx(0.3 + 0.4, abs=1e-12)
        kb = parse_kb("0.7 pos | !a=0\n0.9 b\n0.2 !b")
        res = self.assert_same_answer(kb, {"a": "1"})
        assert (res.p_lower, res.p_upper) == (0.0, 1.0)
        assert res.objective_min == pytest.approx(0.3 + 0.1, abs=1e-6)

    def test_rule_body_repeating_a_feature_is_not_a_row(self):
        # pos | !t=0 | !t=1 is no rule: it joins ``others``, and the rows
        # and the presolve never meet a body that repeats a feature
        ds = from_rows(["t", "u"], [(("0", "1"), True), (("1", "0"), False), (("0", "0"), True)])
        clause = Clause([Literal(POS), Literal(Atom("t", "0"), True), Literal(Atom("t", "1"), True)])
        kb = merge(build_direct_kb(ds), [WeightedClause(0.5, clause)])
        assert kb.others == (WeightedClause(0.5, clause),)
        assert all(len(dict(key)) == len(key) for key in tuple_counts(kb))
        for query in ({}, {"u": "1"}):
            self.assert_same_answer(kb, query)

    @staticmethod
    def forbid_lp(monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the presolved query reached the LP")

        monkeypatch.setattr(lp_module, "build_lp", no_lp)

    def test_full_queries_on_a_mixed_tree_kb_take_no_lp(self, strings_tree_kb, monkeypatch):
        # a tree merged with a clause that is not rule-shaped: the whole KB
        # reaches infer_pos, and the presolve still leaves only ``pos``
        kb = merge(strings_tree_kb, list(parse_kb("0.7 pos | a1=1 | a2=0").clauses))
        queries = [query_from_string(f"{bits:04b}") for bits in range(16)]
        expected = [self.assert_same_answer(kb, q) for q in queries]
        self.forbid_lp(monkeypatch)
        assert [infer_pos(kb, q) for q in queries] == expected

    def test_direct_table_full_query_builds_no_clause_list(self, strings_ds, monkeypatch):
        table = build_direct_kb(strings_ds)
        query = query_from_string("0101")
        self.forbid_lp(monkeypatch)
        res = infer_pos(table, query)
        assert "clauses" not in table.__dict__
        monkeypatch.undo()
        assert res == self.assert_same_answer(table, query)


class TestCodedRules:
    """No rule clause object is built on the way to a program: the KB's
    cached ``clauses`` stay unread, and no rule is decoded into a clause
    (``Clause._trusted`` builds every decoded rule)."""

    @staticmethod
    def forbid_rule_clauses(monkeypatch):
        def no_rule(cls, ordered):
            raise AssertionError(f"a rule clause was built: {ordered}")

        monkeypatch.setattr(Clause, "_trusted", classmethod(no_rule))

    def test_half_masked_query_reaches_highs_without_rule_clauses(
        self, strings_tree_kb, monkeypatch
    ):
        kb = merge(strings_tree_kb, list(parse_kb("0.7 pos | a1=1 | a2=0").clauses))
        query = {"a3": "0", "a4": "0"}  # four rules and the merged clause stay
        solves = []
        solve = lp_module._bounded_target
        monkeypatch.setattr(lp_module, "_bounded_target",
                            lambda lp, target: solves.append(lp) or solve(lp, target))
        self.forbid_rule_clauses(monkeypatch)
        res = infer_pos(kb, query)
        assert len(solves) == 1 and solves[0].n_variables - len(solves[0].atom_index) == 5
        assert "clauses" not in vars(kb)
        monkeypatch.undo()
        TestPresolve.assert_same_answer(kb, query, fast=res)

    def test_consistency_check_builds_no_rule_clause(self, strings_ds, monkeypatch):
        kb = build_direct_kb(strings_ds)
        self.forbid_rule_clauses(monkeypatch)
        hint, v_star = check_consistency(kb)
        assert "clauses" not in vars(kb)
        monkeypatch.undo()
        assert (hint, v_star) == check_consistency(KnowledgeBase(kb.clauses))


class TestProjection:
    """The program against the paper's layout with pi(c_i) variables
    (``helpers.reference_program``): same v*, bounds and label."""

    @staticmethod
    def assert_matches_reference(kb, query, target=POS):
        ref = reference_infer(kb, query, target)
        for res in (infer_pos(kb, query, target=target), unpresolved_infer(kb, query, target)):
            assert res.label == ref.label
            assert res.p_lower == pytest.approx(ref.p_lower, abs=1e-6)
            assert res.p_upper == pytest.approx(ref.p_upper, abs=1e-6)
            assert res.objective_min == pytest.approx(ref.objective_min, abs=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(mixed_kbs_and_queries())
    @example(PRESOLVE_TRAP)
    def test_matches_the_reference_program(self, case):
        kb, query, target = case
        if target in kb.universe or len(kb) == 0:
            self.assert_matches_reference(kb, query, target)

    def test_matches_on_random_and_bench_kbs(self):
        # arbitrary probabilities, so mostly inconsistent KBs, and one
        # bench-lp KB with clauses of up to 10 literals
        rng = random.Random(7)
        kbs = [arbitrary_random_kb(rng, rng.randint(1, 8), rng.randint(1, 12))[0]
               for _ in range(20)]
        kbs.append(random_bench_kb(40, 80, 0))
        for kb in kbs:
            target = sorted(kb.universe, key=str)[0]
            self.assert_matches_reference(kb, {}, target)
            v_star = reference_infer(kb, {}, target).objective_min
            assert check_consistency(kb)[1] == pytest.approx(v_star, abs=1e-6)


class TestMedianInterval:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_interval_minimises_total_deviation(self, probs):
        v_star, lo, hi = _median_interval(probs)

        def f(p):
            return sum(abs(p - q) for q in probs)

        assert 0.0 <= lo <= hi <= 1.0
        assert f(lo) == pytest.approx(v_star, abs=1e-9)
        assert f(hi) == pytest.approx(v_star, abs=1e-9)
        for p in list(probs) + [0.0, 1.0, (lo + hi) / 2]:
            assert f(p) >= v_star - 1e-9


class TestConsistency:
    def test_pairwise_disjunctions_relax_to_zero(self):
        hint, obj = check_consistency(parse_kb(PAIRWISE_KB_TEXT))
        assert hint is True
        assert obj == pytest.approx(0.0, abs=1e-6)

    def test_contradictory_query_units_are_detected(self, strings_tree_kb):
        merged = KnowledgeBase(
            list(strings_tree_kb.clauses) + query_unit_clauses("0000")
        )
        hint, obj = check_consistency(merged)
        assert hint is False
        assert obj > 1e-4

    def test_consistent_kb(self, implication_kb):
        hint, obj = check_consistency(implication_kb)
        assert hint is True
        assert obj <= 1e-6

    def test_empty_kb(self):
        assert check_consistency(KnowledgeBase()) == (True, 0.0)


class TestNilssonOracle:
    def test_implication_kb_bounds(self, implication_kb):
        feasible, lo, hi = nilsson_oracle(implication_kb, Atom("b"))
        assert feasible
        assert lo == pytest.approx(0.4, abs=1e-9)
        assert hi == pytest.approx(0.6, abs=1e-9)

    def test_unit_class_clause(self):
        feasible, lo, hi = nilsson_oracle(parse_kb("1.0 pos"), POS)
        assert feasible
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_contradictory_query_units_infeasible(self, strings_tree_kb):
        merged = KnowledgeBase(
            list(strings_tree_kb.clauses) + query_unit_clauses("0000")
        )
        feasible, _, _ = nilsson_oracle(merged, POS)
        assert not feasible

    def test_pairwise_disjunction_kb_is_satisfiable(self):
        feasible, _, _ = nilsson_oracle(parse_kb(PAIRWISE_KB_TEXT), Atom("a"))
        assert feasible

    def test_atom_cap(self):
        clauses = [
            WeightedClause(0.5, rule_clause([(f"f{i}", "1")])) for i in range(17)
        ]
        kb = KnowledgeBase(clauses)
        with pytest.raises(ValueError, match="cap"):
            nilsson_oracle(kb, POS)

    def test_infeasibility_matches_positive_deviation(self):
        # whenever the relaxation cannot reach zero, no world distribution exists
        rng = random.Random(31)
        checked = 0
        for _ in range(50):
            kb, atoms = arbitrary_random_kb(rng, rng.randint(2, 8), rng.randint(2, 8))
            _, obj = check_consistency(kb)
            if obj > 1e-4:
                feasible, _, _ = nilsson_oracle(kb, sorted(kb.universe, key=str)[0])
                assert not feasible
                checked += 1
        assert checked >= 5  # the generator must actually produce conflicts

    def test_relaxation_contains_exact_bounds(self):
        rng = random.Random(41)
        for _ in range(50):
            kb, atoms = satisfiable_random_kb(rng, rng.randint(2, 8), rng.randint(1, 6))
            target = rng.choice(sorted(kb.universe, key=str))
            feasible, lo, hi = nilsson_oracle(kb, target)
            assert feasible
            res = infer_pos(kb, target=target)
            assert res.p_lower <= lo + 1e-6
            assert res.p_upper >= hi - 1e-6


class TestDump:
    def test_sections_present(self, implication_kb):
        text = dump_lp(build_lp(implication_kb))
        for token in ("Minimize", "Subject To", "Bounds", "End"):
            assert token in text
        assert "\\ x0 = a" in text
        assert "\\ x2 = d0" in text
        rows = text.split("Subject To\n")[1].split("\nBounds")[0].splitlines()
        assert len(rows) == 5 and all(" <= " in row for row in rows)
        # c1 = a at 0.8: d1 + a >= 0.8
        assert rows[3] == " r3: - 1 x3 - 1 x0 <= -0.8"
