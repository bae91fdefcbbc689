"""Rule bodies coded as atom bitmasks, against the tuple-keyed and
clause-object code they replaced (``helpers.reference_select``,
``reference_presolve``, ``reference_build_lp`` and
``reference_serialize``): the same selected rows, the same presolve, the
same program and the same model text, byte for byte.

Features are drawn from a1..a10, where the order of the literal text
("!a10=1" < "!a1=0") differs from the order of the pairs
(("a1", "0") < ("a10", "1")).
"""

import random
import sys
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plkb.lp as lp_module
from helpers import (
    decoded_presolve,
    reference_build_lp,
    reference_presolve,
    reference_select,
    reference_serialize,
    tuple_counts,
)

from plkb.data import from_rows
from plkb.direct import active_kb, build_direct_kb, relevant_kb, subset_codes
from plkb.kb import (
    POS,
    Atom,
    AtomBits,
    Clause,
    KnowledgeBase,
    Literal,
    WeightedClause,
    merge,
    parse_kb,
    rule_clause,
    serialize_kb,
)
from plkb.lp import build_lp, infer_pos
from plkb.tree import build_id3, kb_from_tree

FEATURES = [f"a{i}" for i in range(1, 11)]
VALUES = ["0", "1", "2"]
_prob = st.integers(0, 8).map(lambda n: Fraction(n, 8))


@st.composite
def _parsed_kb(draw, features):
    """A parsed model: rule lines with their literals in any order, so atoms
    arrive out of sorted order, and now and then a clause that is not a
    rule."""
    bodies = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(features), st.sampled_from(VALUES)),
                 max_size=len(features), unique_by=lambda pair: pair[0]),
        max_size=10, unique_by=frozenset,
    ))
    lines = []
    for body in bodies:
        lits = draw(st.permutations(["pos", *(f"!{f}={v}" for f, v in body)]))
        lines.append(f"{draw(_prob)} {' | '.join(lits)}")
    if draw(st.booleans()):
        lines.append(f"0.6 pos | {draw(st.sampled_from(features))}=1")
    return parse_kb("\n".join(draw(st.permutations(lines))))


@st.composite
def coded_kbs(draw):
    """A KB of every kind that fills ``counts`` (a direct table with and
    without ``max_arity``, a tree KB of either mode, a parsed model),
    perhaps merged with rules over new pairs, and queries over a1..a10
    whose values the KB may never have seen."""
    features = draw(st.lists(st.sampled_from(FEATURES), min_size=1, max_size=5, unique=True))
    kind = draw(st.sampled_from(["direct", "tree", "tree-all", "parsed"]))
    if kind == "parsed":
        kb = draw(_parsed_kb(features))
    else:
        value = st.sampled_from(VALUES)
        rows = draw(st.lists(st.tuples(st.tuples(*[value] * len(features)), st.booleans()),
                             min_size=1, max_size=12))
        ds = from_rows(features, rows)
        if kind == "direct":
            kb = build_direct_kb(ds, draw(st.none() | st.integers(1, len(features))))
        else:
            kb = kb_from_tree(build_id3(ds), "leaves" if kind == "tree" else "all_nodes")
    if draw(st.booleans()):
        # "7" is a value no builder saw, and any of a1..a10 may be a new feature
        pair = st.tuples(st.sampled_from(FEATURES), st.sampled_from([*VALUES, "7"]))
        bodies = draw(st.lists(st.lists(pair, max_size=3, unique_by=lambda p: p[0]),
                               min_size=1, max_size=3))
        extra = [WeightedClause(draw(_prob), rule_clause(body)) for body in bodies]
        if draw(st.booleans()):
            atom = Atom(draw(st.sampled_from(FEATURES)), "1")
            extra.append(WeightedClause(0.6, Clause([Literal(POS), Literal(atom)])))
        kb = merge(kb, extra)
    query_value = st.none() | st.sampled_from([*VALUES, "7", "9"])
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = draw(st.tuples(*[query_value] * len(FEATURES)))
        queries.append({f: v for f, v in zip(FEATURES, drawn) if v is not None})
    return kb, queries


class TestAgainstTupleKeys:
    @settings(max_examples=300, deadline=None)
    @given(coded_kbs())
    def test_selection_presolve_and_text_match(self, case):
        kb, queries = case
        rows = tuple_counts(kb)
        assert len(rows) == len(kb.counts)  # distinct codes, distinct bodies
        assert all(len(dict(body)) == len(body) for body in rows)
        text = serialize_kb(kb)
        assert text == reference_serialize(kb.clauses)
        assert serialize_kb(parse_kb(text)) == text
        for query in queries:
            selected = relevant_kb(query, kb)
            assert selected.bits is kb.bits
            assert tuple_counts(selected) == reference_select(query, kb)
            assert decoded_presolve(kb, query) == reference_presolve(kb, query)
            if not kb.others:
                assert active_kb(query, kb).counts == selected.counts

    def test_literal_text_order_differs_from_pair_order(self):
        # numbered on first sight: b=1, a10=1, a1=0, a2=0
        kb = parse_kb("0.5 pos | !b=1\n0.25 pos | !a10=1 | !a1=0\n0.75 pos | !a2=0 | !a10=1")
        assert kb.atoms == [("b", "1"), ("a10", "1"), ("a1", "0"), ("a2", "0")]
        assert kb.counts == {0b1: (2, 1), 0b110: (4, 1), 0b1010: (4, 3)}
        assert serialize_kb(kb) == (
            "3/4 pos | !a10=1 | !a2=0\n"
            "1/4 pos | !a1=0 | !a10=1\n"
            "1/2 pos | !b=1"
        )
        assert serialize_kb(kb) == reference_serialize(kb.clauses)


class TestRuleTextWalk:
    """:func:`serialize_kb` writes a rule as its parent's text plus one
    literal, the parent being the body less its last pair in pair order.
    A direct table lists parents first; these KBs do not, and each is
    written as ``reference_serialize`` writes its clause objects and parses
    back to itself."""

    @staticmethod
    def assert_written_as_reference(kb):
        text = serialize_kb(kb)
        assert text == reference_serialize(kb.clauses)
        assert parse_kb(text) == kb
        assert serialize_kb(parse_kb(text)) == text

    def test_rows_that_arrive_children_first(self):
        rng = random.Random(3)
        rows = [(tuple(rng.choice(VALUES) for _ in FEATURES), rng.random() < 0.5)
                for _ in range(8)]
        kb = build_direct_kb(from_rows(FEATURES, rows), max_arity=3)
        self.assert_written_as_reference(
            KnowledgeBase(counts=dict(reversed(kb.counts.items())), bits=kb.bits))
        self.assert_written_as_reference(parse_kb(
            "0.5 pos | !a2=1 | !a10=0 | !a1=2\n0.25 pos | !a10=0 | !a1=2\n1 pos\n0 pos | !a1=2"))

    def test_tree_leaves_lack_their_parents(self):
        rng = random.Random(5)
        rows = []
        for _ in range(60):
            values = tuple(rng.choice(VALUES) for _ in FEATURES[:4])
            rows.append((values, values[0] == values[1] or values[2] == "2"))
        kb = kb_from_tree(build_id3(from_rows(FEATURES[:4], rows)), "leaves")
        assert kb.arity >= 2
        # no leaf's body lies inside another's, so no row's parent is a row
        assert all(a & ~b for a in kb.counts for b in kb.counts if a != b)
        self.assert_written_as_reference(kb)

    def test_wide_table(self):
        features = [f"f{i}" for i in range(100)]
        kb = build_direct_kb(from_rows(features, [(("0",) * 100, True), (("1",) * 100, False)]),
                             max_arity=2)
        assert len(kb.atoms) == 200
        self.assert_written_as_reference(kb)

    def test_body_longer_than_the_recursion_limit(self):
        pairs = sorted((f"f{i}", "1") for i in range(1500))
        assert len(pairs) > sys.getrecursionlimit()
        # the long body walks down its parents to the first half, written before it
        kb = KnowledgeBase([WeightedClause(Fraction(1, 3), rule_clause(pairs[:750])),
                            WeightedClause(Fraction(2, 3), rule_clause(pairs))])
        self.assert_written_as_reference(kb)
        self.assert_written_as_reference(KnowledgeBase(counts={max(kb.counts): (3, 2)},
                                                       bits=kb.bits))


# Atoms a clause of ``others`` may hold besides pos: bare atoms, and
# feature-value atoms a literal may assert.
_OTHER_ATOMS = [POS, Atom("b"), Atom("c"), *(Atom(f, v) for f in FEATURES[:3] for v in VALUES)]


@st.composite
def mixed_coded_kbs(draw):
    """:func:`coded_kbs` with clauses in ``others`` that hold bare atoms
    and positive feature-value literals."""
    kb, queries = draw(coded_kbs())
    literal = st.builds(Literal, st.sampled_from(_OTHER_ATOMS), st.booleans())
    clause = st.lists(literal, min_size=1, max_size=4, unique_by=lambda lit: lit.atom).map(
        Clause).filter(lambda c: not c.is_rule_shaped)
    others = {wc.clause: wc for wc in kb.others}
    for c in draw(st.lists(clause, max_size=3)):
        others.setdefault(c, WeightedClause(draw(_prob), c))
    return KnowledgeBase(others.values(), kb.counts, kb.bits), queries


def captured_program(kb, query):
    """The program :func:`infer_pos` builds for ``query``, or None when it
    answers in closed form; the program is not solved."""
    built = []

    def capture(*args, **kwargs):
        built.append(build_lp(*args, **kwargs))
        return built[-1]

    with patch.object(lp_module, "build_lp", capture), \
            patch.object(lp_module, "_bounded_target", lambda lp, target: (0.0, 0.0, 1.0)):
        infer_pos(kb, query)
    assert len(built) <= 1
    return built[0] if built else None


class TestCodedProgram:
    """The program built from rule codes against ``reference_build_lp``
    over the decoded clauses: the same columns, rows, right-hand sides,
    bounds, names and ``atom_index``."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_coded_kbs())
    def test_coded_program_is_the_clause_program(self, case):
        kb, queries = case
        unit = Clause([Literal(POS)])
        for query in queries:
            if not kb.counts and POS not in kb.universe:
                break  # infer_pos refuses a KB that never mentions pos
            constant, probs, rest = decoded_presolve(kb, query)
            program = captured_program(kb, query)
            if not rest:
                assert program is None
                continue
            assert program == reference_build_lp(
                [*(WeightedClause(p, unit) for p in probs), *rest])
        if len(kb):
            program = build_lp(kb)
            assert "clauses" not in vars(kb)
            assert program == reference_build_lp(kb.clauses)

    def test_residual_without_rules_has_no_pos_column(self):
        # the rule is pinned true by a=1: only the clauses of others remain
        kb = parse_kb("0.7 pos | !a=0\n0.9 b\n0.2 !b | c=1")
        program = captured_program(kb, {"a": "1"})
        assert program.variables == ("b", "c=1", "d0", "d1")
        assert program == reference_build_lp(kb.others)


class TestSubsetCodes:
    @pytest.mark.parametrize("n", range(7))
    def test_every_subset_once(self, n):
        bits = [1 << (3 * i + 1) for i in range(n)]
        for most in range(n + 2):
            codes = subset_codes(bits, most)
            expected = [sum(c) for k in range(min(most, n) + 1) for c in combinations(bits, k)]
            assert codes[0] == 0
            assert sorted(codes) == sorted(expected)


class TestAtomTable:
    def test_sub_kbs_share_the_table(self):
        kb = build_direct_kb(from_rows(["a1", "a10"], [(("0", "1"), True), (("1", "1"), False)]))
        assert kb.atoms == [("a1", "0"), ("a10", "1"), ("a1", "1")]
        sub = relevant_kb({"a1": "0", "a10": "1", "a2": "5"}, kb)
        assert sub.bits is kb.bits
        assert tuple_counts(sub) == {(("a1", "0"),): (1, 1), (("a10", "1"),): (2, 1),
                                     (("a1", "0"), ("a10", "1")): (1, 1)}

    def test_unseen_pair_matches_no_row(self):
        kb = parse_kb("0.5 pos\n0.25 pos | !a1=0")
        assert tuple_counts(relevant_kb({"a1": "7"}, kb)) == {(): (2, 1)}
        assert decoded_presolve(kb, {"a1": "7"}) == (0.75, [0.5], [])

    def test_lookup_of_an_absent_pair_numbers_nothing(self):
        kb = parse_kb("0.5 pos | !a1=0")
        with pytest.raises(KeyError):
            kb.bits["a1", "7"]
        assert kb.bits.get(("a1", "7")) is None
        assert kb.atoms == [("a1", "0")] and dict(kb.bits) == {("a1", "0"): 1}

    def test_add_numbers_once_and_truncate_forgets(self):
        bits = AtomBits([("a1", "0")])
        assert [bits.add(p) for p in [("a2", "1"), ("a1", "0"), ("a3", "2")]] == [2, 1, 4]
        bits.truncate(1)
        assert bits.atoms == [("a1", "0")] and dict(bits) == {("a1", "0"): 1}
        assert bits.add(("a3", "2")) == 2  # the next pair takes bit 1 again
        assert bits.atoms == [("a1", "0"), ("a3", "2")]

    def test_merge_extends_a_copy_of_the_table(self):
        kb = parse_kb("0.5 pos | !a1=0")
        extra = [WeightedClause(Fraction(9, 10), rule_clause([("a1", "7"), ("a10", "1")]))]
        merged = merge(kb, extra)
        assert kb.atoms == [("a1", "0")]
        assert merged.atoms == [("a1", "0"), ("a1", "7"), ("a10", "1")]
        assert merged.counts == {0b1: (2, 1), 0b110: (10, 9)}
        assert serialize_kb(merged) == "1/2 pos | !a1=0\n9/10 pos | !a1=7 | !a10=1"

    def test_wide_tables_code_past_63_atoms(self):
        features = [f"f{i}" for i in range(100)]
        kb = build_direct_kb(from_rows(features, [(("0",) * 100, True), (("1",) * 100, False)]),
                             max_arity=2)
        assert len(kb.atoms) == 200 and max(kb.counts).bit_length() == 200
        query = {f: "1" for f in features[-3:]}
        assert tuple_counts(relevant_kb(query, kb)) == reference_select(query, kb)
        assert KnowledgeBase(kb.clauses) == kb
