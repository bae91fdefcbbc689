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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CODED_FEATURES as FEATURES,
    CODED_VALUES as VALUES,
    captured_program,
    coded_kbs,
    decoded_presolve,
    mixed_coded_kbs,
    reference_build_lp,
    reference_presolve,
    reference_select,
    reference_serialize,
    rule_texts_with_other_lines,
    tuple_counts,
    without_box_satisfied_rows,
)

from plkb.data import from_rows
from plkb.direct import active_kb, build_direct_kb, relevant_kb, subset_codes
from plkb.kb import (
    POS,
    AtomBits,
    Clause,
    KnowledgeBase,
    Literal,
    WeightedClause,
    bit_positions,
    merge,
    parse_kb,
    rule_clause,
    serialize_kb,
)
from plkb.lp import build_lp
from plkb.tree import build_id3, kb_from_tree

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
    A direct table lists parents first; these KBs do not, so some of their
    rows have no parent text yet and are decoded through
    :func:`bit_positions` instead.  Each KB is written as
    ``reference_serialize`` writes its clause objects and parses back to
    itself."""

    @staticmethod
    def assert_written_as_reference(kb):
        text = serialize_kb(kb)
        assert text == reference_serialize(kb.clauses)
        assert parse_kb(text) == kb
        assert serialize_kb(parse_kb(text)) == text

    @staticmethod
    def rows_without_a_parent_text(kb):
        """How many rows have no parent text when they are written: the
        body-less rule, and each row whose parent is neither the body-less
        rule nor an earlier row.  :func:`serialize_kb` decodes each of them
        whole."""
        written, decoded = {()}, 0
        for code in kb.counts:
            pairs = sorted(kb.atoms[i] for i in bit_positions(code))
            decoded += not pairs or tuple(pairs[:-1]) not in written
            written.add(tuple(pairs))
        return decoded

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

    def test_tree_all_nodes(self):
        rng = random.Random(7)
        rows = []
        for _ in range(60):
            values = tuple(rng.choice(VALUES) for _ in FEATURES)
            rows.append((values, values[9] == values[0] or values[4] == "1"))
        kb = kb_from_tree(build_id3(from_rows(FEATURES, rows)), "all_nodes")
        # a path meets its pairs in split order, not in pair order
        assert self.rows_without_a_parent_text(kb) >= 3
        self.assert_written_as_reference(kb)

    def test_direct_table_merged_with_a_new_pair(self):
        rng = random.Random(11)
        rows = [(tuple(rng.choice(VALUES) for _ in FEATURES[:4]), rng.random() < 0.5)
                for _ in range(12)]
        kb = build_direct_kb(from_rows(FEATURES[:4], rows), max_arity=2)
        assert self.rows_without_a_parent_text(kb) == 0
        # a1=7 is numbered last, and the rule's parent in pair order is
        # a1=7 alone, which no row holds
        rule = rule_clause([("a1", "7"), ("a2", rows[0][0][1])])
        merged = merge(kb, [WeightedClause(Fraction(9, 10), rule)])
        assert merged.atoms[-1] == ("a1", "7")
        assert self.rows_without_a_parent_text(merged) == 1
        self.assert_written_as_reference(merged)

    def test_wide_table(self):
        features = [f"f{i}" for i in range(100)]
        kb = build_direct_kb(from_rows(features, [(("0",) * 100, True), (("1",) * 100, False)]),
                             max_arity=2)
        assert len(kb.atoms) == 200
        self.assert_written_as_reference(kb)

    def test_body_longer_than_the_recursion_limit(self):
        pairs = sorted((f"f{i}", "1") for i in range(1500))
        assert len(pairs) > sys.getrecursionlimit()
        # the long body's parent has no text, so it is decoded whole, with no
        # recursion and no walk down its parents
        kb = KnowledgeBase([WeightedClause(Fraction(1, 3), rule_clause(pairs[:750])),
                            WeightedClause(Fraction(2, 3), rule_clause(pairs))])
        self.assert_written_as_reference(kb)
        self.assert_written_as_reference(KnowledgeBase(counts={max(kb.counts): (3, 2)},
                                                       bits=kb.bits))


class TestCodedProgram:
    """The program built from rule codes against ``reference_build_lp``
    over the decoded clauses, less the rows its bounds alone satisfy
    (``without_box_satisfied_rows``): the same columns, rows, right-hand
    sides, bounds, names and ``atom_index``."""

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
            assert program == without_box_satisfied_rows(reference_build_lp(
                [*(WeightedClause(p, unit) for p in probs), *rest]))
        if len(kb):
            program = build_lp(kb)
            assert "clauses" not in vars(kb)
            assert program == without_box_satisfied_rows(reference_build_lp(kb.clauses))
            # every rule passed as a clause object gives the program of its code
            assert build_lp(kb.clauses) == program

    def test_residual_without_rules_has_no_pos_column(self):
        # the rule is pinned true by a=1: only the clauses of others remain
        kb = parse_kb("0.7 pos | !a=0\n0.9 b\n0.2 !b | c=1")
        program = captured_program(kb, {"a": "1"})
        assert program.variables == ("b", "c=1", "d0", "d1")
        assert program == without_box_satisfied_rows(reference_build_lp(kb.others))


class TestSubsetCodes:
    @pytest.mark.parametrize("n", range(7))
    def test_every_subset_once(self, n):
        bits = [1 << (3 * i + 1) for i in range(n)]
        for most in range(n + 2):
            codes = subset_codes(bits, most)
            expected = [sum(c) for k in range(min(most, n) + 1) for c in combinations(bits, k)]
            assert codes[0] == 0
            assert sorted(codes) == sorted(expected)


class TestBitPositions:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**1600))
    def test_positions_rebuild_the_code(self, code):
        positions = list(bit_positions(code))
        assert all(a < b for a, b in zip(positions, positions[1:]))
        assert sum(1 << i for i in positions) == code
        assert len(positions) == code.bit_count()


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

    def test_add_numbers_each_pair_once(self):
        bits = AtomBits([("a1", "0")])
        assert [bits.add(p) for p in [("a2", "1"), ("a1", "0"), ("a3", "2")]] == [2, 1, 4]
        assert bits.atoms == [("a1", "0"), ("a2", "1"), ("a3", "2")]
        assert dict(bits) == {("a1", "0"): 1, ("a2", "1"): 2, ("a3", "2"): 4}

    @settings(max_examples=200, deadline=None)
    @given(rule_texts_with_other_lines())
    def test_lines_that_are_not_rules_number_no_pair(self, texts):
        rules, text = texts
        kb, alone = parse_kb(text), parse_kb(rules)
        assert list(kb.counts.items()) == list(alone.counts.items())
        assert kb.atoms == alone.atoms and dict(kb.bits) == dict(alone.bits)

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
