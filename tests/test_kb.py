import dataclasses
import gc
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dataset, reference_parse, reference_serialize, tuple_counts

import plkb.kb as kb_module
from plkb.data import from_rows
from plkb.direct import build_direct_kb
from plkb.kb import (
    POS,
    Atom,
    Clause,
    KBParseError,
    KnowledgeBase,
    Literal,
    WeightedClause,
    merge,
    parse_kb,
    rule_clause,
    serialize_kb,
)
from plkb.tree import build_id3, kb_from_tree


class TestAtom:
    def test_class_atom(self):
        assert POS.is_class_atom
        assert str(POS) == "pos"

    def test_feature_value(self):
        a = Atom("a4", "1")
        assert str(a) == "a4=1"
        assert not a.is_class_atom

    def test_bare_proposition(self):
        assert str(Atom("alpha")) == "alpha"

    @pytest.mark.parametrize("bad", ["", "a b", "a=b", "a|b", "a!b", "a,b", "a#b"])
    def test_rejects_unsafe_names(self, bad):
        with pytest.raises(ValueError):
            Atom(bad)

    def test_pos_cannot_be_a_feature(self):
        with pytest.raises(ValueError):
            Atom("pos", "1")


class TestFrozen:
    """Assigning a field raises, so a hash can never go stale in a dict."""

    def test_atom(self):
        a = Atom("a", "1")
        index = {a: 1}
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.value = "2"
        assert a == Atom("a", "1") and Atom("a", "1") in index

    def test_literal(self):
        lit = Literal(Atom("a", "1"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            lit.negated = True
        assert not lit.negated

    def test_clause(self):
        c = rule_clause([("a", "1")])
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.literals = (Literal(POS),)
        assert str(c) == "pos | !a=1"

    def test_hashes_are_the_field_tuples(self):
        a = Atom("a", "1")
        lit = Literal(a, True)
        assert hash(a) == hash(("a", "1"))
        assert hash(lit) == hash((a, True))
        assert hash(rule_clause([("a", "1")])) == hash((Literal(POS), lit))


class TestClause:
    def test_canonical_order_puts_class_atom_first(self):
        c = Clause(
            [
                Literal(Atom("a2", "1"), True),
                Literal(POS),
                Literal(Atom("a1", "0"), True),
            ]
        )
        assert str(c) == "pos | !a1=0 | !a2=1"

    def test_equality_is_order_insensitive(self):
        lits = [Literal(POS), Literal(Atom("a1", "0"), True)]
        assert Clause(lits) == Clause(reversed(lits))
        assert hash(Clause(lits)) == hash(Clause(reversed(lits)))

    def test_duplicate_literals_collapse(self):
        c = Clause([Literal(POS), Literal(POS)])
        assert len(c.literals) == 1

    def test_complementary_pair_rejected(self):
        with pytest.raises(ValueError, match="both"):
            Clause([Literal(POS), Literal(POS, True)])

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            Clause([])

    def test_rule_clause_shape(self):
        c = rule_clause([("a2", "1"), ("a1", "0")])
        assert c.is_rule_shaped
        assert c.body == {("a1", "0"), ("a2", "1")}
        assert str(c) == "pos | !a1=0 | !a2=1"

    def test_rule_clause_rejects_repeated_feature(self):
        with pytest.raises(ValueError, match="repeats"):
            rule_clause([("a1", "0"), ("a1", "1")])

    def test_non_rule_shapes(self):
        assert not Clause([Literal(Atom("a"), True)]).is_rule_shaped
        assert not Clause([Literal(POS), Literal(Atom("a1", "0"))]).is_rule_shaped
        assert Clause([Literal(POS)]).is_rule_shaped
        assert not parse_kb("0.5 !pos | !a=1").clauses[0].clause.is_rule_shaped
        assert not parse_kb("0.5 pos | !b").clauses[0].clause.is_rule_shaped
        fresh = Clause([Literal(Atom("b", "2"), True), Literal(Atom("pos")),
                        Literal(Atom("a", "1"), True)])
        assert fresh.is_rule_shaped
        assert fresh == rule_clause([("a", "1"), ("b", "2")])
        repeated = Clause([Literal(POS), Literal(Atom("t", "0"), True),
                           Literal(Atom("t", "1"), True)])
        assert not repeated.is_rule_shaped


class TestWeightedClause:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            WeightedClause(1.5, Clause([Literal(POS)]))
        with pytest.raises(ValueError):
            WeightedClause(-0.1, Clause([Literal(POS)]))

    def test_fraction_probability(self):
        wc = WeightedClause(Fraction(1, 3), Clause([Literal(POS)]))
        assert str(wc) == "0.333333 pos"


class TestParse:
    def test_single_line(self):
        kb = parse_kb("1.0 pos | !a4=1")
        assert len(kb) == 1
        wc = kb.clauses[0]
        assert wc.probability == 1
        assert wc.clause == rule_clause([("a4", "1")])

    def test_empty_text(self):
        assert len(parse_kb("")) == 0

    def test_comments_and_blanks(self):
        kb = parse_kb("# heading\n\n0.5 pos | !a=1  # trailing\n")
        assert len(kb) == 1
        assert kb.clauses[0].probability == Fraction(1, 2)

    def test_probabilities_parse_as_exact_decimals(self):
        kb = parse_kb("0.333333 pos")
        assert kb.clauses[0].probability == Fraction(333333, 1000000)

    def test_bare_atoms(self):
        kb = parse_kb("0.600000 !a | b\n0.800000 a")
        assert len(kb) == 2
        assert {str(wc.clause) for wc in kb} == {"!a | b", "a"}

    def test_syntax_error_reports_line(self):
        with pytest.raises(KBParseError, match="line 2"):
            parse_kb("1.0 pos\nnonsense")

    def test_probability_out_of_range(self):
        with pytest.raises(KBParseError, match="outside"):
            parse_kb("1.5 pos")

    def test_duplicate_clause_conflicting_probability(self):
        with pytest.raises(KBParseError, match="already given"):
            parse_kb("0.3 pos | !a=1\n0.4 !a=1 | pos")

    def test_duplicate_clause_same_probability_collapses(self):
        kb = parse_kb("0.3 pos | !a=1\n0.3 !a=1 | pos")
        assert len(kb) == 1

    def test_empty_literal_rejected(self):
        with pytest.raises(KBParseError, match="empty literal"):
            parse_kb("0.3 pos | ")


class TestSerialize:
    def test_empty(self):
        assert serialize_kb(KnowledgeBase()) == ""

    def test_two_clause_golden(self):
        kb = parse_kb("0.8 a\n0.6 !a | b")
        assert serialize_kb(kb) == "3/5 !a | b\n4/5 a"

    def test_exact_probability_text(self):
        kb = KnowledgeBase([WeightedClause(Fraction(1, 3), Clause([Literal(POS)]))])
        assert serialize_kb(kb) == "1/3 pos"

    def test_parse_serialize_identity_on_canonical(self):
        text = "3/5 !a | b\n4/5 a"
        assert serialize_kb(parse_kb(text)) == text


_atom_names = st.sampled_from(["a1", "a2", "b", "c", "dd"])
_values = st.one_of(st.none(), st.sampled_from(["0", "1", "2"]))


@st.composite
def kb_texts(draw):
    n = draw(st.integers(0, 8))
    lines = []
    for _ in range(n):
        n_lits = draw(st.integers(1, 4))
        lits = []
        seen = set()
        for _ in range(n_lits):
            name = draw(_atom_names)
            value = draw(_values)
            if name == "pos":
                value = None
            if (name, value) in seen:
                continue
            seen.add((name, value))
            neg = draw(st.booleans())
            atom = name if value is None else f"{name}={value}"
            lits.append(("!" if neg else "") + atom)
        if not lits:
            continue
        prob = draw(st.integers(0, 1000000)) / 1000000
        lines.append(f"{prob:.6f} " + " | ".join(lits))
    return "\n".join(lines)


_rule_features = st.sampled_from(["a1", "a2", "b", "c", "dd"])
_rule_values = st.sampled_from(["0", "1", "2", "x"])
_probability_texts = st.one_of(
    st.integers(0, 1000000).map(lambda n: f"{n / 1000000:.6f}"),
    st.sampled_from(["0", "1", "1.0", "0.5", ".25", "1/3", "2/7"]),
)


@st.composite
def rule_texts(draw):
    """Texts of rule clauses only: literals in any order (``pos`` in any
    position), loose spacing, repeated lines, comments and blank lines."""
    bodies = draw(st.lists(
        st.lists(st.tuples(_rule_features, _rule_values), max_size=4,
                 unique_by=lambda pair: pair[0]),
        max_size=6, unique_by=frozenset,
    ))
    lines = []
    for body in bodies:
        prob = draw(_probability_texts)
        for _ in range(draw(st.integers(1, 2))):
            lits = draw(st.permutations(["pos", *(f"!{f}={v}" for f, v in body)]))
            sep = draw(st.sampled_from([" | ", "|", " |  "]))
            comment = draw(st.sampled_from(["", "  # note", "#"]))
            lines.append(f"{prob} {sep.join(lits)}{comment}")
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", "  "])))
    return "\n".join(lines)


_malformed_lines = st.sampled_from([
    "0.5 pos | ", "x pos | !a1=0", "1.5 pos", "0.5 pos | !a b=1", "0.5 pos | !pos", "0.3",
])


@st.composite
def mixed_texts(draw):
    """Texts of every line shape: rule lines, other clauses, ``pos | pos |
    !f=v``, duplicated literals, repeated features, an earlier clause again
    with the same or another probability, and now and then a malformed
    line."""
    kinds = ["rule"] * 3 + ["other"] * 2 + [
        "double-pos", "dup-literal", "repeat-feature", "again", "again", "malformed",
    ]
    drawn: list[list[str]] = []
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "malformed":
            lines.append(draw(_malformed_lines))
            continue
        body = draw(st.lists(st.tuples(_rule_features, _rule_values), max_size=3,
                             unique_by=lambda pair: pair[0]))
        lits = ["pos", *(f"!{f}={v}" for f, v in body)]
        if kind == "other":
            if draw(st.booleans()):
                lits.pop(0)
            lits.append(draw(st.sampled_from(["a1=0", "b", "!b", "!dd=2"])))
        elif kind == "double-pos":
            lits.append("pos")
        elif kind == "dup-literal":
            lits.append(lits[-1])
        elif kind == "repeat-feature":
            lits += ["!zz=0", "!zz=1"]
        elif kind == "again" and drawn:
            lits = draw(st.sampled_from(drawn))
        drawn.append(lits)
        lits = draw(st.permutations(lits))
        sep = draw(st.sampled_from([" | ", "|", " |  "]))
        lines.append(f"{draw(_probability_texts)} {sep.join(lits)}")
    return "\n".join(lines)


def exact_rows(clauses) -> Counter:
    """The multiset of (clause, exact probability)."""
    return Counter((wc.clause, Fraction(wc.probability)) for wc in clauses)


class TestRuleTableParse:
    """The one parse loop against ``helpers.reference_parse``, which builds
    every line as a clause object: the same clauses and probabilities, the
    rules in ``counts`` and every other clause in ``others``, and the same
    error for the same malformed text."""

    @staticmethod
    def assert_matches_reference(text):
        try:
            ref = reference_parse(text)
        except KBParseError as exc:
            with pytest.raises(KBParseError) as got:
                parse_kb(text)
            assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
            return None
        kb = parse_kb(text)
        assert serialize_kb(kb) == reference_serialize(ref)
        assert exact_rows(kb.clauses) == exact_rows(ref)
        assert len(kb) == len(ref)
        assert all(type(wc.probability) is Fraction for wc in kb.clauses)
        rules = [wc for wc in ref if wc.clause.is_rule_shaped]
        assert list(tuple_counts(kb)) == [tuple(sorted(wc.clause.body)) for wc in rules]
        assert kb.others == tuple(wc for wc in ref if not wc.clause.is_rule_shaped)
        assert kb.clauses == (*rules, *kb.others)
        return kb

    @settings(max_examples=150, deadline=None)
    @given(rule_texts())
    def test_both_paths_agree(self, text):
        kb = self.assert_matches_reference(text)
        assert not kb.others
        assert kb.universe == {a for wc in reference_parse(text) for a in wc.clause.atoms}

    @settings(max_examples=300, deadline=None)
    @given(mixed_texts())
    def test_mixed_texts_match_the_reference(self, text):
        self.assert_matches_reference(text)

    @pytest.mark.parametrize("text", [
        "0.5 a",
        "0.5 pos | a",
        "0.5 !pos | !a=1",
        "0.5 pos | a=1",
        "0.5 pos | !b",
        "0.5 !a=1",
        "0.5 pos | !a=1 | !a=2",
        "0.5 pos | !a=1 | !a=1",
        "0.5 pos | pos | !a=1",
        "0.5 pos | !a=1\n0.5 a | b",
    ])
    def test_other_shapes_parse_to_clauses(self, text):
        self.assert_matches_reference(text)

    @pytest.mark.parametrize("text, line_no, message", [
        ("0.5 pos | !a=1\n0.5 pos | !a b=1", 2, "invalid atom name 'a b'"),
        ("0.5 pos | !a=1\n0.5 pos | !a=", 2, "invalid atom value ''"),
        ("0.5 pos | !a=1\nx pos | !b=1", 2, "bad probability 'x'"),
        ("0.5 pos | !a=1\n1.5 pos | !b=1", 2, "probability 1.5 outside [0, 1]"),
        ("0.5 pos | !a=1\n0.3 pos | ", 2, "empty literal"),
        ("0.5 pos | !a=1\n0.3", 2, "expected 'probability clause', got '0.3'"),
        ("0.3 pos | !a=1\n0.3 pos | !b=2\n\n0.4 !a=1 | pos", 4,
         "clause pos | !a=1 already given probability 0.300000 on line 1"),
        ("0.3 pos | pos | !a=1\n0.4 pos | !a=1", 2,
         "clause pos | !a=1 already given probability 0.300000 on line 1"),
        ("0.3 pos | !a=1\n0.2 b\n0.4 pos | !a=1 | !a=1", 3,
         "clause pos | !a=1 already given probability 0.300000 on line 1"),
        ("0.3 pos | a\n0.5 pos | !b=1\n0.4 a | pos", 3,
         "clause pos | a already given probability 0.300000 on line 1"),
    ])
    def test_errors_match_the_general_path(self, text, line_no, message):
        raised = []
        for parse in (parse_kb, reference_parse):
            with pytest.raises(KBParseError) as exc:
                parse(text)
            raised.append((exc.value.line_no, str(exc.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == line_no
        assert raised[0][1].startswith(f"line {line_no}: {message}")

    def test_every_rule_line_takes_the_token_path(self, monkeypatch):
        # a repeated pos and a repeated literal canonicalise to a rule, and
        # no clause object is built for either
        def no_clause(*args):
            raise AssertionError("a rule line was built as a clause")

        monkeypatch.setattr(kb_module, "_parse_clause", no_clause)
        kb = parse_kb("0.3 pos | pos | !a=1\n0.4 pos | !b=1 | !b=1\n0.5 pos | pos")
        assert len(kb.counts) == 3
        assert kb.others == ()

    def test_a_line_that_is_not_a_rule_numbers_no_pair(self):
        kb = parse_kb("0.5 pos | !a=1 | !a=2\n0.4 pos | !b=1 | c")
        assert kb.atoms == []
        assert kb.counts == {}

    def test_pairs_a_non_rule_line_meets_first_are_numbered_by_the_rules(self):
        # lines 1 and 2 are not rules but meet pairs first, line 2 with the
        # same token text as the rule after it
        rules = "0.3 pos | !a=1 | !b=2\n0.6 pos | !c=1\n"
        text = "0.5 pos | !b=2 | !b=1 | !c=1\n0.1 pos | !a=1 | e\n" + rules + "0.2 !c=1 | !d=1\n"
        kb, alone = parse_kb(text), parse_kb(rules)
        assert kb.counts == alone.counts
        assert kb.atoms == alone.atoms == [("a", "1"), ("b", "2"), ("c", "1")]
        assert len(kb.others) == 3

    def test_saved_models_round_trip(self, strings_ds):
        rng = random.Random(5)
        kbs = [
            build_direct_kb(strings_ds),
            build_direct_kb(random_dataset(rng, max_features=5, max_rows=30), 3),
            kb_from_tree(build_id3(strings_ds), "leaves"),
            kb_from_tree(build_id3(strings_ds), "all_nodes"),
            build_direct_kb(from_rows(["f"], [(("x",), True), (("y",), False)])),
        ]
        for kb in kbs:
            text = serialize_kb(kb)
            parsed = parse_kb(text)
            assert not parsed.others
            assert serialize_kb(parsed) == text
            assert "clauses" not in parsed.__dict__


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(kb_texts())
    def test_serialization_is_a_fixed_point_after_one_pass(self, text):
        try:
            once = serialize_kb(parse_kb(text))
        except KBParseError:
            return  # generator may emit duplicate clauses with different probs
        twice = serialize_kb(parse_kb(once))
        assert once == twice


def probabilities(kb) -> dict:
    return {wc.clause: wc.probability for wc in kb.clauses}


class TestMerge:
    def make_kb(self):
        return parse_kb("0.5 pos | !a3=0\n0.2 pos | !a4=1")

    def test_adds_new_clauses(self):
        kb = self.make_kb()
        extra = [
            WeightedClause(0.9, rule_clause([("a3", "0")])),
            WeightedClause(0.9, rule_clause([("a4", "0")])),
        ]
        merged = merge(kb, extra)
        assert len(merged) == 3
        assert probabilities(merged)[rule_clause([("a3", "0")])] == 0.9
        assert probabilities(merged)[rule_clause([("a4", "0")])] == 0.9

    def test_identity_on_empty_extra(self):
        kb = self.make_kb()
        assert serialize_kb(merge(kb, [])) == serialize_kb(kb)

    def test_existing_clause_takes_supplied_probability(self):
        kb = self.make_kb()
        merged = merge(kb, [WeightedClause(0.95, rule_clause([("a4", "1")]))])
        assert len(merged) == 2
        assert probabilities(merged)[rule_clause([("a4", "1")])] == 0.95

    def test_idempotent_for_identical_extras(self):
        kb = self.make_kb()
        extra = [WeightedClause(0.9, rule_clause([("a3", "0")]))]
        once = merge(kb, extra)
        twice = merge(once, extra)
        assert serialize_kb(once) == serialize_kb(twice)

    def test_requires_positive_class_literal(self):
        kb = self.make_kb()
        bad = WeightedClause(1.0, Clause([Literal(Atom("a1", "0"))]))
        with pytest.raises(ValueError, match="positively"):
            merge(kb, [bad])

    def test_rule_extras_merge_into_a_table(self):
        # rule extras become rows: an existing body keeps its position and
        # takes the supplied probability exactly, a new one is appended
        kb = self.make_kb()
        before = dict(kb.counts)
        extra = [
            WeightedClause(Fraction(2, 7), rule_clause([("a2", "1"), ("a1", "0")])),
            WeightedClause(0.95, rule_clause([("a3", "0")])),  # overrides the first row
            WeightedClause(0.1, rule_clause([])),
        ]
        merged = merge(kb, extra)
        assert not merged.others
        assert list(tuple_counts(merged).items()) == [
            ((("a3", "0"),), Fraction(0.95).as_integer_ratio()[::-1]),
            ((("a4", "1"),), (5, 1)),
            ((("a1", "0"), ("a2", "1")), (7, 2)),
            ((), Fraction(0.1).as_integer_ratio()[::-1]),
        ]
        assert all(type(wc.probability) is Fraction for wc in merged.clauses)
        assert float(probabilities(merged)[rule_clause([("a3", "0")])]) == 0.95
        assert kb.counts == before
        # the new pairs extend a copy of the atom table
        assert kb.atoms == [("a3", "0"), ("a4", "1")]
        assert merged.atoms == [*kb.atoms, ("a1", "0"), ("a2", "1")]

    def test_non_rule_extra_gives_a_plain_kb(self):
        # a clause that is not a rule joins ``others`` after the rules; the
        # rows equal the learned KB's when no extra is a rule
        kb = self.make_kb()
        other = WeightedClause(0.6, Clause([Literal(POS), Literal(Atom("a1", "0"))]))
        extra = [WeightedClause(0.9, rule_clause([("a3", "1")])), other]
        merged = merge(kb, extra)
        assert merged.others == (other,)
        assert merged.clauses == (*kb.clauses, *extra)
        assert merge(kb, [other]).counts == kb.counts
        assert merge(kb, [other]).bits == kb.bits
        assert merge(merged, [WeightedClause(0.7, other.clause)]).others == (
            WeightedClause(0.7, other.clause),
        )

    def test_a_later_duplicate_extra_wins_in_place(self):
        # a rule and a clause that is not a rule, each given twice: the
        # later probability sits at the first one's place, new pairs are
        # numbered in first-occurrence order, and ``kb`` is left as it was
        kb = parse_kb("0.5 pos | !a3=0\n0.2 pos | !a4=1\n0.3 pos | b")
        before = (dict(kb.counts), dict(kb.bits), list(kb.atoms), kb.others)
        rule = rule_clause([("a2", "1"), ("a1", "0")])
        later = rule_clause([("a0", "1")])
        other = Clause([Literal(POS), Literal(Atom("a5", "1"))])
        extra = [
            WeightedClause(0.9, rule),
            WeightedClause(0.6, other),
            WeightedClause(0.8, later),
            WeightedClause(Fraction(1, 3), rule),
            WeightedClause(0.7, other),
        ]
        merged = merge(kb, extra)
        assert merged.clauses == (
            *kb.clauses[:2],
            WeightedClause(Fraction(1, 3), rule),
            WeightedClause(0.8, later),
            kb.others[0],
            WeightedClause(0.7, other),
        )
        assert merged.atoms == [*kb.atoms, ("a1", "0"), ("a2", "1"), ("a0", "1")]
        assert (dict(kb.counts), dict(kb.bits), list(kb.atoms), kb.others) == before


def _live_atoms(feature_prefix: str) -> int:
    gc.collect()
    return sum(
        1 for o in gc.get_objects()
        if isinstance(o, Atom) and o.feature.startswith(feature_prefix)
    )


class TestNoModuleState:
    """No atom outlives the knowledge base whose clauses made it."""

    @pytest.mark.parametrize("shape", ["pos | !{}=1", "pos | {}=1"],
                             ids=["rule-table", "general"])
    def test_parsed_kb(self, shape):
        prefix = f"gc_parse_{len(shape)}_"
        text = "\n".join(
            "0.5 " + shape.format(f"{prefix}{i}") for i in range(1000)
        )
        kb = parse_kb(text)
        assert len(kb.clauses) == 1000
        assert _live_atoms(prefix) == 1000
        del kb
        assert _live_atoms(prefix) == 0

    def test_direct_kb(self):
        prefix = "gc_direct_"
        features = [f"{prefix}{i}" for i in range(1000)]
        kb = build_direct_kb(from_rows(features, [(("0",) * 1000, True)]), max_arity=1)
        assert len(kb.clauses) == 1000
        assert _live_atoms(prefix) == 1000
        del kb
        assert _live_atoms(prefix) == 0

    def test_tree_kb(self):
        feature = "gc_tree_feature"
        rows = [((str(i),), i % 2 == 0) for i in range(1000)]
        kb = kb_from_tree(build_id3(from_rows([feature], rows)))
        assert len(kb.clauses) == 1000
        assert _live_atoms(feature) == 1000
        del kb
        assert _live_atoms(feature) == 0


class TestKnowledgeBase:
    def test_universe(self):
        kb = parse_kb("0.5 pos | !a1=0\n0.5 pos | !a2=1")
        assert kb.universe == {POS, Atom("a1", "0"), Atom("a2", "1")}

    def test_rules_are_routed_into_counts(self):
        rule = WeightedClause(0.25, rule_clause([("b", "2"), ("a", "1")]))
        other = WeightedClause(0.5, Clause([Literal(POS), Literal(Atom("a", "1"))]))
        kb = KnowledgeBase([other, rule, rule])
        assert tuple_counts(kb) == {(("a", "1"), ("b", "2")): (4, 1)}
        assert kb.atoms == [("a", "1"), ("b", "2")]
        assert kb.bits == {("a", "1"): 0b01, ("b", "2"): 0b10}
        assert kb.counts == {0b11: (4, 1)}
        assert kb.others == (other,)
        assert kb.clauses == (rule, other)
        with pytest.raises(ValueError, match="conflicting"):
            KnowledgeBase([rule, WeightedClause(0.3, rule.clause)])

    def test_a_saved_model_reads_back_equal(self):
        # Every probability (1, 1/2, 0) is exact at 6 decimals; the saved
        # text lists the rules in another order than the trained KB.
        kb = build_direct_kb(from_rows(["a", "b"], [(("0", "1"), True), (("1", "1"), False)]))
        loaded = parse_kb(serialize_kb(kb))
        assert loaded.clauses != kb.clauses
        assert loaded == kb

    def test_a_changed_probability_compares_unequal(self):
        kb = build_direct_kb(from_rows(["a", "b"], [(("0", "1"), True), (("1", "1"), False)]))
        first, *rest = kb.clauses
        changed = KnowledgeBase([WeightedClause(Fraction(1, 3), first.clause), *rest])
        assert first.probability != Fraction(1, 3)
        assert changed != kb

    def test_conflicting_duplicates_rejected_at_construction(self):
        wc1 = WeightedClause(0.4, rule_clause([("a", "1")]))
        wc2 = WeightedClause(0.5, rule_clause([("a", "1")]))
        with pytest.raises(ValueError, match="conflicting"):
            KnowledgeBase([wc1, wc2])

    def test_probabilities_always_in_unit_interval(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 5)
            kb = KnowledgeBase(
                WeightedClause(rng.random(), rule_clause([(f"f{i}", "1")]))
                for i in range(n)
            )
            assert all(0 <= wc.probability <= 1 for wc in kb)
