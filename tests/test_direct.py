import random
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import (
    all_subsets,
    datasets_and_queries,
    empirical_probability,
    query_from_string,
    random_dataset,
    reference_select,
    relevant_kb_scan,
    tuple_counts,
    unpresolved_infer,
)

import plkb.direct

from plkb.data import from_rows, generate_synthetic, random_seed_spec, split
from plkb.direct import (
    SubsetCounter,
    active_kb,
    build_direct_kb,
    relevant_kb,
)
from plkb.evaluate import classify_query, train_kb
from plkb.explain import compute_explanation
from plkb.kb import (
    KnowledgeBase,
    WeightedClause,
    merge,
    parse_kb,
    rule_clause,
    serialize_kb,
)
from plkb.lp import infer_pos
from plkb.tree import build_id3, kb_from_tree

# Clauses whose bodies are subsets of the assignment a1=0,a2=1,a3=0,a4=1,
# with the exact label frequency of each subset in the eight strings.
EXPECTED_RELEVANT_0101 = {
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


class TestBuildDirectKb:
    def test_relevant_golden_for_0101(self, strings_direct_kb):
        rel = relevant_kb(query_from_string("0101"), strings_direct_kb)
        got = {wc.clause: wc.probability for wc in rel}
        assert got == EXPECTED_RELEVANT_0101

    def test_single_positive_instance(self):
        ds = from_rows(["a"], [(("x",), True)])
        kb = build_direct_kb(ds)
        assert serialize_kb(kb) == "1 pos | !a=x"

    def test_full_factorial_two_by_two(self):
        rows = [((a, b), True) for a in "01" for b in "01"]
        ds = from_rows(["f1", "f2"], rows)
        kb = build_direct_kb(ds)
        # 4 singleton bodies plus 4 pair bodies
        assert len(kb) == 8

    def test_probabilities_are_rationals(self, strings_direct_kb):
        assert all(isinstance(wc.probability, Fraction) for wc in strings_direct_kb)

    def test_max_arity_caps_subset_size(self, strings_ds):
        kb = build_direct_kb(strings_ds, max_arity=1)
        assert all(len(wc.clause.body) == 1 for wc in kb)
        assert len(kb) == 8  # 4 features x 2 observed values

    def test_max_arity_below_one_rejected(self, strings_ds):
        with pytest.raises(ValueError, match="max_arity"):
            build_direct_kb(strings_ds, max_arity=0)

    def test_unbounded_pass_refused_on_wide_data(self):
        features = [f"f{i}" for i in range(1, 22)]
        ds = from_rows(features, [(tuple("0" * 21), True)])
        with pytest.raises(ValueError, match="max_arity"):
            build_direct_kb(ds)
        assert len(build_direct_kb(ds, max_arity=1)) == 21

    def test_empty_dataset_rejected(self, strings_ds):
        with pytest.raises(ValueError, match="empty"):
            build_direct_kb(strings_ds.replace_instances([]))

    def test_probabilities_match_brute_force_recount(self):
        rng = random.Random(77)
        for _ in range(20):
            ds = random_dataset(rng, max_features=4, max_rows=20)
            kb = build_direct_kb(ds)
            for wc in kb:
                assert wc.probability == empirical_probability(
                    ds, sorted(wc.clause.body)
                )

    def test_every_observed_subset_is_counted(self):
        rng = random.Random(78)
        ds = random_dataset(rng, max_features=4, max_rows=12)
        kb = build_direct_kb(ds)
        bodies = {wc.clause.body for wc in kb}
        for inst in ds.instances:
            for combo in all_subsets(inst.values.items()):
                assert frozenset(combo) in bodies

    def test_no_clause_repeats_a_feature(self, strings_direct_kb):
        for wc in strings_direct_kb:
            feats = [f for f, _ in wc.clause.body]
            assert len(feats) == len(set(feats))


def naive_counts(ds, max_arity) -> dict:
    """``(total, pos)`` of each observed subset of at most ``max_arity``
    pairs (None: any size), by counting the instances that hold it; keyed
    as :func:`tuple_counts` keys, in the order the instances first show
    the subsets: each instance's by size, then colexicographically over
    its pairs in feature order."""
    most = len(ds.features) if max_arity is None else max_arity
    order = {}
    for inst in ds.instances:
        pairs = list(inst.values.items())
        for k in range(1, min(most, len(pairs)) + 1):
            for combo in sorted(combinations(range(len(pairs)), k), key=lambda c: c[::-1]):
                order.setdefault(tuple(sorted(pairs[i] for i in combo)), None)
    counts = {}
    for body in order:
        labels = [inst.label for inst in ds.instances if set(body) <= inst.values.items()]
        counts[body] = (len(labels), sum(labels))
    return counts


def shared(values) -> bool:
    """Whether equal values among ``values`` are one object."""
    values = list(values)
    return len({id(v) for v in values}) == len(set(values))


class TestCounting:
    @settings(max_examples=100, deadline=None)
    @given(datasets_and_queries())
    def test_counts_are_exact_and_share_one_tuple_per_value(self, case):
        ds, max_arity, _ = case
        n = len(ds.features)
        for cap in (max_arity, None, 1, n, n + 3):
            kb = build_direct_kb(ds, cap)
            assert "counts" not in vars(kb)  # counted on the first read below
            assert list(tuple_counts(kb).items()) == list(naive_counts(ds, cap).items())
            assert all(type(v) is tuple for v in kb.counts.values())
            assert shared(kb.counts.values())
            assert shared(parse_kb(serialize_kb(kb)).counts.values())


def counted(kb: KnowledgeBase) -> KnowledgeBase:
    """The KB of ``kb``'s counted table, over its atom table, with no row
    index: it selects by lookup or scan."""
    return KnowledgeBase(counts=dict(kb.counts), bits=kb.bits)


class TestRowIndex:
    """A trained direct KB keeps its rows as one bitset per pair and
    counts its table only when something reads all of it."""

    @settings(max_examples=60, deadline=None)
    @given(datasets_and_queries())
    def test_selection_equals_the_lookup_over_the_counted_table(self, case):
        ds, _, queries = case
        n = len(ds.features)
        # a pair no row holds: its feature is not one of the data set's
        queries = queries + [{**q, "g": "0"} for q in queries[:2]]
        for max_arity in (None, 1, n, n + 3):
            kb = build_direct_kb(ds, max_arity)
            selected = [list(relevant_kb(q, kb).counts.items()) for q in queries]
            assert "counts" not in vars(kb)
            ref = counted(kb)
            assert selected == [list(relevant_kb(q, ref).counts.items()) for q in queries]
            assert all(0 not in dict(rows) for rows in selected)

    def test_classify_and_explain_never_count_the_table(self):
        spec = random_seed_spec(5, 3, 3, 4)
        train, test = split(generate_synthetic(spec, 60, 4), 0.7, 4)
        kb = train_kb(train, "direct")
        eager = counted(train_kb(train, "direct"))
        queries = [dict(inst.values) for inst in test.instances]
        for q in queries:
            assert classify_query(kb, q) == classify_query(eager, q)
            assert compute_explanation(q, kb, 2) == compute_explanation(q, eager, 2)
        assert "counts" not in vars(kb) and "clauses" not in vars(kb)
        # whatever reads the whole table counts it, and reads today's table
        extra = [WeightedClause(Fraction(9, 10), rule_clause([("a1", "1"), ("g", "0")]))]
        partial = dict(list(queries[0].items())[:2])
        reads = (serialize_kb, len, lambda kb: serialize_kb(merge(kb, extra)),
                 lambda kb: infer_pos(kb, partial))
        for read in reads:
            fresh = train_kb(train, "direct")
            assert read(fresh) == read(eager)
            assert "counts" in vars(fresh)

    def test_a_whole_kb_explanation_counts_the_table_once(self, strings_ds, monkeypatch):
        calls = []
        original = SubsetCounter.count

        def count(index):
            calls.append(threading.current_thread())
            return original(index)

        monkeypatch.setattr(SubsetCounter, "count", count)
        eager = counted(build_direct_kb(strings_ds))
        calls.clear()
        kb = build_direct_kb(strings_ds)
        q = query_from_string("1010")
        got = compute_explanation(q, kb, 2, use_relevant=False)
        # once, before the workers that share the KB start
        assert calls == [threading.current_thread()]
        assert got == compute_explanation(q, eager, 2, use_relevant=False)


class TestArity:
    @settings(max_examples=50, deadline=None)
    @given(datasets_and_queries())
    def test_the_builder_hands_over_the_scanned_arity(self, case):
        ds = case[0]
        n = len(ds.features)
        for max_arity in (None, 1, n, n + 3):
            kb = build_direct_kb(ds, max_arity)
            assert "arity" in vars(kb)  # handed over: reading it scans nothing
            assert "counts" not in vars(kb)  # nor counts the table
            assert kb.arity == max(map(int.bit_count, kb.counts), default=0)
            assert kb.arity == min(n, max_arity or n)

    def test_any_other_kb_scans(self):
        kb = parse_kb("1/2 pos | !a=1 | !b=2\n1/3 pos | !a=1")
        assert "arity" not in vars(kb) and kb.arity == 2
        assert "arity" not in vars(relevant_kb({"a": "1"}, kb))


class TestRelevantKb:
    def test_empty_query(self, strings_direct_kb):
        assert len(relevant_kb({}, strings_direct_kb)) == 0

    def test_single_pair_query(self, strings_direct_kb):
        rel = relevant_kb({"a4": "1"}, strings_direct_kb)
        assert serialize_kb(rel) == "1 pos | !a4=1"

    def test_matches_reference_scan(self, strings_direct_kb):
        rng = random.Random(5)
        values = ["0", "1"]
        for _ in range(20):
            q = {
                f"a{i}": rng.choice(values)
                for i in range(1, 5)
                if rng.random() < 0.7
            }
            fast = relevant_kb(q, strings_direct_kb)
            slow = relevant_kb_scan(q, strings_direct_kb)
            assert serialize_kb(fast) == serialize_kb(slow)

    def test_scan_used_for_non_rule_kbs(self):
        kb = parse_kb("0.5 a | b\n0.7 pos | !f=1")
        rel = relevant_kb({"f": "1"}, kb)
        assert serialize_kb(rel) == "7/10 pos | !f=1"

    def test_classification_agrees_with_full_kb(self, strings_direct_kb):
        for bits in range(16):
            s = format(bits, "04b")
            q = query_from_string(s)
            via_relevant = infer_pos(relevant_kb(q, strings_direct_kb), q)
            via_full = unpresolved_infer(strings_direct_kb, q)
            assert via_relevant.label == via_full.label
            assert via_relevant.p_avg == pytest.approx(via_full.p_avg, abs=1e-6)


class TestActiveKb:
    def test_keeps_bodyless_class_clause(self):
        kb = KnowledgeBase(
            [
                WeightedClause(0.75, rule_clause([])),
                WeightedClause(0.5, rule_clause([("a", "1")])),
            ]
        )
        sub = active_kb({"a": "0"}, kb)
        assert serialize_kb(sub) == "3/4 pos"

    def test_falls_back_to_whole_kb_for_non_rule_clauses(self):
        kb = parse_kb("0.5 a | b\n0.7 pos | !f=1")
        assert active_kb({"f": "1"}, kb) is kb

    def test_matches_full_inference_on_tree_kbs(self, strings_tree_kb):
        for bits in range(16):
            s = format(bits, "04b")
            q = query_from_string(s)
            via_active = infer_pos(active_kb(q, strings_tree_kb), q)
            via_full = unpresolved_infer(strings_tree_kb, q)
            assert via_active.label == via_full.label
            assert via_active.p_avg == pytest.approx(via_full.p_avg, abs=1e-6)


def rows(kb):
    """A KB's clauses with their exact probabilities, order aside."""
    return {(wc.clause, Fraction(wc.probability)) for wc in kb}


class TestBodylessRule:
    """A body-less ``[p] pos`` lies inside every query, so relevant and
    active extraction both keep it and select the same rows."""

    @pytest.fixture()
    def kbs(self, strings_direct_kb):
        single_class = from_rows(["a1", "a2"], [(("0", "1"), True), (("1", "1"), True)])
        single_leaf = kb_from_tree(build_id3(single_class), mode="leaves")
        merged = merge(strings_direct_kb, [WeightedClause(Fraction(3, 4), rule_clause([]))])
        parsed = parse_kb("0.25 pos\n0.9 pos | !a1=0\n0.1 pos | !a1=0 | !a2=1\n0.6 pos | !a4=1")
        plain = KnowledgeBase([
            WeightedClause(0.75, rule_clause([])),
            WeightedClause(0.5, rule_clause([("a1", "1")])),
            WeightedClause(0.2, rule_clause([("a1", "1"), ("a3", "0")])),
        ])
        assert serialize_kb(single_leaf) == "1 pos"
        kbs = [single_leaf, merged, parsed, plain]
        assert all(len(kb.counts) == len(kb) for kb in kbs)
        return kbs

    def test_relevant_equals_active_and_the_reference_scan(self, kbs):
        queries = [{}, {"a2": "1"}, {"a1": "1", "a3": "0"}, {"a1": "0", "a9": "x"}]
        queries += [query_from_string(format(bits, "04b")) for bits in range(16)]
        for kb in kbs:
            for q in queries:
                rel = relevant_kb(q, kb)
                assert type(rel) is type(kb)
                assert rows(rel) == rows(active_kb(q, kb))
                assert rows(rel) == rows(relevant_kb_scan(q, KnowledgeBase(kb.clauses)))
                assert any(not wc.clause.body for wc in rel)

    def test_full_queries_classify_as_the_whole_kb(self, kbs):
        for kb in kbs:
            for bits in range(16):
                q = query_from_string(format(bits, "04b"))
                via_relevant = infer_pos(relevant_kb(q, kb), q)
                via_full = unpresolved_infer(kb, q)
                assert via_relevant.label == via_full.label
                assert via_relevant.p_avg == pytest.approx(via_full.p_avg, abs=1e-6)


class TestRuleTable:
    """The direct KB keeps its rules as sample counts; it must answer
    exactly as the KB of the clause objects it stands for."""

    @settings(max_examples=40, deadline=None)
    @given(datasets_and_queries())
    def test_table_is_a_drop_in_kb(self, case):
        ds, max_arity, queries = case
        table = build_direct_kb(ds, max_arity)
        ref = KnowledgeBase(list(build_direct_kb(ds, max_arity).clauses))
        assert not table.others
        assert len(table) == len(ref)
        assert table.universe == ref.universe
        assert serialize_kb(table) == serialize_kb(ref)
        full = [q for q in queries if len(q) == len(ds.features)]
        for q in queries:
            for extract in (relevant_kb, active_kb):
                assert serialize_kb(extract(q, table)) == serialize_kb(extract(q, ref))
            assert classify_query(table, q) == classify_query(ref, q)
        for q in full:
            for k in range(1, len(q) + 1):
                assert compute_explanation(q, table, k) == compute_explanation(q, ref, k)
        assert "clauses" not in table.__dict__
        # The LP path reads the clauses: a partial query on the whole KB.
        assert infer_pos(table, queries[-1]) == infer_pos(ref, queries[-1])
        assert [(wc.probability, wc.clause) for wc in table.clauses] == [
            (wc.probability, wc.clause) for wc in ref.clauses
        ]
        assert all(type(wc.probability) is Fraction for wc in table.clauses)
        assert table == ref and ref == table
        assert {wc.clause: wc.probability for wc in table.clauses} == {
            wc.clause: wc.probability for wc in ref
        }

    def test_iteration_builds_no_cache(self, strings_ds):
        table = build_direct_kb(strings_ds)
        assert list(table) == list(build_direct_kb(strings_ds).clauses)
        assert list(table) == list(table.clauses)

    def test_wide_query_on_arity_one_table(self):
        rng = random.Random(21)
        features = [f"f{i}" for i in range(1, 22)]
        rows = [
            (tuple(rng.choice("012") for _ in features), rng.random() < 0.5)
            for _ in range(6)
        ]
        table = build_direct_kb(from_rows(features, rows), max_arity=1)
        assert table.arity == 1
        for vals, _ in rows:
            q = dict(zip(features, vals))
            assert serialize_kb(relevant_kb(q, table)) == serialize_kb(
                relevant_kb_scan(q, KnowledgeBase(table.clauses))
            )

    def test_wide_query_on_a_small_table(self):
        # 21 query pairs against a three-feature table: the 18 pairs the
        # atom table lacks lie in no body and drop out, so the 8 subsets
        # of the other three are looked up; the answer is the same.
        rows = [(("0", "1", "0"), True), (("1", "1", "0"), False)]
        table = build_direct_kb(from_rows(["f1", "f2", "f3"], rows))
        q = {"f1": "0", "f2": "1", "f3": "0"}
        q.update((f"g{i}", "0") for i in range(1, 19))
        ref = KnowledgeBase(build_direct_kb(from_rows(["f1", "f2", "f3"], rows)).clauses)
        assert serialize_kb(relevant_kb(q, table)) == serialize_kb(relevant_kb_scan(q, ref))
        assert len(relevant_kb(q, table)) == 7
        assert classify_query(table, q) == classify_query(ref, q)


class TestSelectionCost:
    """A wide query never lists its 2^n subsets: a trained direct table
    walks its row bitsets up to its longest body, extending only subsets
    some row holds; any other table looks up the codes of its subsets to
    the same size, or scans the rows when that many lookups would dwarf
    them.
    The cost is pinned by the number of bitset ANDs taken or candidate
    codes listed."""

    FEATURES = [f"f{i}" for i in range(1, 25)]

    @pytest.fixture()
    def table_and_query(self):
        rng = random.Random(24)
        rows = [
            (tuple(rng.choice("01") for _ in self.FEATURES), rng.random() < 0.5)
            for _ in range(6)
        ]
        return from_rows(self.FEATURES, rows), dict(zip(self.FEATURES, rows[0][0]))

    @staticmethod
    def count_candidates(monkeypatch) -> list[int]:
        listed: list[int] = []
        original = plkb.direct.subset_codes

        def counting(bits, most):
            codes = original(bits, most)
            listed.append(len(codes))
            return codes

        monkeypatch.setattr(plkb.direct, "subset_codes", counting)
        return listed

    def test_arity_one_table_lists_one_code_per_pair(self, table_and_query, monkeypatch):
        # the walk ANDs each pair's row bitset once, into the empty
        # subset's rows, and lists no subset codes
        ds, query = table_and_query
        table = build_direct_kb(ds, max_arity=1)
        ands = []

        class Rows(int):
            def __rand__(self, other):
                ands.append(other)
                return int(other) & int(self)

        index = table.index
        monkeypatch.setattr(index, "rows_with", {b: Rows(r) for b, r in index.rows_with.items()})
        listed = self.count_candidates(monkeypatch)
        selected = relevant_kb(query, table)
        assert len(ands) == 24 and listed == []
        assert tuple_counts(selected) == reference_select(query, table)
        assert len(selected) == 24

    def test_small_tree_table(self, table_and_query, monkeypatch):
        # only the tree's split pairs have a code, so few are listed
        ds, query = table_and_query
        table = kb_from_tree(build_id3(ds), mode="all_nodes")
        assert table.arity >= 2 and len(table) < 20
        listed = self.count_candidates(monkeypatch)
        for q in (query, {f: "1" for f in self.FEATURES}):
            assert tuple_counts(relevant_kb(q, table)) == reference_select(q, table)
        assert listed and all(n <= 1 << len(table.atoms) for n in listed)

    def test_small_table_with_a_code_per_query_pair_is_scanned(self, table_and_query, monkeypatch):
        # a rule per query pair gives all 24 pairs a code: listing the
        # subsets up to the tree's arity would dwarf the ~40 rows
        ds, query = table_and_query
        rules = [WeightedClause(Fraction(1, 2), rule_clause([pair])) for pair in query.items()]
        table = merge(kb_from_tree(build_id3(ds), mode="all_nodes"), rules)
        assert table.arity >= 2 and len(table) < 50
        listed = self.count_candidates(monkeypatch)
        assert tuple_counts(relevant_kb(query, table)) == reference_select(query, table)
        assert listed == []
