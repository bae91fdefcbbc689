import os
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import explanation_loop, query_from_string

import plkb.explain
from plkb.data import SeedSpec, from_rows, generate_synthetic
from plkb.direct import build_direct_kb, relevant_kb
from plkb.evaluate import classify_query
from plkb.explain import (
    Explanation,
    compute_explanation,
    explanation_accuracy,
    masked_string,
)
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
from plkb.lp import LABEL_EPS, InferenceResult, infer_pos
from plkb.tree import build_id3, kb_from_tree

SEED = SeedSpec("3232411132", 10, 4, 5)


class TestComputeExplanation:
    def test_most_decisive_single_feature(self, strings_direct_kb):
        q = query_from_string("0101")
        expl = compute_explanation(q, strings_direct_kb, 1)
        assert expl.sub_query == {"a1": "0"}
        assert expl.direction == "min"
        assert expl.score == pytest.approx(1 / 3, abs=1e-3)

    def test_single_feature_scores(self, strings_direct_kb):
        expected = {"a1": 1 / 3, "a2": 0.5, "a3": 0.5, "a4": 1.0}
        q = query_from_string("0101")
        for f, v in q.items():
            res = infer_pos(relevant_kb({f: v}, strings_direct_kb), {f: v})
            assert res.p_avg == pytest.approx(expected[f], abs=1e-3)

    def test_k_equal_to_query_size(self, strings_direct_kb):
        q = query_from_string("0101")
        expl = compute_explanation(q, strings_direct_kb, 4)
        assert expl.sub_query == q
        assert expl.score == pytest.approx(
            infer_pos(relevant_kb(q, strings_direct_kb), q).p_avg, abs=1e-9
        )

    def test_k_out_of_range(self, strings_direct_kb):
        q = query_from_string("0101")
        with pytest.raises(ValueError, match="out of range"):
            compute_explanation(q, strings_direct_kb, 0)
        with pytest.raises(ValueError, match="out of range"):
            compute_explanation(q, strings_direct_kb, 5)

    def test_positive_query_takes_argmax(self, strings_direct_kb):
        q = query_from_string("1111")
        expl = compute_explanation(q, strings_direct_kb, 1)
        assert expl.direction == "max"
        assert expl.sub_query == {"a4": "1"}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_independent_enumeration(self, k):
        rng = random.Random(55)
        for _ in range(10):
            pairs = [(f"f{i}", rng.choice("012")) for i in range(1, 6)]
            query = dict(pairs)
            clauses = {}
            for _ in range(rng.randint(3, 12)):
                size = rng.randint(1, 5)
                body = [
                    (f, v if rng.random() < 0.7 else rng.choice("012"))
                    for f, v in rng.sample(pairs, size)
                ]
                try:
                    clause = rule_clause(body)
                except ValueError:
                    continue
                clauses.setdefault(clause, WeightedClause(rng.random(), clause))
            if not clauses:
                continue
            kb = KnowledgeBase(clauses.values())
            expl = compute_explanation(query, kb, k)
            scores = {}
            for combo in combinations(sorted(query.items()), k):
                sub = dict(combo)
                scores[tuple(sorted(sub.items()))] = infer_pos(relevant_kb(sub, kb), sub).p_avg
            full_positive = infer_pos(relevant_kb(query, kb), query).label
            best = max(scores.values()) if full_positive else min(scores.values())
            assert expl.score == pytest.approx(best, abs=1e-9)
            assert scores[tuple(sorted(expl.sub_query.items()))] == expl.score
            assert len(expl.sub_query) == k
            assert set(expl.sub_query.items()) <= set(query.items())

    def test_tie_breaks_to_lexicographically_smallest(self):
        kb = parse_kb("0.2 pos | !b=1\n0.2 pos | !a=1\n0.2 pos | !c=1")
        expl = compute_explanation({"a": "1", "b": "1", "c": "1"}, kb, 1)
        assert expl.sub_query == {"a": "1"}

    @pytest.mark.parametrize("full, scores, want", [
        # negative: the least score wins; 0.2 + 1e-9 ties 0.2, "a=1" serializes first
        (0.3, {"a": 0.2 + 1e-9, "b": 0.2}, {"a": "1"}),
        (0.3, {"a": 0.2 + 1e-5, "b": 0.2}, {"b": "1"}),
        # positive: the greatest score wins, ties alike
        (0.9, {"a": 0.8 - 1e-9, "b": 0.8}, {"a": "1"}),
        (0.9, {"a": 0.8 - 1e-5, "b": 0.8}, {"b": "1"}),
    ])
    def test_lp_scores_within_label_eps_tie(self, monkeypatch, full, scores, want):
        # LP scores carry solver noise: within LABEL_EPS of the extremum
        # they tie, and the serialized sub-query breaks the tie
        def scored(sub, kb):
            p = scores[next(iter(sub))] if len(sub) == 1 else full
            return InferenceResult(p, p, p, 0.0, p > 0.5 + LABEL_EPS)

        for module in (plkb.explain, helpers):
            monkeypatch.setattr(module, "evaluate_sub_query", scored)
        query = {"a": "1", "b": "1"}
        got = compute_explanation(query, KnowledgeBase(), 1, use_relevant=False)
        assert got.sub_query == want
        assert got.score == scores[next(iter(want))]
        assert got == explanation_loop(query, KnowledgeBase(), 1, use_relevant=False)

    def test_full_kb_scores_on_a_rule_only_kb_tie_within_label_eps(self):
        # without use_relevant every score within LABEL_EPS of the least
        # ties: "a=1" (0.20000025, the midpoint of [0.2, 0.2000005]) serializes
        # first and beats "b=1" (0.2)
        kb = parse_kb("0.2000005 pos | !a=1\n0.2 pos | !b=1")
        query = {"a": "1", "b": "1"}
        got = compute_explanation(query, kb, 1, use_relevant=False)
        assert got.sub_query == {"a": "1"} and got.direction == "min"
        assert abs(got.score - 0.20000025) < 1e-9
        assert got == explanation_loop(query, kb, 1, use_relevant=False)
        # on the relevant rows the exact 0.2 wins
        assert compute_explanation(query, kb, 1).sub_query == {"b": "1"}

    def test_closed_form_scores_tie_only_when_equal(self):
        # 0.2 beats 0.2 + 1e-9 although "a=1" serializes first: closed-form
        # medians are exact, so only equal scores tie
        kb = parse_kb("0.200000001 pos | !a=1\n0.2 pos | !b=1")
        query = {"a": "1", "b": "1"}
        got = compute_explanation(query, kb, 1)
        assert (got.sub_query, got.score, got.direction) == ({"b": "1"}, 0.2, "min")
        assert got == explanation_loop(query, kb, 1)

    def test_deterministic(self, strings_direct_kb):
        q = query_from_string("0101")
        a = compute_explanation(q, strings_direct_kb, 2)
        b = compute_explanation(q, strings_direct_kb, 2)
        assert a == b

    def test_full_kb_mode_runs_partial_queries_against_everything(
        self, strings_tree_kb
    ):
        q = query_from_string("0101")
        expl = compute_explanation(q, strings_tree_kb, 1, use_relevant=False)
        assert len(expl.sub_query) == 1
        for k in (1, 2):
            assert compute_explanation(q, strings_tree_kb, k, use_relevant=False) == (
                explanation_loop(q, strings_tree_kb, k, use_relevant=False)
            )


# Few distinct probabilities, so sub-query scores often tie.
TIED_PROBS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


@st.composite
def explanation_cases(draw):
    """A knowledge base of one of every kind explanations run on, a full
    query over its features (values seen in training or not) and a k.

    Any kind may also hold a body-less ``[p] pos`` rule, which lies inside
    every sub-query; a single-class training set gives one by itself.
    """
    n = draw(st.integers(1, 5))
    features = [f"f{i}" for i in range(1, n + 1)]
    value = st.sampled_from("012")
    kind = draw(st.sampled_from(
        ["direct", "tree-leaves", "tree-all", "plain", "parsed", "empty-table", "empty-plain"]
    ))
    if kind in ("direct", "tree-leaves", "tree-all"):
        rows = draw(st.lists(
            st.tuples(st.tuples(*[value] * n), st.booleans()), min_size=1, max_size=12,
        ))
        ds = from_rows(features, rows)
        if kind == "direct":
            kb = build_direct_kb(ds, draw(st.none() | st.integers(1, n)))
        else:
            kb = kb_from_tree(build_id3(ds), mode="leaves" if kind == "tree-leaves" else "all_nodes")
    elif kind in ("plain", "parsed"):
        by_clause = {}
        for _ in range(draw(st.integers(1, 10))):
            body = draw(st.lists(st.tuples(st.sampled_from(features), value),
                                 min_size=1, max_size=n, unique_by=lambda pair: pair[0]))
            clause = rule_clause(body)
            by_clause[clause] = WeightedClause(draw(st.sampled_from(TIED_PROBS)), clause)
        if kind == "parsed":
            kb = parse_kb("\n".join(f"{wc.probability} {wc.clause}" for wc in by_clause.values()))
            assert not kb.others
        else:
            # clauses relevant extraction must skip: a positive feature
            # literal, a bare proposition, a negated class atom
            others = [
                Clause([Literal(POS), Literal(Atom(features[0], "0"))]),
                Clause([Literal(Atom("x")), Literal(Atom(features[-1], "1"), True)]),
                Clause([Literal(POS, True), Literal(Atom(features[0], "1"), True)]),
            ]
            for clause in draw(st.lists(st.sampled_from(others), unique=True)):
                by_clause[clause] = WeightedClause(draw(st.sampled_from(TIED_PROBS)), clause)
            kb = KnowledgeBase(by_clause.values())
    elif kind == "empty-table":
        kb = KnowledgeBase(counts={})
    else:
        kb = KnowledgeBase([])
    bodyless = draw(st.none() | st.sampled_from(TIED_PROBS))
    if bodyless is not None:
        kb = merge(kb, [WeightedClause(bodyless, rule_clause([]))])
    query = dict(zip(features, draw(st.tuples(*[st.sampled_from("0129")] * n))))
    return kb, query, draw(st.integers(1, n))


class TestOnePass:
    @settings(max_examples=300, deadline=None)
    @given(explanation_cases())
    def test_matches_the_per_sub_query_loop(self, case):
        kb, query, k = case
        got = compute_explanation(query, kb, k)
        want = explanation_loop(query, kb, k)
        assert (got.sub_query, got.score, got.direction) == (
            want.sub_query, want.score, want.direction
        )

    def test_ties_break_on_the_serialized_sub_query_in_both_directions(self):
        # a1 and a10 tie; "a10=1" serializes first although ("a1", "1") < ("a10", "1")
        kb = parse_kb("1 pos | !a1=1\n1 pos | !a10=1\n0 pos | !a2=1\n"
                      "0 pos | !a1=0\n0 pos | !a10=0\n1 pos | !a2=0")
        for value, direction in (("1", "max"), ("0", "min")):
            query = {"a1": value, "a10": value, "a2": value}
            for k in (1, 2, 3):
                got = compute_explanation(query, kb, k)
                assert got == explanation_loop(query, kb, k)
                assert got.direction == direction
            assert compute_explanation(query, kb, 1).sub_query == {"a10": value}

    @pytest.mark.parametrize("k, score", [(1, 0.55), (2, 0.3), (3, 0.3)])
    def test_bodyless_row_enters_every_sub_query(self, k, score):
        # k = 1 has fewer sub-masks (2) than rows (3) and walks them; k = 2
        # and 3 scan the rows.  Either way "0.9 pos" scores in every
        # sub-query, and the full query's median 0.3 classifies negative.
        kb = parse_kb("0.9 pos\n0.2 pos | !a=1\n0.3 pos | !b=1")
        query = {"a": "1", "b": "1", "c": "1"}
        got = compute_explanation(query, kb, k)
        assert got == explanation_loop(query, kb, k)
        assert (got.direction, got.score) == ("min", pytest.approx(score))
        assert not classify_query(kb, query).label

    @settings(max_examples=300, deadline=None)
    @given(explanation_cases(), st.data())
    def test_direction_is_the_classification(self, case, data):
        kb, query, _ = case
        kept = data.draw(st.lists(st.sampled_from(sorted(query)), min_size=1, unique=True))
        query = {f: query[f] for f in kept}
        k = data.draw(st.integers(1, len(query)))
        positive = classify_query(kb, query).label
        assert compute_explanation(query, kb, k).direction == ("max" if positive else "min")

    def test_direction_on_a_kb_with_a_clause_that_is_not_a_rule(self):
        # the rule rows alone (0.2 pos | !a=1) would classify negative; the
        # whole KB, as classify_query reads it, classifies positive
        kb = parse_kb("0.2 pos | !a=1\n0.9 pos | b=1")
        query = {"a": "1", "b": "0"}
        assert classify_query(kb, query).label
        got = compute_explanation(query, kb, 1)
        assert got == Explanation(sub_query={"b": "0"}, score=0.5, direction="max")
        assert got == explanation_loop(query, kb, 1)

    @pytest.mark.parametrize("use_relevant", [True, False])
    def test_relevant_kb_and_inference_calls(self, monkeypatch, strings_direct_kb, use_relevant):
        calls = {"relevant_kb": 0, "infer_pos": 0, "evaluate_sub_query": 0}
        lock = threading.Lock()  # whole-KB sub-queries run in worker threads

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in calls:
            counting(plkb.explain, name)
        q = query_from_string("0101")
        compute_explanation(q, strings_direct_kb, 2, use_relevant=use_relevant)
        n_subs = comb(4, 2)
        if use_relevant:
            assert calls == {"relevant_kb": 1, "infer_pos": 0, "evaluate_sub_query": 0}
        else:
            assert calls == {"relevant_kb": 0, "infer_pos": 1 + n_subs,
                             "evaluate_sub_query": 1 + n_subs}


@pytest.fixture(scope="module")
def tree_with_knowledge():
    """A tree KB merged with clauses that are not rules, as the tree-lp
    benchmark builds it, and full queries over its six features: every
    partial sub-query leaves rules and knowledge free, so it reaches the LP."""
    spec = SeedSpec("213312", 6, 3, 3)
    ds = generate_synthetic(spec, 300, 7)
    knowledge = parse_kb("0.7 pos | a1=1 | a2=2\n0.6 pos | a3=3 | a5=1\n0.8 pos | a4=2 | a6=3")
    kb = merge(kb_from_tree(build_id3(ds), mode="leaves"), list(knowledge.clauses))
    assert len(kb.others) == 3
    return kb, [dict(inst.values) for inst in ds.instances[:4]]


class TestConcurrentFullKb:
    """Whole-KB sub-queries are solved concurrently, with the results of
    the serial loop on any number of CPUs."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_serial_loop(self, tree_with_knowledge, k):
        kb, queries = tree_with_knowledge
        for query in queries:
            got = compute_explanation(query, kb, k, use_relevant=False)
            assert got == explanation_loop(query, kb, k, use_relevant=False)

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_any_cpu_count_gives_the_same_explanations(self, monkeypatch, tree_with_knowledge, cpus):
        # 8 workers on fewer cores, switching threads as often as the
        # interpreter allows: the KB is shared and must only be read
        kb, queries = tree_with_knowledge
        want = [compute_explanation(q, kb, 2, use_relevant=False) for q in queries]
        atoms, counts = list(kb.atoms), dict(kb.counts)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        threads = set()
        original = plkb.explain.evaluate_sub_query

        def recording(sub, kb):
            threads.add(threading.get_ident())
            return original(sub, kb)

        monkeypatch.setattr(plkb.explain, "evaluate_sub_query", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [compute_explanation(q, kb, 2, use_relevant=False) for q in queries]
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert (list(kb.atoms), dict(kb.counts)) == (atoms, counts)
        if cpus == 1:
            assert len(threads) == 1

    def test_solver_failure_reaches_the_caller(self, monkeypatch, tree_with_knowledge):
        kb, queries = tree_with_knowledge
        query = queries[0]
        status = helpers.stop_highs_at_time_limit(monkeypatch)
        with pytest.raises(RuntimeError) as serial:
            infer_pos(kb, {"a1": query["a1"]})
        with pytest.raises(RuntimeError) as pooled:
            compute_explanation(query, kb, 1, use_relevant=False)
        assert type(pooled.value) is RuntimeError
        assert str(pooled.value) == str(serial.value) == f"internal error: {status}"

    def test_a_worker_exception_is_raised_as_is(self, monkeypatch, tree_with_knowledge):
        kb, queries = tree_with_knowledge
        error = ValueError("from a worker")

        def failing(sub, kb):
            if len(sub) == 1 and "a3" in sub:
                raise error
            return infer_pos(kb, sub)

        monkeypatch.setattr(plkb.explain, "evaluate_sub_query", failing)
        with pytest.raises(ValueError) as raised:
            compute_explanation(queries[0], kb, 1, use_relevant=False)
        assert raised.value is error


class TestExplanationAccuracy:
    def test_four_of_five_positions_correct(self):
        e = Explanation({"a2": "2", "a6": "4", "a7": "1", "a8": "1", "a10": "2"}, 0.9, "max")
        assert explanation_accuracy(e, SEED) == pytest.approx(0.8)

    def test_all_positions_correct(self):
        e = Explanation({"a1": "3", "a3": "3", "a5": "4", "a7": "1"}, 0.9, "max")
        assert explanation_accuracy(e, SEED) == pytest.approx(1.0)

    def test_no_positions_correct(self):
        e = Explanation({"a1": "1", "a2": "1"}, 0.9, "max")
        assert explanation_accuracy(e, SEED) == 0.0

    def test_rejects_non_positional_feature(self):
        e = Explanation({"color": "3"}, 0.9, "max")
        with pytest.raises(ValueError, match="position"):
            explanation_accuracy(e, SEED)

    def test_rejects_out_of_range_position(self):
        e = Explanation({"a11": "3"}, 0.9, "max")
        with pytest.raises(ValueError, match="outside"):
            explanation_accuracy(e, SEED)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            explanation_accuracy(Explanation({}, 0.0, "min"), SEED)


class TestMaskedString:
    def test_five_feature_mask(self):
        e = Explanation(
            {"a1": "3", "a2": "2", "a3": "3", "a6": "1", "a8": "1"}, 0.9, "max"
        )
        assert masked_string(e, 10) == "323--1-1--"

    def test_single_feature_mask(self):
        e = Explanation({"a1": "0"}, 0.3, "min")
        assert masked_string(e, 4) == "0---"
        for feature, match in [("a0", "outside"), ("a9", "outside"),
                               ("x1", "position"), ("a", "position")]:
            with pytest.raises(ValueError, match=match):
                masked_string(Explanation({feature: "0"}, 0.3, "min"), 4)
