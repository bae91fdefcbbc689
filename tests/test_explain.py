import random
from itertools import combinations

import pytest

from helpers import query_from_string

from plkb.data import SeedSpec
from plkb.explain import (
    Explanation,
    compute_explanation,
    evaluate_sub_query,
    explanation_accuracy,
    masked_string,
)
from plkb.kb import KnowledgeBase, WeightedClause, parse_kb, rule_clause

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
            res = evaluate_sub_query({f: v}, strings_direct_kb)
            assert res.p_avg == pytest.approx(expected[f], abs=1e-3)

    def test_k_equal_to_query_size(self, strings_direct_kb):
        q = query_from_string("0101")
        expl = compute_explanation(q, strings_direct_kb, 4)
        assert expl.sub_query == q
        assert expl.score == pytest.approx(
            evaluate_sub_query(q, strings_direct_kb).p_avg, abs=1e-9
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
                scores[tuple(sorted(sub.items()))] = evaluate_sub_query(sub, kb).p_avg
            full_positive = evaluate_sub_query(query, kb).label
            best = max(scores.values()) if full_positive else min(scores.values())
            assert expl.score == pytest.approx(best, abs=1e-9)
            assert scores[tuple(sorted(expl.sub_query.items()))] == expl.score
            assert len(expl.sub_query) == k
            assert set(expl.sub_query.items()) <= set(query.items())

    def test_tie_breaks_to_lexicographically_smallest(self):
        kb = parse_kb("0.2 pos | !b=1\n0.2 pos | !a=1\n0.2 pos | !c=1")
        expl = compute_explanation({"a": "1", "b": "1", "c": "1"}, kb, 1)
        assert expl.sub_query == {"a": "1"}

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
