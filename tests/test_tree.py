import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    datasets_and_queries,
    empirical_probability,
    kb_from_tree_clauses,
    random_dataset,
)

from plkb.data import from_rows
from plkb.direct import active_kb, build_direct_kb, relevant_kb
from plkb.evaluate import classify_query
from plkb.explain import compute_explanation
from plkb.kb import rule_clause, serialize_kb
from plkb.lp import infer_pos
from plkb.tree import TreeNode, build_id3, format_tree, kb_from_tree

# Every root-to-leaf path of the tree grown from the eight-string data,
# with the exact positive ratio at its leaf.
EXPECTED_LEAF_CLAUSES = {
    rule_clause([("a1", "0"), ("a2", "0"), ("a3", "1"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "0"), ("a2", "0"), ("a3", "0"), ("a4", "0")]): Fraction(1),
    rule_clause([("a1", "0"), ("a2", "1"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "1"), ("a2", "0"), ("a3", "1"), ("a4", "0")]): Fraction(1),
    rule_clause([("a1", "1"), ("a2", "0"), ("a3", "0"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "1"), ("a2", "1"), ("a3", "1"), ("a4", "0")]): Fraction(0),
    rule_clause([("a1", "1"), ("a2", "1"), ("a3", "0"), ("a4", "0")]): Fraction(1),
    rule_clause([("a4", "1")]): Fraction(1),
}


class TestBuildId3:
    def test_eight_strings_tree_shape(self, strings_ds):
        tree = build_id3(strings_ds)
        assert tree.split_feature == "a4"
        assert set(tree.children) == {"0", "1"}
        assert tree.children["1"].is_leaf
        left = tree.children["0"]
        assert left.split_feature == "a1"
        assert left.children["0"].split_feature == "a2"
        assert left.children["1"].split_feature == "a2"
        assert left.children["0"].children["1"].is_leaf
        assert left.children["0"].children["0"].split_feature == "a3"
        assert left.children["1"].children["0"].split_feature == "a3"
        assert left.children["1"].children["1"].split_feature == "a3"

    def test_counts_recorded(self, strings_ds):
        tree = build_id3(strings_ds)
        assert (tree.n_positive, tree.n_total) == (4, 8)
        assert (tree.children["0"].n_positive, tree.children["0"].n_total) == (3, 7)
        assert (tree.children["1"].n_positive, tree.children["1"].n_total) == (1, 1)

    def test_single_feature_pure_split(self):
        ds = from_rows(["a"], [(("0",), True), (("0",), True), (("1",), False)])
        tree = build_id3(ds)
        assert tree.split_feature == "a"
        assert all(child.is_leaf for child in tree.children.values())

    def test_degenerate_identical_instances(self):
        ds = from_rows(["a"], [(("0",), True), (("0",), True)])
        tree = build_id3(ds)
        assert tree.is_leaf
        assert tree.n_positive == tree.n_total == 2

    def test_empty_dataset(self, strings_ds):
        with pytest.raises(ValueError, match="empty"):
            build_id3(strings_ds.replace_instances([]))

    def test_no_feature_repeats_on_any_path(self, strings_ds):
        def walk(node, seen):
            if node.split_feature is not None:
                assert node.split_feature not in seen
                for child in node.children.values():
                    walk(child, seen | {node.split_feature})

        walk(build_id3(strings_ds), set())

    def test_deterministic(self, strings_ds):
        a = kb_from_tree(build_id3(strings_ds))
        b = kb_from_tree(build_id3(strings_ds))
        assert serialize_kb(a) == serialize_kb(b)


class TestClauseFromPath:
    """A tree path's rule is ``rule_clause`` of its pairs."""

    def test_empty_path(self):
        assert str(rule_clause([])) == "pos"

    def test_single_edge(self):
        assert str(rule_clause([("a4", "1")])) == "pos | !a4=1"

    def test_four_edges_canonicalised(self):
        c = rule_clause([("a4", "0"), ("a1", "0"), ("a2", "0"), ("a3", "0")])
        assert str(c) == "pos | !a1=0 | !a2=0 | !a3=0 | !a4=0"

    def test_repeated_feature_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            rule_clause([("a1", "0"), ("a1", "1")])


class TestKbFromTree:
    def test_leaf_mode_golden(self, strings_tree_kb):
        got = {wc.clause: wc.probability for wc in strings_tree_kb}
        assert got == EXPECTED_LEAF_CLAUSES
        assert all(isinstance(p, Fraction) for p in got.values())

    def test_all_nodes_mode_counts_every_non_root_node(self, strings_ds):
        kb = kb_from_tree(build_id3(strings_ds), mode="all_nodes")
        assert len(kb) == 14

    def test_leaf_clauses_subset_of_all_nodes(self, strings_ds):
        tree = build_id3(strings_ds)
        leaves = {wc.clause: wc.probability for wc in kb_from_tree(tree, "leaves")}
        everything = {
            wc.clause: wc.probability for wc in kb_from_tree(tree, "all_nodes")
        }
        for clause, p in leaves.items():
            assert everything[clause] == p

    def test_hand_built_single_leaf(self):
        kb = kb_from_tree(TreeNode(None, 4, 3, None))
        assert serialize_kb(kb) == "3/4 pos"

    def test_unknown_mode(self, strings_ds):
        with pytest.raises(ValueError, match="mode"):
            kb_from_tree(build_id3(strings_ds), mode="forest")

    def test_hand_built_path_repeating_a_feature_rejected(self):
        leaf = TreeNode(None, 2, 1, ("a1", "1"))
        inner = TreeNode("a1", 2, 1, ("a1", "0"), {"1": leaf})
        root = TreeNode("a1", 2, 1, None, {"0": inner})
        with pytest.raises(ValueError, match="repeats"):
            kb_from_tree(root)


class TestTreeTable:
    """A tree KB keeps its rules as node counts; it must answer exactly as
    the KB of the clause objects the tree's paths give."""

    @pytest.mark.parametrize("mode", ["leaves", "all_nodes"])
    @settings(max_examples=40, deadline=None)
    @given(case=datasets_and_queries())
    def test_table_equals_the_clause_reference(self, mode, case):
        ds, _, queries = case
        tree = build_id3(ds)
        table = kb_from_tree(tree, mode)
        ref = kb_from_tree_clauses(tree, mode)
        assert not table.others
        assert len(table) == len(ref)
        assert table.universe == ref.universe
        assert serialize_kb(table) == serialize_kb(ref)
        for q in queries:
            for extract in (relevant_kb, active_kb):
                assert serialize_kb(extract(q, table)) == serialize_kb(extract(q, ref))
            assert classify_query(table, q) == classify_query(ref, q)
        for q in queries[:2]:  # full queries: rows of the dataset
            for k in range(1, len(q) + 1):
                assert compute_explanation(q, table, k) == compute_explanation(q, ref, k)
        assert "clauses" not in table.__dict__
        # The LP path reads the clauses: a partial query on the whole KB.
        assert infer_pos(table, queries[-1]) == infer_pos(ref, queries[-1])
        assert [(wc.probability, wc.clause) for wc in table.clauses] == [
            (wc.probability, wc.clause) for wc in ref.clauses
        ]
        assert all(type(wc.probability) is Fraction for wc in table.clauses)


class TestTreeProperties:
    def test_leaf_probabilities_match_empirical_recount(self):
        rng = random.Random(100)
        for _ in range(25):
            ds = random_dataset(rng)
            kb = kb_from_tree(build_id3(ds))
            for wc in kb:
                assert wc.probability == empirical_probability(ds, sorted(wc.clause.body))

    def test_every_tree_clause_appears_in_direct_kb(self):
        rng = random.Random(200)
        for _ in range(50):
            ds = random_dataset(rng)
            tree_kb = kb_from_tree(build_id3(ds))
            direct = {wc.clause: wc.probability for wc in build_direct_kb(ds)}
            for wc in tree_kb:
                if not wc.clause.body:
                    continue  # a bare class clause has no direct counterpart
                assert direct[wc.clause] == wc.probability


class TestFormatTree:
    def test_dump_shape(self, strings_ds):
        text = format_tree(build_id3(strings_ds))
        lines = text.splitlines()
        assert lines[0] == "root [4/8]"
        assert "  a4=0 [3/7]" in lines
        assert "  a4=1 [1/1]" in lines
        assert any(line.startswith("    a1=0") for line in lines)
