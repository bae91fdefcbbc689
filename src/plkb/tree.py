"""ID3 decision trees over categorical features and clause extraction
from root-to-node paths."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .data import Dataset, Instance
from .kb import AtomBits, KnowledgeBase


@dataclass
class TreeNode:
    split_feature: str | None
    n_total: int
    n_positive: int
    incoming_edge: tuple[str, str] | None
    children: dict[str, "TreeNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.split_feature is None


def _entropy(n_pos: int, n_total: int) -> float:
    # natural log; 0*log 0 := 0
    if n_total == 0 or n_pos == 0 or n_pos == n_total:
        return 0.0
    p = n_pos / n_total
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def _information_gain(rows: list[Instance], feature: str) -> float:
    parent = _entropy(sum(1 for r in rows if r.label), len(rows))
    buckets: dict[str, list[int]] = {}
    for r in rows:
        b = buckets.setdefault(r.values[feature], [0, 0])
        b[0] += 1
        b[1] += int(r.label)
    child = sum(
        (total / len(rows)) * _entropy(pos, total) for total, pos in buckets.values()
    )
    return parent - child


def build_id3(train: Dataset) -> TreeNode:
    """Grow an ID3 tree: split on max information gain, ties to the
    lexicographically smallest feature, recurse per observed value.

    Recursion stops at pure nodes and when no unused feature remains.
    Zero-gain splits are still taken on impure nodes so that co-dependent
    features deeper down can separate the classes; sample counts are
    recorded at every node.  No pruning, no depth limit.
    """
    if len(train) == 0:
        raise ValueError("cannot build a tree from an empty dataset")

    def grow(rows: list[Instance], remaining: tuple[str, ...], edge) -> TreeNode:
        n_total = len(rows)
        n_pos = sum(1 for r in rows if r.label)
        node = TreeNode(None, n_total, n_pos, edge)
        if n_pos in (0, n_total) or not remaining:
            return node
        gains = {f: _information_gain(rows, f) for f in remaining}
        top = max(gains.values())
        # gains within one ulp-ish of the max count as tied; mathematically
        # equal gains can differ in the last bits across partitions
        best = min(f for f, g in gains.items() if g >= top - 1e-12)
        node.split_feature = best
        rest = tuple(f for f in remaining if f != best)
        partitions: dict[str, list[Instance]] = {}
        for r in rows:
            partitions.setdefault(r.values[best], []).append(r)
        for value in sorted(partitions):
            node.children[value] = grow(partitions[value], rest, (best, value))
        return node

    return grow(list(train.instances), tuple(train.features), None)


def kb_from_tree(tree: TreeNode, mode: str = "leaves") -> KnowledgeBase:
    """Extract weighted rule clauses from tree paths.

    mode="leaves": one clause per root-to-leaf path.  mode="all_nodes": one
    clause per root-to-node path for every non-root node.  Probability is
    the end node's positive ratio, kept as the node's sample counts in the
    KB's ``counts``, in depth-first order, each pair numbered in the atom
    table when the walk first meets it.  An ID3 path never
    repeats a feature, so its pairs determine the node it ends at; a
    hand-built tree whose path does is refused.
    """
    if mode not in ("leaves", "all_nodes"):
        raise ValueError(f"unknown mode {mode!r}")
    counts: dict[int, tuple[int, int]] = {}
    bits = AtomBits()

    def walk(node: TreeNode, features: list[str], code: int):
        take = node.is_leaf if mode == "leaves" else node.incoming_edge is not None
        if take:
            if len(set(features)) != len(features):
                raise ValueError(f"rule body repeats a feature: {sorted(features)}")
            counts[code] = (node.n_total, node.n_positive)
        for value in sorted(node.children):
            edge = node.children[value].incoming_edge
            walk(node.children[value], features + [edge[0]], code | bits.add(edge))

    walk(tree, [], 0)
    return KnowledgeBase(counts=counts, bits=bits)


def format_tree(tree: TreeNode) -> str:
    """Indented dump, one node per line: ``feature=value [n_pos/n_total]``."""
    lines: list[str] = []

    def walk(node: TreeNode, depth: int):
        tag = "root" if node.incoming_edge is None else "=".join(node.incoming_edge)
        lines.append(f"{'  ' * depth}{tag} [{node.n_positive}/{node.n_total}]")
        for value in sorted(node.children):
            walk(node.children[value], depth + 1)

    walk(tree, 0)
    return "\n".join(lines)
