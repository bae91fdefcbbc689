"""Direct knowledge-base construction by counting labels over all
feature-value subsets of each instance, plus query-relevant extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Mapping

from .data import Dataset
from .kb import KnowledgeBase, RuleKey, RuleTable

Query = Mapping[str, str]

# Beyond this many features an unbounded subset pass is clearly a mistake.
MAX_UNBOUNDED_FEATURES = 20


@dataclass
class SubsetCounter:
    """(total, positive) sample counts per feature-value subset.

    Keys are sorted tuples of (feature, value) pairs, the canonical set
    encoding.  Counters merge associatively, so counting can be
    partitioned across instance chunks and combined in any order.
    """

    counts: dict[RuleKey, tuple[int, int]] = field(default_factory=dict)

    def add_instance(self, values: Mapping[str, str], label: bool, max_arity: int):
        pairs = sorted(values.items())
        hit = int(label)
        counts = self.counts
        for k in range(1, min(max_arity, len(pairs)) + 1):
            # combinations of a sorted list come out sorted: canonical keys.
            # Tuples of ints, unlike lists, are untracked by the cyclic GC.
            for key in combinations(pairs, k):
                e = counts.get(key)
                counts[key] = (1, hit) if e is None else (e[0] + 1, e[1] + hit)

    def merge(self, other: "SubsetCounter") -> "SubsetCounter":
        out = dict(self.counts)
        for key, (total, pos) in other.counts.items():
            e = out.get(key)
            out[key] = (total, pos) if e is None else (e[0] + total, e[1] + pos)
        return SubsetCounter(out)

    def to_kb(self) -> RuleTable:
        """The counts as a knowledge base; the table shares this counter's
        dict, so add no instances afterwards."""
        return RuleTable(self.counts)


def build_direct_kb(train: Dataset, max_arity: int | None = None) -> RuleTable:
    """One clause ``[n_pos/n_total] pos | !k1 | ... | !kj`` per observed
    feature-value subset of size <= max_arity (None = unbounded), kept as
    the count table those clauses are built from when read.

    Probabilities are exact rationals.  The unbounded pass enumerates
    2^n subsets per instance, so it is refused above
    ``MAX_UNBOUNDED_FEATURES`` features without an explicit cap.
    """
    if len(train) == 0:
        raise ValueError("cannot build a knowledge base from an empty dataset")
    n_features = len(train.features)
    if max_arity is None:
        if n_features > MAX_UNBOUNDED_FEATURES:
            raise ValueError(
                f"{n_features} features need an explicit max_arity "
                f"(unbounded subset pass allowed up to {MAX_UNBOUNDED_FEATURES})"
            )
        max_arity = n_features
    if max_arity < 1:
        raise ValueError("max_arity must be >= 1")
    counter = SubsetCounter()
    for inst in train.instances:
        counter.add_instance(inst.values, inst.label, max_arity)
    return counter.to_kb()


def _select(query: Query, kb: KnowledgeBase) -> KnowledgeBase:
    """The rule rows whose body the query asserts, the body-less rule
    included: its empty body lies inside every query.

    A table's query subsets are looked up only up to its longest body;
    when even that many lookups would dwarf the table, its keys are
    scanned.  Any other KB keeps its rule-shaped clauses in order.
    """
    pairs = set(query.items())
    if not isinstance(kb, RuleTable):
        return KnowledgeBase(
            [wc for wc in kb.clauses if wc.clause.is_rule_shaped and wc.clause.body <= pairs]
        )
    counts = kb.counts
    hi = min(kb.arity, len(pairs))
    if sum(comb(len(pairs), k) for k in range(hi + 1)) <= 8 * len(counts) + 64:
        ordered = sorted(pairs)
        hits = {}
        for k in range(hi + 1):
            for key in combinations(ordered, k):
                entry = counts.get(key)
                if entry is not None:
                    hits[key] = entry
    else:
        hits = {key: entry for key, entry in counts.items() if pairs.issuperset(key)}
    return RuleTable(hits)


def relevant_kb(query: Query, kb: KnowledgeBase) -> KnowledgeBase:
    """The rule clauses whose negated feature-value set is a subset of the
    query's pairs, a body-less ``[p] pos`` included.

    For a full query on a rule-only KB this sub-KB classifies identically
    to ``kb``: every dropped clause has a literal the query forces true,
    which pins the clause and decouples it from the class atom.
    """
    return _select(query, kb)


def active_kb(query: Query, kb: KnowledgeBase) -> KnowledgeBase:
    """The sub-KB the evaluation pipeline classifies a query on.

    On a rule-only KB (a :class:`~plkb.kb.RuleTable` always is one) these
    are the rows :func:`relevant_kb` selects.  When some clause is not
    rule-shaped the whole KB is returned, and the presolve in
    :func:`~plkb.lp.infer_pos` drops what the query decides.  For a full
    query the bounds equal whole-KB inference; ``objective_min`` lacks the
    deviation of the clauses dropped here.
    """
    return _select(query, kb) if rule_only(kb) else kb


def rule_only(kb: KnowledgeBase) -> bool:
    """Whether every clause is a rule ``pos | !f1=v1 | ...``; a
    :class:`~plkb.kb.RuleTable` always is."""
    return isinstance(kb, RuleTable) or all(wc.clause.is_rule_shaped for wc in kb.clauses)
