"""Direct knowledge-base construction by counting labels over all
feature-value subsets of each instance, plus query-relevant extraction.

The training rows are kept as a row index, one bitset of rows per pair:
a query's rows are read off it, and the whole table is counted only when
something reads the KB's ``counts``."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Mapping

from .data import Dataset
from .kb import AtomBits, KnowledgeBase, lookup_pays, subset_codes

Query = Mapping[str, str]

# Beyond this many features an unbounded subset pass is clearly a mistake.
MAX_UNBOUNDED_FEATURES = 20


@dataclass
class SubsetCounter:
    """A row index of the instances :meth:`add_instance` saw, read as the
    (total, positive) sample counts of every feature-value subset.

    ``bits`` is the atom table the counter numbers pairs into as it first
    sees them, and ``rows`` lists each row's pair bits, in the order the
    rows came.  ``rows_with`` maps a pair's bit to the bitset of the rows
    holding it (bit ``i`` for ``rows[i]``) and ``positive`` is the bitset of
    the positive rows, so a subset's rows are the AND of its pairs' bitsets
    and its count two popcounts (Zaki's vertical layout).  ``arity`` caps
    the subsets counted and selected; the KB reads its longest body off it.

    :meth:`count` lists the whole table.  Equal counts are one tuple
    object: a desk-sized table has ~355k rows but only ~700 distinct
    counts.  ``step[hit]`` maps a count to the count one more instance
    labelled ``hit`` makes of it, and ``None`` (no count yet) to ``(1,
    hit)``; a count is interned in ``values`` when either table first makes
    it, so an update allocates nothing but on a table miss."""

    arity: int
    bits: AtomBits = field(default_factory=AtomBits)
    rows: list[tuple[int, ...]] = field(default_factory=list)
    rows_with: dict[int, int] = field(default_factory=dict)
    positive: int = 0

    def add_instance(self, values: Mapping[str, str], label: bool):
        row = 1 << len(self.rows)
        pairs = tuple(map(self.bits.add, values.items()))
        self.rows.append(pairs)
        for b in pairs:
            self.rows_with[b] = self.rows_with.get(b, 0) | row
        if label:
            self.positive |= row

    def count(self) -> dict[int, tuple[int, int]]:
        """Every subset of at most ``arity`` pairs some row holds, code ->
        ``(total, pos)``, in the order the rows first show them."""
        counts: dict[int, tuple[int, int]] = {}
        get = counts.get
        steps: tuple[dict, dict] = ({}, {})
        values: dict[tuple[int, int], tuple[int, int]] = {}
        for i, pairs in enumerate(self.rows):
            hit = self.positive >> i & 1
            step = steps[hit]
            for code in subset_codes(pairs, self.arity)[1:]:
                try:
                    counts[code] = step[get(code)]
                except KeyError:
                    count = get(code)
                    total, pos = count or (0, 0)
                    new = (total + 1, pos + hit)
                    counts[code] = step[count] = values.setdefault(new, new)
        return counts

    def select(self, bits: list[int], most: int) -> dict[int, tuple[int, int]]:
        """The entries of :meth:`count` whose code is a subset of ``bits`` (each
        a bit of the table) with at most ``most`` members, in
        :func:`~plkb.kb.subset_codes` order, read off the row bitsets
        without counting the table.  A subset is extended only while some
        row holds it: no row holds a superset of one that none holds."""
        by_size = [[(0, (1 << len(self.rows)) - 1)]] + [[] for _ in range(most)]
        for n, b in enumerate(bits, 1):
            rows = self.rows_with[b]
            for k in range(min(n, most), 0, -1):
                by_size[k] += [(c | b, t) for c, r in by_size[k - 1] if (t := r & rows)]
        pos = self.positive
        return {c: (t.bit_count(), (t & pos).bit_count())
                for c, t in chain.from_iterable(by_size[1:])}

    def to_kb(self) -> KnowledgeBase:
        """A knowledge base over this index, which counts its ``counts``
        on first read; the KB shares this counter, so add no instances
        afterwards."""
        return KnowledgeBase(bits=self.bits, index=self)


def build_direct_kb(train: Dataset, max_arity: int | None = None) -> KnowledgeBase:
    """One rule ``[n_pos/n_total] pos | !k1 | ... | !kj`` per observed
    feature-value subset of size <= max_arity (None = unbounded), kept as
    the row index (:class:`SubsetCounter`) that the KB counts its
    ``counts`` from on first read; a query's rows are read off the index.

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
    counter = SubsetCounter(min(max_arity, n_features))
    for inst in train.instances:
        counter.add_instance(inst.values, inst.label)
    return counter.to_kb()


def _select(query: Query, kb: KnowledgeBase) -> KnowledgeBase:
    """The rule rows whose body the query asserts, the body-less rule
    included: its empty body lies inside every query.

    A trained direct KB reads them off its row index
    (:meth:`SubsetCounter.select`), up to its longest body.  Any other KB
    looks the codes of the query's subsets up in ``kb.counts``, to the
    same size, when :func:`~plkb.kb.lookup_pays`, and scans its rows
    otherwise.  A query pair the atom table lacks lies in no body, so it
    is left out.
    """
    bits = [b for b in map(kb.bits.get, sorted(query.items())) if b is not None]
    most = min(kb.arity, len(bits))
    if kb.index is not None:
        hits = kb.index.select(bits, most)
    elif lookup_pays(len(bits), most, len(kb.counts)):
        codes = subset_codes(bits, most)
        entries = list(map(kb.counts.get, codes))
        hits = dict(compress(zip(codes, entries), entries))
    else:
        outside = ~sum(bits)
        hits = {c: e for c, e in kb.counts.items() if not c & outside}
    return KnowledgeBase(counts=hits, bits=kb.bits)


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

    On a rule-only KB these are the rows :func:`relevant_kb` selects.
    When some clause is not a rule the whole KB is returned, and the
    presolve in :func:`~plkb.lp.infer_pos` drops what the query decides.
    For a full query the bounds equal whole-KB inference;
    ``objective_min`` lacks the deviation of the clauses dropped here.
    """
    return kb if kb.others else _select(query, kb)

