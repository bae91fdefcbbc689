"""Direct knowledge-base construction by counting labels over all
feature-value subsets of each instance, plus query-relevant extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping

from .data import Dataset
from .kb import AtomBits, KnowledgeBase, lookup_pays, subset_codes

Query = Mapping[str, str]

# Beyond this many features an unbounded subset pass is clearly a mistake.
MAX_UNBOUNDED_FEATURES = 20


@dataclass
class SubsetCounter:
    """(total, positive) sample counts per feature-value subset, keyed by
    the subset's code over ``bits``, the atom table the counter numbers
    pairs into as it first sees them.  ``arity`` is the longest subset
    :meth:`add_instance` counted, handed to the KB so that it never scans
    for it.

    Equal counts are one tuple object: a desk-sized table has ~355k rows
    but only ~700 distinct counts.  ``_step[hit]`` maps a count to the
    count one more instance labelled ``hit`` makes of it, and ``None`` (no
    count yet) to ``(1, hit)``; a count is interned in ``_values`` when
    either table first makes it, so an update allocates nothing but on a
    table miss."""

    counts: dict[int, tuple[int, int]] = field(default_factory=dict)
    bits: AtomBits = field(default_factory=AtomBits)
    arity: int = field(default=0, init=False, compare=False)
    _step: tuple[dict, dict] = field(
        default_factory=lambda: ({}, {}), init=False, repr=False, compare=False)
    _values: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add_instance(self, values: Mapping[str, str], label: bool, max_arity: int):
        hit = int(label)
        counts = self.counts
        get = counts.get
        step = self._step[hit]
        codes = subset_codes(map(self.bits.add, values.items()), max_arity)
        self.arity = max(self.arity, min(max_arity, len(values)))
        for code in codes[1:]:
            try:
                counts[code] = step[get(code)]
            except KeyError:
                count = get(code)
                total, pos = count or (0, 0)
                new = (total + 1, pos + hit)
                counts[code] = step[count] = self._values.setdefault(new, new)

    def to_kb(self) -> KnowledgeBase:
        """The counts as a knowledge base's rules; the KB shares this
        counter's dicts, so add no instances afterwards."""
        return KnowledgeBase(counts=self.counts, bits=self.bits, arity=self.arity)


def build_direct_kb(train: Dataset, max_arity: int | None = None) -> KnowledgeBase:
    """One rule ``[n_pos/n_total] pos | !k1 | ... | !kj`` per observed
    feature-value subset of size <= max_arity (None = unbounded), kept as
    the ``counts`` those clauses are built from when read.

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

    The codes of the query's subsets are looked up in ``kb.counts`` only
    up to its longest body when :func:`~plkb.kb.lookup_pays`; otherwise the
    rows are scanned.  A query pair the atom table lacks lies in no body,
    so it is left out of both.
    """
    counts = kb.counts
    bits = [b for b in map(kb.bits.get, sorted(query.items())) if b is not None]
    most = min(kb.arity, len(bits))
    if lookup_pays(len(bits), most, len(counts)):
        codes = subset_codes(bits, most)
        entries = list(map(counts.get, codes))
        hits = dict(compress(zip(codes, entries), entries))
    else:
        outside = ~sum(bits)
        hits = {c: e for c, e in counts.items() if not c & outside}
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

