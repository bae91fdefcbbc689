"""Weighted propositional clauses and the knowledge-base text format.

A knowledge base is a set of disjunction clauses, each paired with a
probability.  Learned clauses always have the shape
``pos | !f1=v1 | ... | !fk=vk`` over distinct features, a rule ("these
feature values imply the positive class"), but the container and the
text format also accept arbitrary clauses over bare propositional atoms,
which is useful for hand-written knowledge and for consistency
experiments.

There is one knowledge-base type, :class:`KnowledgeBase`, and it keeps a
rule in one place: ``counts``, the integer pairs rule probabilities are
read from, keyed by the rule body's code, with the clause objects built
only when something reads them; a trained direct KB derives ``counts``
from its row index on first read.  Every other clause sits in ``others``,
in order.  A code is an ``int`` with one bit per feature-value pair: bit
``i`` stands for ``atoms[i]`` of the KB's atom table ``bits``, so a body
is the OR of its pairs' bits, a body lies inside a query when ``code &
~query == 0``, and a query's subsets are listed as ORs of its pairs'
bits.  The tree builder fills ``counts`` directly, the direct builder
hands over the row index it is counted from (see :mod:`plkb.direct`),
:func:`parse_kb` reads a rule line straight into it, and the constructor
alone routes a rule given as a clause object into it; each numbers a
pair when a rule first holds it, so no code is ever re-coded.  A code is as
wide as the atom table: past 63 atoms it is a multi-digit int, which
works the same but hashes more slowly.  :func:`bit_positions` is the one
reader of a code, as :meth:`AtomBits.add` is the one writer of a table: it
decodes a body to build clause objects and an LP's literal lists, and a rule
line whose parent has no text yet; any other rule line is written from its
parent's text plus one literal (see :func:`serialize_kb`).

All values are immutable: :class:`Atom`, :class:`Literal`,
:class:`Clause` and :class:`WeightedClause` are frozen dataclasses, so
assigning a field raises ``FrozenInstanceError`` and a hash never goes
stale, and a clause canonicalises its literals once, when built.
Operations that change a knowledge base return a new one, so instances
can be shared freely across threads.

A model file (:func:`write_model`) is one header line, ``# plkb 2
crc32=<hex> others=<n> features=<f1,f2,...>``, then :func:`serialize_kb`'s
lines: sorted by clause text, each probability the exact ``n/d`` of its
``Fraction``, so a model reads back equal to the one saved.  The header
is a comment to :func:`parse_kb`, which reads a file with or without one
(an older model, with 6-decimal probabilities) whole.  Its checksum
covers everything after its own field.  :func:`read_model` reads only the
rules a query selects from a model whose header allows it.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import comb
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

if TYPE_CHECKING:
    from .direct import SubsetCounter

Probability = Union[float, Fraction]
Pair = tuple[str, str]

CLASS_ATOM_NAME = "pos"
# The ways a knowledge base is learned (:func:`plkb.evaluate.train_kb`).
METHODS = ("tree", "tree-all", "direct")

_NAME_RE = re.compile(r"[^\s=|!,#]+\Z")


class KBParseError(ValueError):
    """Raised for malformed knowledge-base text; carries a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_name(kind: str, s: str) -> str:
    if not s or not _NAME_RE.match(s):
        raise ValueError(
            f"invalid {kind} {s!r}: must be non-empty and contain no "
            "whitespace, '=', '|', '!', ',' or '#'"
        )
    return s


@dataclass(frozen=True, slots=True)
class Atom:
    """A propositional atom.

    Three spellings exist: the distinguished class atom ``pos``, a bare
    proposition ``name``, and a feature-value pair ``feature=value``.
    """

    feature: str
    value: str | None = None

    def __post_init__(self):
        _check_name("atom name", self.feature)
        if self.value is not None:
            _check_name("atom value", self.value)
            if self.feature == CLASS_ATOM_NAME:
                raise ValueError(f"feature name {CLASS_ATOM_NAME!r} is reserved")

    @property
    def is_class_atom(self) -> bool:
        return self.feature == CLASS_ATOM_NAME and self.value is None

    def __str__(self) -> str:
        if self.value is None:
            return self.feature
        return f"{self.feature}={self.value}"


POS = Atom(CLASS_ATOM_NAME)


@dataclass(frozen=True, slots=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("!" if self.negated else "") + str(self.atom)


_POS_LITERAL = Literal(POS)


def _atom_sort_key(atom: Atom):
    """Canonical atom order: the class atom first, then by (name, value)."""
    return (0 if atom.is_class_atom else 1, atom.feature, atom.value or "")


@dataclass(frozen=True, slots=True)
class Clause:
    """A disjunction of literals, stored in canonical order.

    Canonical order puts the class atom first, then remaining literals
    sorted by (name, value).  Duplicates collapse; a literal next to its
    own negation is rejected.  Equality and hashing follow the canonical
    tuple, so clauses compare order-insensitively.
    """

    literals: tuple[Literal, ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(self, literals: Iterable[Literal]):
        seen: dict[Atom, Literal] = {}
        for lit in literals:
            prev = seen.get(lit.atom)
            if prev is not None and prev.negated != lit.negated:
                raise ValueError(f"clause contains both {prev} and {lit}")
            seen[lit.atom] = lit
        ordered = tuple(seen[a] for a in sorted(seen, key=_atom_sort_key))
        if not ordered:
            raise ValueError("clause must contain at least one literal")
        object.__setattr__(self, "literals", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

    @classmethod
    def _trusted(cls, ordered: tuple[Literal, ...]) -> "Clause":
        """Internal: accept pre-canonicalised literals without re-checking."""
        self = cls.__new__(cls)
        object.__setattr__(self, "literals", ordered)
        object.__setattr__(self, "_hash", hash(ordered))
        return self

    def __hash__(self) -> int:
        return self._hash

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.literals)

    def has_positive(self, atom: Atom) -> bool:
        return any(lit.atom == atom and not lit.negated for lit in self.literals)

    @property
    def body(self) -> frozenset[tuple[str, str]]:
        """Feature-value pairs appearing negated in the clause.

        For learned clauses (``pos | !f=v | ...``) this is the rule body.
        """
        return frozenset(
            (lit.atom.feature, lit.atom.value)
            for lit in self.literals
            if lit.negated and lit.atom.value is not None
        )

    @property
    def is_rule_shaped(self) -> bool:
        """True when the clause is ``pos`` plus negated feature-value literals
        over distinct features: canonical order puts ``pos`` first, and the
        rest must be the body, one pair per feature."""
        lits, body = self.literals, self.body
        return lits[0] == _POS_LITERAL and len(lits) - 1 == len(body) == len(dict(body))

    def __str__(self) -> str:
        return " | ".join(str(lit) for lit in self.literals)


def _coded_rule(code: int, atoms: Sequence[Pair], literals: dict) -> Clause:
    """``pos | !f1=v1 | ...`` for the rule body coded ``code`` over the atom
    table ``atoms``, built canonical, each literal shared through
    ``literals`` (pair -> its negated literal) by the clauses one pass
    builds."""
    lits = [_POS_LITERAL]
    for pair in sorted(map(atoms.__getitem__, bit_positions(code))):
        lit = literals.get(pair)
        if lit is None:
            lit = literals[pair] = Literal(Atom(*pair), True)
        lits.append(lit)
    return Clause._trusted(tuple(lits))


def rule_clause(pairs: Iterable[tuple[str, str]]) -> Clause:
    """Build ``pos | !f1=v1 | ...`` from feature-value pairs: the rule
    whose body sets every bit of the atom table ``pairs``."""
    pairs = sorted(pairs)
    feats = [f for f, _ in pairs]
    if len(set(feats)) != len(feats):
        raise ValueError(f"rule body repeats a feature: {feats}")
    return _coded_rule((1 << len(pairs)) - 1, pairs, {})


@dataclass(frozen=True)
class WeightedClause:
    probability: Probability
    clause: Clause

    def __post_init__(self):
        if not 0 <= self.probability <= 1:
            raise ValueError(f"probability {self.probability} outside [0, 1]")

    def __str__(self) -> str:
        return f"{float(self.probability):.6f} {self.clause}"


class AtomBits(dict):
    """An atom table: each feature-value pair maps to its bit, and
    ``atoms`` lists the pairs in bit order.  Only :meth:`add` changes it,
    so a table only grows and a bit never changes; ``[]`` and ``get`` only
    read, so a lookup can never grow a table that KBs or threads share."""

    def __init__(self, atoms: Iterable[Pair] = ()):
        self.atoms = list(atoms)
        super().__init__((pair, 1 << i) for i, pair in enumerate(self.atoms))

    def add(self, pair: Pair) -> int:
        """The bit of ``pair``, numbering it next when the table lacks it."""
        bit = self.get(pair)
        if bit is None:
            bit = self[pair] = 1 << len(self.atoms)
            self.atoms.append(pair)
        return bit


def bit_positions(code: int) -> Iterator[int]:
    """The positions of the set bits of ``code``, lowest first, at any width:
    the one reader of a code, whose bit ``i`` stands for ``atoms[i]``."""
    while code:
        low = code & -code
        yield low.bit_length() - 1
        code ^= low


def subset_codes(bits: Iterable[int], most: int) -> list[int]:
    """The code of every subset of ``bits`` with at most ``most`` members,
    by size, the empty one first."""
    bits = list(bits)
    by_size = [[0]] + [[] for _ in range(min(most, len(bits)))]
    for n, b in enumerate(bits, 1):
        for k in range(min(n, most), 0, -1):
            by_size[k] += [c | b for c in by_size[k - 1]]
    return list(chain.from_iterable(by_size))


def lookup_pays(n_pairs: int, most: int, n_rows: int, per_row: int = 8) -> bool:
    """Whether looking up the subsets of ``n_pairs`` query pairs with at
    most ``most`` members beats scanning ``n_rows`` rows for the bodies
    inside the query, when ``per_row`` lookups cost about as much as
    scanning one row: 8 dict lookups in memory, 1 bisect of a model
    file's lines against parsing one."""
    return sum(comb(n_pairs, k) for k in range(most + 1)) <= per_row * n_rows + 64


@dataclass(frozen=True, eq=False)
class KnowledgeBase:
    """An immutable collection of weighted clauses, unique by clause.

    ``counts`` holds the rules.  It maps a rule body's code to a pair
    ``(total, pos)``: the sample counts of a subset or a tree node in a KB
    the direct or tree builder trained, the probability's denominator and
    numerator otherwise.  The rule it stands for is ``[Fraction(pos,
    total)] pos | !f1=v1 | ...``.  ``others`` holds every clause that is
    not a rule, in order.

    ``bits`` is the atom table the codes are read with, the one the
    builder filled: it maps each pair to its bit, and bit ``i`` of a code
    stands for the pair ``atoms[i]``; the body-less rule has code 0.  A
    code is as wide as the table; past 63 atoms it is still a code, a
    multi-digit int that hashes more slowly.  The sub-KBs selected from a
    KB share its table, so the table may hold pairs no row uses.

    ``index`` is the row index a trained direct KB was built over (a
    :class:`~plkb.direct.SubsetCounter`), None for any other KB.  Such a
    KB counts ``counts`` from it when something first reads them, reads
    its :attr:`arity` off it, and selects a query's rows from it.

    :attr:`clauses` lists the rules in ``counts`` order, then ``others``,
    and iteration runs over it.  No rule clause object exists until
    something reads :attr:`clauses` or iterates the KB, which builds them
    once; :func:`serialize_kb` and the LP path read ``counts`` directly.

    The constructor routes each rule-shaped clause of ``clauses`` into
    ``counts``, numbering its new pairs into ``bits``, and keeps both in
    place: a builder hands them over and does not change them afterwards.
    Duplicate clauses with the same probability collapse; duplicates with
    different probabilities are an error (use :func:`merge` for override
    semantics).  Two KBs are equal when they hold the same weighted
    clauses, in any order.
    """

    bits: AtomBits
    others: tuple[WeightedClause, ...]
    index: SubsetCounter | None

    def __init__(
        self,
        clauses: Iterable[WeightedClause] = (),
        counts: dict[int, tuple[int, int]] | None = None,
        bits: AtomBits | None = None,
        index: SubsetCounter | None = None,
    ):
        counts = {} if counts is None else counts
        bits = AtomBits() if bits is None else bits
        others: dict[Clause, WeightedClause] = {}
        for wc in clauses:
            if wc.clause.is_rule_shaped:
                p = Fraction(wc.probability)
                entry = (p.denominator, p.numerator)
                # The pairs' bits are distinct, so their sum is their OR.
                prev = counts.setdefault(sum(map(bits.add, sorted(wc.clause.body))), entry)
                prev_p = p if prev == entry else Fraction(prev[1], prev[0])
            else:
                prev_p = others.setdefault(wc.clause, wc).probability
            if prev_p != wc.probability:
                raise ValueError(
                    f"duplicate clause {wc.clause} with conflicting "
                    f"probabilities {prev_p} and {wc.probability}"
                )
        if index is None:  # else counted from the index on first read
            object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "others", tuple(others.values()))
        object.__setattr__(self, "index", index)

    @cached_property
    def counts(self) -> Mapping[int, tuple[int, int]]:
        return self.index.count()

    @property
    def atoms(self) -> Sequence[Pair]:
        """The pairs of the atom table in bit order."""
        return self.bits.atoms

    @cached_property
    def clauses(self) -> tuple[WeightedClause, ...]:
        # The rule clauses share one literal per pair.
        literals: dict[Pair, Literal] = {}
        rules = (
            WeightedClause(Fraction(pos, total), _coded_rule(code, self.atoms, literals))
            for code, (total, pos) in self.counts.items()
        )
        return (*rules, *self.others)

    def __len__(self) -> int:
        return len(self.counts) + len(self.others)

    def __iter__(self) -> Iterator[WeightedClause]:
        return iter(self.clauses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return set(self.clauses) == set(other.clauses)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} clauses, {len(self.universe)} atoms>)"

    @cached_property
    def universe(self) -> frozenset[Atom]:
        atoms = {a for wc in self.others for a in wc.clause.atoms}
        if self.counts:
            used = reduce(or_, self.counts)
            atoms.add(POS)
            atoms.update(Atom(*self.atoms[i]) for i in bit_positions(used))
        return frozenset(atoms)

    @cached_property
    def arity(self) -> int:
        """The longest rule body: the row index's cap on a trained direct
        KB, scanned once on any other."""
        if self.index is not None:
            return self.index.arity
        return max(map(int.bit_count, self.counts), default=0)


def _clause_lines(
    lines: Iterable[str], numbers: Iterable[int]
) -> Iterator[tuple[int, Fraction, str]]:
    """``(line number, probability, clause text)`` for each clause line of
    ``lines``, numbered by ``numbers``.

    ``#`` comments and blank lines are skipped, and the probability is an
    exact rational in [0, 1].  Each distinct probability text is parsed
    once.
    """
    probs: dict[str, Fraction] = {}
    for line_no, raw in zip(numbers, lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise KBParseError(line_no, f"expected 'probability clause', got {line!r}")
        prob_text, clause_text = parts
        prob = probs.get(prob_text)
        if prob is None:
            try:
                prob = Fraction(prob_text)
            except (ValueError, ZeroDivisionError):
                raise KBParseError(line_no, f"bad probability {prob_text!r}") from None
            if not 0 <= prob <= 1:
                raise KBParseError(line_no, f"probability {prob_text} outside [0, 1]")
            probs[prob_text] = prob
        yield line_no, prob, clause_text


def _parse_literal(tok: str, line_no: int) -> Literal:
    """One ``|``-separated literal: an optionally ``!``-prefixed atom."""
    tok = tok.strip()
    if not tok:
        raise KBParseError(line_no, "empty literal")
    negated = tok.startswith("!")
    if negated:
        tok = tok[1:].strip()
    name, eq, value = tok.partition("=")
    try:
        atom = Atom(name, value) if eq else Atom(name)
    except ValueError as exc:
        raise KBParseError(line_no, str(exc)) from None
    return Literal(atom, negated)


def _parse_clause(clause_text: str, line_no: int, literals: dict[str, Literal]) -> Clause:
    """One line's clause, its literals shared through ``literals`` (literal
    text -> its literal)."""
    lits = []
    for tok in clause_text.split("|"):
        lit = literals.get(tok)
        if lit is None:
            lit = literals[tok] = _parse_literal(tok, line_no)
        lits.append(lit)
    try:
        return Clause(lits)
    except ValueError as exc:
        raise KBParseError(line_no, str(exc)) from None


def _conflict(lines: Sequence[str], numbers: Sequence[int], line_no: int, clause: Clause,
              prev: Probability) -> KBParseError:
    """The error for line ``line_no`` giving ``clause`` a second probability.
    The line that gave the first is looked for only here, so parsing keeps
    no per-line record."""
    first = next(n for n, _, clause_text in _clause_lines(lines, numbers)
                 if _parse_clause(clause_text, n, {}) == clause)
    return KBParseError(
        line_no,
        f"clause {clause} already given probability {float(prev):.6f} on line {first}",
    )


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the one-clause-per-line text format.

    Grammar per line: ``prob SP lit (" | " lit)*`` where ``lit`` is an
    optionally ``!``-prefixed atom (``pos``, a bare name, or ``name=value``).
    ``#`` starts a comment; blank lines are skipped.  Probabilities are
    parsed as exact decimals.

    A rule line, ``pos`` and negated feature-value literals in any order
    that canonicalise to a rule (a repeated literal collapses, as in
    ``pos | pos | !a=1``, but no feature takes two values), becomes a row
    of ``counts`` with its probability's ``(denominator, numerator)``, one
    tuple shared by the rows of equal probability, and builds no clause
    object, so a saved learned model parses without one; only a rule line
    numbers pairs into ``bits``, its new ones in token order once it passes
    the rule test.  Any other line is built as a :class:`Clause`, which is
    never a rule: it lacks ``pos``, gives a feature two values, or holds
    ``!pos``, a bare atom or a positive feature-value literal.
    """
    lines = text.splitlines()
    return _parse_lines(lines, range(1, len(lines) + 1))


def _parse_lines(lines: Sequence[str], numbers: Sequence[int]) -> KnowledgeBase:
    """:func:`parse_kb`'s loop over ``lines``, numbered by ``numbers``: the
    KB holds their clauses in line order."""
    counts: dict[int, tuple[int, int]] = {}
    entries: dict[tuple[int, int], tuple[int, int]] = {}  # each entry -> its shared tuple
    others: dict[Clause, WeightedClause] = {}
    bits = AtomBits()
    fbits: dict[str, int] = {}  # feature -> its bit, to count a line's features
    # rule literal text -> POS, or its pair's bit (0 until the table has
    # one, which never changes), its feature's bit and its pair
    parts: dict[str, Atom | tuple[int, int, Pair]] = {}
    literals: dict[str, Literal] = {}  # literal text -> its literal, shared by clauses
    for line_no, prob, clause_text in _clause_lines(lines, numbers):
        body = features = n_pos = 0
        new: tuple[Pair, ...] = ()  # the line's distinct pairs the table lacks, in token order
        for tok in clause_text.split("|"):
            part = parts.get(tok)
            if part is None:
                lit = _parse_literal(tok, line_no)
                if lit == _POS_LITERAL:
                    part = POS
                elif lit.negated and lit.atom.value is not None:
                    feature, value = lit.atom.feature, lit.atom.value
                    part = (0, fbits.setdefault(feature, 1 << len(fbits)), (feature, value))
                else:
                    break
                parts[tok] = part
            if part is POS:
                n_pos += 1
                continue
            bit, fbit, pair = part
            if not bit:
                bit = bits.get(pair, 0)
                if bit:
                    parts[tok] = (bit, fbit, pair)
                elif pair not in new:
                    new += (pair,)
            body |= bit
            features |= fbit
        else:
            if n_pos and features.bit_count() == body.bit_count() + len(new):
                for pair in new:
                    body |= bits.add(pair)
                entry = (prob.denominator, prob.numerator)
                entry = entries.setdefault(entry, entry)
                prev = counts.setdefault(body, entry)
                if prev != entry:
                    raise _conflict(lines, numbers, line_no, _coded_rule(body, bits.atoms, {}),
                                    Fraction(prev[1], prev[0]))
                continue
        clause = _parse_clause(clause_text, line_no, literals)
        prev_prob = others.setdefault(clause, WeightedClause(prob, clause)).probability
        if prev_prob != prob:
            raise _conflict(lines, numbers, line_no, clause, prev_prob)
    return KnowledgeBase(others.values(), counts, bits)


# The text a rule line gives a body pair: rule lines are "pos" and these,
# in pair order, as serialize_kb writes them and read_model looks them up.
_body_literal = " | !{}={}".format


def serialize_kb(kb: KnowledgeBase) -> str:
    """Render one line per clause, sorted by the clause's canonical text.

    Each probability is written exactly, as its ``Fraction``'s ``n/d``
    (``1`` and ``0`` alone), once per distinct ``(total, pos)``, so the
    text parses back to the same KB.  A rule's text is its parent's (its
    body less its last pair in pair order) plus one ``" | !f=v"``.  Two
    memos make that one step per row of a direct table, which lists
    parents first: code -> the body's code renumbered into pair order, read
    off that of the code less its lowest bit, whose top bit names the
    literal to append; and renumbered code -> text.  A row whose code less
    its lowest bit has no renumbered code yet (the body-less rule, a tree
    leaf, most rows of a parsed or merged KB) is renumbered through
    :func:`bit_positions`, then written from its parent's text when that
    exists (a parsed model lists parents first too: a parent's text is a
    prefix of its child's), and as ``pos`` and its pairs' texts in pair
    order otherwise."""
    order = sorted(range(len(kb.atoms)), key=kb.atoms.__getitem__)
    texts = [_body_literal(*kb.atoms[i]) for i in order]
    place = {1 << i: 1 << r for r, i in enumerate(order)}  # a pair's bit -> its bit in pair order
    ranked = {0: 0}  # code -> the body's code in pair order
    clause_of = {0: "pos"}  # code in pair order -> its clause text
    clauses = []
    for code in kb.counts:
        try:
            low = code & -code
            r = ranked[code] = ranked[code ^ low] | place[low]
            top = r.bit_length() - 1
            text = clause_of[r] = clause_of[r ^ 1 << top] + texts[top]
        except KeyError:  # the empty body, or a parent not met yet
            r = ranked[code] = sum(place[1 << i] for i in bit_positions(code))
            top = r.bit_length() - 1
            parent = clause_of.get(r ^ 1 << top) if r else None
            text = clause_of[r] = ("pos" + "".join(texts[i] for i in bit_positions(r))
                                   if parent is None else parent + texts[top])
        clauses.append(text)
    del ranked, clause_of  # free the memos before the sort
    clauses += (str(wc.clause) for wc in kb.others)
    probs = {e: str(Fraction(e[1], e[0])) + " " for e in set(kb.counts.values())}
    heads = [*map(probs.__getitem__, kb.counts.values()),
             *(str(Fraction(wc.probability)) + " " for wc in kb.others)]
    by_text = sorted(range(len(clauses)), key=clauses.__getitem__)
    return "\n".join([heads[i] + clauses[i] for i in by_text])


def feature_names(kb: KnowledgeBase) -> list[str]:
    """The features of the KB's feature-value atoms, sorted."""
    return sorted({a.feature for a in kb.universe if a.value is not None})


# A header that allows a query-scoped load: the model holds only rules.
_SCOPED_HEADER = re.compile(rb"# plkb 2 crc32=([0-9a-f]{8}) (others=0 features=(\S*)\n)")
# The UTF-8 of the characters besides "\n" that ``str.splitlines`` breaks a
# line at: a body holding one is parsed whole.  The wide ones take more than
# one byte, so only a body that is not ASCII can hold them.
_OTHER_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_WIDE_BREAKS = tuple(c.encode() for c in "\x85\u2028\u2029")


def write_model(kb: KnowledgeBase, path) -> None:
    """Save ``kb`` to ``path`` as a model file (see the module docstring).
    The text is encoded once, and those bytes are both checksummed and
    written."""
    fields = f"others={len(kb.others)} features={','.join(feature_names(kb))}\n".encode()
    body = serialize_kb(kb).encode()
    crc = zlib.crc32(b"\n", zlib.crc32(body, zlib.crc32(fields)))
    with open(path, "wb") as fh:
        fh.writelines((b"# plkb 2 crc32=%08x " % crc, fields, body, b"\n"))


def read_model(raw: bytes, query: Mapping[str, str]) -> tuple[KnowledgeBase, list[str]] | None:
    """The rules of the model file ``raw`` whose body ``query`` asserts, and
    the model's feature names; None when the whole file must be parsed.

    The rules are those :func:`~plkb.direct.relevant_kb` selects from the
    whole model, in the order it selects them, read without parsing or
    decoding any other line: each candidate body, a subset of the query's
    pairs in :func:`subset_codes` order, is looked up by bisecting the
    file's sorted lines in place, as bytes, on its clause text (UTF-8 byte
    order is code-point order), and every line found with that text goes
    through :func:`parse_kb`'s loop, so a malformed one, or one giving a
    body a second probability, raises the :class:`KBParseError` a whole
    parse would, under its own line number.  A query pair that is no atom
    lies in no body and adds no candidate.  None is returned, and nothing
    is parsed, unless the file starts with a v2 header whose checksum
    holds, the model holds only rules, the body is UTF-8 that
    ``str.splitlines`` breaks at ``"\\n"`` alone (so a line's number is one
    more than the newlines before it), and :func:`lookup_pays` for the
    candidates at one bisect per line; then the whole model's selection
    looks its rows up too, in this order.
    """
    m = _SCOPED_HEADER.match(raw)
    if m is None or zlib.crc32(memoryview(raw)[m.start(2):]) != int(m[1], 16):
        return None
    start, end = m.end(), len(raw)
    breaks = _OTHER_BREAKS
    try:
        features = m[3].decode()
        if not raw.isascii():
            str(memoryview(raw)[start:], "utf-8")
            breaks += _WIDE_BREAKS
    except UnicodeDecodeError:
        return None
    if any(raw.find(b, start) >= 0 for b in breaks):
        return None
    pairs = sorted(p for p in query.items() if _NAME_RE.match(p[0]) and _NAME_RE.match(p[1]))
    # The price only falls as lines are counted: the newlines of a prefix
    # often settle it before the whole body's count.
    n = len(pairs)
    if not (lookup_pays(n, n, raw.count(b"\n", start, start + 65536), per_row=1)
            or lookup_pays(n, n, raw.count(b"\n", start) + (not raw.endswith(b"\n")),
                           per_row=1)):
        return None
    texts = [_body_literal(*pair).encode() for pair in pairs]
    clause_of = {0: b"pos"}  # candidate code over ``pairs`` -> its clause text
    hits, offsets = [], []  # the lines found, and where each starts
    for code in subset_codes([1 << i for i in range(n)], n):
        if code:
            top = code.bit_length() - 1
            clause_of[code] = clause_of[code ^ 1 << top] + texts[top]
        text = clause_of[code]
        # lines starting before ``lo`` sort below ``text``; from ``hi`` on, not
        lo, hi = start, end
        while lo < hi:
            line = raw.rfind(b"\n", lo, (lo + hi) // 2) + 1 or lo
            stop = raw.find(b"\n", line) % (end + 1)  # end for a last line without "\n"
            if raw[line:stop].partition(b" ")[2] < text:
                lo = stop + 1
            else:
                hi = line
        while lo < end:
            stop = raw.find(b"\n", lo) % (end + 1)
            if raw[lo:stop].partition(b" ")[2] != text:
                break
            hits.append(raw[lo:stop].decode())
            offsets.append(lo)
            lo = stop + 1
    try:  # the offsets stand in for line numbers until a line fails
        kb = _parse_lines(hits, offsets)
    except KBParseError:  # again under the numbers, for a whole parse's error
        kb = _parse_lines(hits, [raw.count(b"\n", start, at) + 2 for at in offsets])
    return kb, features.split(",") if features else []


def merge(kb: KnowledgeBase, extra: Sequence[WeightedClause]) -> KnowledgeBase:
    """Overlay hand-written clauses onto a learned knowledge base.

    Supplied clauses must contain the class atom positively.  A clause that
    already exists keeps its position but takes the supplied probability:
    domain knowledge wins over the learned value, as a later supplied
    duplicate wins over an earlier one.  Inconsistency between the merged
    clauses is fine; inference tolerates it.  The :class:`KnowledgeBase`
    constructor builds the extras over a copy of ``kb``'s atom table.
    """
    for wc in extra:
        if not wc.clause.has_positive(POS):
            raise ValueError(
                f"merged clause {wc.clause} does not contain {CLASS_ATOM_NAME!r} positively"
            )
    supplied = KnowledgeBase({wc.clause: wc for wc in extra}.values(), bits=AtomBits(kb.atoms))
    others = {wc.clause: wc for wc in (*kb.others, *supplied.others)}
    return KnowledgeBase(others.values(), {**kb.counts, **supplied.counts}, supplied.bits)
