"""Shared test fixtures: the worked example dataset, random generators,
independent brute-force oracles and an in-process command-line runner."""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, count, product
from math import comb, inf
from unittest.mock import patch

from hypothesis import strategies as st

import plkb.lp as lp_module
from plkb.data import Dataset, from_rows
from plkb.direct import build_direct_kb, relevant_kb
from plkb.evaluate import classify_query
from plkb.explain import Explanation, evaluate_sub_query
from plkb.kb import (
    POS,
    Atom,
    Clause,
    KBParseError,
    KnowledgeBase,
    Literal,
    WeightedClause,
    _atom_sort_key,
    _clause_lines,
    _coded_rule,
    _parse_literal,
    merge,
    parse_kb,
    rule_clause,
)
from plkb.lp import (
    LABEL_EPS,
    InferenceResult,
    LinearProgram,
    Rows,
    _bounded_target,
    _presolve,
    _result,
    apply_query,
    build_lp,
    infer_pos,
)
from plkb.tree import build_id3, kb_from_tree

# Slack on the reference solves' cap row ``objective @ x <= v* + CAP_SLACK``:
# it absorbs solver noise in v* while the bound inflation it causes (the
# slack divided by the deviation's slope) stays under the 1e-6 tolerances
# the bounds are checked at.
CAP_SLACK = 1e-7

# Eight labelled bit-strings over features a1..a4; small enough to check
# every derived number by hand.
POSITIVE_STRINGS = ["0000", "1111", "1010", "1100"]
NEGATIVE_STRINGS = ["0010", "0100", "1110", "1000"]
STRING_FEATURES = ["a1", "a2", "a3", "a4"]


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Runs ``main(args)`` in this process with stdout and stderr captured.
    A ``SystemExit``, as argparse raises on ``--help`` and on a usage error,
    gives the exit code; with ``catch_exceptions``, any other exception
    exits 1."""

    def invoke(self, main, args, catch_exceptions: bool = True) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                if not catch_exceptions:
                    raise
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue())


def eight_strings_dataset() -> Dataset:
    rows = [(tuple(s), True) for s in POSITIVE_STRINGS]
    rows += [(tuple(s), False) for s in NEGATIVE_STRINGS]
    return from_rows(STRING_FEATURES, rows)


def monk1_dataset() -> Dataset:
    """MONK's problem 1 (Thrun et al., 1991), every one of its 432 rows:
    attributes a1..a6 taking values 1..3, 1..3, 1..2, 1..3, 1..4 and 1..2,
    and a row is positive when ``a1 = a2`` or ``a5 = 1`` (216 rows)."""
    return _monk_dataset(lambda values: values[0] == values[1] or values[4] == 1)


def _monk_dataset(concept) -> Dataset:
    """The 432 rows of the MONK's problems, each labelled by ``concept``
    of its tuple of attribute values."""
    rows = [
        (tuple(map(str, values)), concept(values))
        for values in product(*(range(1, n + 1) for n in (3, 3, 2, 3, 4, 2)))
    ]
    return from_rows([f"a{i}" for i in range(1, 7)], rows)


def monk2_dataset() -> Dataset:
    """MONK's problem 2 over :func:`monk1_dataset`'s 432 rows: a row is
    positive when exactly two of its six attributes take value 1 (142
    rows)."""
    return _monk_dataset(lambda values: values.count(1) == 2)


def monk3_dataset() -> Dataset:
    """MONK's problem 3 over :func:`monk1_dataset`'s 432 rows, without the
    original's label noise: a row is positive when ``a5 = 3 and a4 = 1``
    or ``a5 != 4 and a2 != 3`` (228 rows)."""
    return _monk_dataset(lambda v: (v[4] == 3 and v[3] == 1) or (v[4] != 4 and v[1] != 3))


def query_from_string(s: str) -> dict[str, str]:
    return {f"a{i}": ch for i, ch in enumerate(s, start=1)}


def empirical_probability(ds: Dataset, pairs) -> Fraction | None:
    """Brute-force recount: P(label | all pairs hold), None if unsupported."""
    total = 0
    pos = 0
    for inst in ds.instances:
        if all(inst.values[f] == v for f, v in pairs):
            total += 1
            pos += int(inst.label)
    if total == 0:
        return None
    return Fraction(pos, total)


def random_dataset(rng: random.Random, max_features=6, max_values=3, max_rows=40) -> Dataset:
    n_features = rng.randint(1, max_features)
    n_values = rng.randint(2, max_values)
    n_rows = rng.randint(2, max_rows)
    features = [f"f{i}" for i in range(1, n_features + 1)]
    values = [str(v) for v in range(n_values)]
    rows = []
    for _ in range(n_rows):
        vals = tuple(rng.choice(values) for _ in features)
        rows.append((vals, rng.random() < 0.5))
    return from_rows(features, rows)


def world_probabilities(rng: random.Random, n_atoms: int) -> list[float]:
    weights = [rng.random() + 1e-9 for _ in range(2 ** n_atoms)]
    total = sum(weights)
    return [w / total for w in weights]


def random_clause_over(rng: random.Random, atoms: list[Atom]) -> Clause:
    size = rng.randint(1, len(atoms))
    chosen = rng.sample(atoms, size)
    return Clause(Literal(a, rng.random() < 0.5) for a in chosen)


def clause_probability_from_worlds(clause: Clause, atoms: list[Atom], omega: list[float]) -> float:
    """Sum the world probabilities of every complete conjunction that
    satisfies the clause (the falsifying pattern is unique)."""
    idx = {a: i for i, a in enumerate(atoms)}
    mask = 0
    want = 0
    for lit in clause.literals:
        bit = 1 << idx[lit.atom]
        mask |= bit
        if lit.negated:
            want |= bit
    return sum(p for w, p in enumerate(omega) if (w & mask) != want)


def _clause_count_cap(n_atoms: int, n_clauses: int) -> int:
    # there are 3^n - 1 distinct clauses over n atoms (each atom absent,
    # positive, or negated)
    return min(n_clauses, 3 ** n_atoms - 1)


def satisfiable_random_kb(
    rng: random.Random, n_atoms: int, n_clauses: int
) -> tuple[KnowledgeBase, list[Atom]]:
    """A KB whose clause probabilities come from an explicit random world
    distribution, hence satisfiable by construction."""
    atoms = [Atom(f"x{i}") for i in range(1, n_atoms + 1)]
    omega = world_probabilities(rng, n_atoms)
    by_clause = {}
    while len(by_clause) < _clause_count_cap(n_atoms, n_clauses):
        clause = random_clause_over(rng, atoms)
        if clause in by_clause:
            continue
        p = clause_probability_from_worlds(clause, atoms, omega)
        by_clause[clause] = WeightedClause(min(max(p, 0.0), 1.0), clause)
    return KnowledgeBase(by_clause.values()), atoms


def arbitrary_random_kb(
    rng: random.Random, n_atoms: int, n_clauses: int
) -> tuple[KnowledgeBase, list[Atom]]:
    """A KB with arbitrary clause probabilities; may be unsatisfiable."""
    atoms = [Atom(f"x{i}") for i in range(1, n_atoms + 1)]
    by_clause = {}
    while len(by_clause) < _clause_count_cap(n_atoms, n_clauses):
        clause = random_clause_over(rng, atoms)
        if clause in by_clause:
            continue
        by_clause[clause] = WeightedClause(rng.random(), clause)
    return KnowledgeBase(by_clause.values()), atoms


def relevant_kb_scan(query, kb: KnowledgeBase) -> KnowledgeBase:
    """Reference implementation of relevant extraction: scan every clause
    and keep the rules whose body is a subset of the query, a body-less
    ``[p] pos`` included."""
    pairs = set(query.items())
    selected = [
        wc for wc in kb.clauses if wc.clause.is_rule_shaped and wc.clause.body <= pairs
    ]
    return KnowledgeBase(selected)


def tuple_counts(kb: KnowledgeBase) -> dict:
    """A KB's rows keyed the way ``counts`` was keyed before rule bodies
    were coded: each code decoded bit by bit through ``kb.atoms`` into a
    sorted tuple of (feature, value) pairs, in ``counts`` order."""
    return {
        tuple(sorted(pair for i, pair in enumerate(kb.atoms) if code >> i & 1)): entry
        for code, entry in kb.counts.items()
    }


def reference_select(query, kb: KnowledgeBase) -> dict:
    """Reference implementation of ``plkb.direct._select`` over
    :func:`tuple_counts`: the query's subsets as sorted tuples up to the
    longest body, looked up one by one, or the keys scanned when that many
    lookups would dwarf the rows."""
    pairs = set(query.items())
    counts = tuple_counts(kb)
    hi = min(max(map(len, counts), default=0), len(pairs))
    if sum(comb(len(pairs), k) for k in range(hi + 1)) <= 8 * len(counts) + 64:
        ordered = sorted(pairs)
        hits = {}
        for k in range(hi + 1):
            for key in combinations(ordered, k):
                entry = counts.get(key)
                if entry is not None:
                    hits[key] = entry
        return hits
    return {key: entry for key, entry in counts.items() if pairs.issuperset(key)}


def reference_presolve(kb: KnowledgeBase, query):
    """Reference implementation of ``plkb.lp._presolve`` with target
    ``pos`` over :func:`tuple_counts`: ``(constant, probs, rest)``, each
    rule decided pair by pair, then the clause objects of ``kb.others``."""
    constant = 0.0
    probs: list[float] = []
    rest: list[WeightedClause] = []
    pairs = set(query.items())
    for key, (total, pos) in tuple_counts(kb).items():
        p = pos / total
        if pairs.issuperset(key):
            probs.append(p)
            continue
        free = []
        for pair in key:
            value = query.get(pair[0])
            if value is None:
                free.append(pair)
            elif value != pair[1]:
                constant += 1.0 - p
                break
        else:
            rest.append(WeightedClause(p, rule_clause(free)))
    for wc in kb.others:
        p = float(wc.probability)
        kept = []
        for lit in wc.clause.literals:
            value = None if lit.atom.value is None else query.get(lit.atom.feature)
            if value is None:
                kept.append(lit)
            elif (value == lit.atom.value) != lit.negated:
                constant += 1.0 - p
                break
        else:
            if not kept:
                constant += p
            elif tuple(kept) == (Literal(POS),):
                probs.append(p)
            elif len(kept) == len(wc.clause.literals):
                rest.append(wc)
            else:
                rest.append(WeightedClause(wc.probability, Clause(kept)))
    return constant, probs, rest


def decoded_presolve(kb: KnowledgeBase, query):
    """``plkb.lp._presolve`` in :func:`reference_presolve`'s form
    ``(constant, probs, rest)``: each coded residual rule decoded into its
    clause with ``plkb.kb._coded_rule``, ahead of the residual clauses."""
    constant, probs, rules, rest = _presolve(kb, query)
    literals: dict = {}
    decoded = [WeightedClause(p, _coded_rule(code, kb.atoms, literals)) for p, code in rules]
    return constant, probs, [*decoded, *rest]


def reference_build_lp(clauses) -> LinearProgram:
    """Reference implementation of :func:`plkb.lp.build_lp` over clause
    objects only: the atoms of the clauses in sorted order, then ``d<i>``
    per clause; rows clause by clause, ``-d_i - sum_z pi(z) <= -p_i``,
    then ``pi(z) - d_i <= p_i`` per literal."""
    clauses = tuple(clauses)
    if not clauses:
        raise ValueError("cannot build a program from an empty knowledge base")
    atoms = sorted({a for wc in clauses for a in wc.clause.atoms}, key=_atom_sort_key)
    atom_index = {a: i for i, a in enumerate(atoms)}
    n, m = len(atoms), len(clauses)
    indptr, indices, data, rhs = [0], [], [], []
    for i, wc in enumerate(clauses):
        d, p = n + i, float(wc.probability)
        lits = [(atom_index[lit.atom], lit.negated) for lit in wc.clause.literals]
        indices.append(d)
        data.append(-1.0)
        for x, negated in lits:
            indices.append(x)
            data.append(1.0 if negated else -1.0)
        rhs.append(sum(negated for _, negated in lits) - p)
        indptr.append(len(indices))
        for x, negated in lits:
            indices += (x, d)
            data += (-1.0 if negated else 1.0, -1.0)
            rhs.append(p - 1.0 if negated else p)
            indptr.append(len(indices))
    return LinearProgram(
        variables=(*map(str, atoms), *(f"d{i}" for i in range(m))),
        constraints=Rows(indptr, indices, data, rhs),
        objective=(0.0,) * n + (1.0,) * m,
        bounds=((0.0, 1.0),) * n + ((0.0, None),) * m,
        atom_index=atom_index,
    )


def without_box_satisfied_rows(program: LinearProgram) -> LinearProgram:
    """``program`` less every row that each point within its bounds
    satisfies: a row whose greatest activity, each coefficient times the
    bound where that term is greatest, is at most its right-hand side.
    Worked out from the coefficients and the bounds alone; the rows left
    keep their order."""
    rows = program.constraints
    indptr, indices, data, rhs = [0], [], [], []
    for r, b in enumerate(rows.rhs):
        span = range(rows.indptr[r], rows.indptr[r + 1])
        greatest = 0.0
        for j in span:
            lo, hi = program.bounds[rows.indices[j]]
            coef = rows.data[j]
            if coef < 0:
                greatest += coef * lo
            else:
                greatest += inf if hi is None else coef * hi
        if greatest > b:
            indices += (rows.indices[j] for j in span)
            data += (rows.data[j] for j in span)
            rhs.append(b)
            indptr.append(len(indices))
    return replace(program, constraints=Rows(indptr, indices, data, rhs))


def reference_serialize(clauses) -> str:
    """Reference implementation of :func:`plkb.kb.serialize_kb` for any
    iterable of weighted clauses: one clause object per line, rendered with
    ``str`` and sorted by the clause's text, its probability the exact
    text of its ``Fraction``."""
    lines = sorted((str(wc.clause), str(Fraction(wc.probability))) for wc in clauses)
    return "\n".join(f"{prob} {clause}" for clause, prob in lines)


def reference_parse(text: str) -> list[WeightedClause]:
    """Reference implementation of :func:`plkb.kb.parse_kb`: every line
    built as a clause object, the clauses in line order with same-clause
    duplicates collapsed, and a duplicate with another probability
    reported with the line that gave the first."""
    out: list[WeightedClause] = []
    seen: dict[Clause, tuple[int, Fraction]] = {}
    parsed: dict[str, Literal] = {}  # literal text -> its literal, shared by clauses
    for line_no, prob, clause_text in _clause_lines(text.splitlines(), count(1)):
        literals = []
        for tok in clause_text.split("|"):
            lit = parsed.get(tok)
            if lit is None:
                lit = parsed[tok] = _parse_literal(tok, line_no)
            literals.append(lit)
        try:
            clause = Clause(literals)
        except ValueError as exc:
            raise KBParseError(line_no, str(exc)) from None
        prev = seen.get(clause)
        if prev is not None:
            prev_line, prev_prob = prev
            if prev_prob != prob:
                raise KBParseError(
                    line_no,
                    f"clause {clause} already given probability "
                    f"{float(prev_prob):.6f} on line {prev_line}",
                )
            continue
        seen[clause] = (line_no, prob)
        out.append(WeightedClause(prob, clause))
    return out


def reference_program(clauses):
    """The paper's program, in the layout ``plkb.lp`` solved before it
    solved the projection onto the atoms.

    Variables: pi(a), pi(!a) per atom, then pi(c_i) per clause, then the
    pair e+_i, e-_i per clause.  Rows: pi(c_i) <= sum of pi(z) and
    pi(z) <= pi(c_i) (``<=``); pi(a) + pi(!a) = 1 and
    pi(c_i) - e+_i + e-_i = p_i (``==``).  The objective sums the pairs.
    Returns ``(c, a_ub, b_ub, a_eq, b_eq, bounds, column)`` as dense
    arrays, ``column`` mapping each atom to its pi(a) variable.
    """
    import numpy as np

    clauses = list(clauses)
    atoms = sorted({a for wc in clauses for a in wc.clause.atoms}, key=str)
    n, m = len(atoms), len(clauses)
    column = {a: 2 * i for i, a in enumerate(atoms)}
    n_vars = 2 * n + 3 * m

    def row(*terms):
        r = np.zeros(n_vars)
        for col, coef in terms:
            r[col] += coef
        return r

    ub, b_ub, eq, b_eq = [], [], [], []
    for i, wc in enumerate(clauses):
        ci, ep = 2 * n + i, 2 * n + m + 2 * i
        lits = [column[lit.atom] + lit.negated for lit in wc.clause.literals]
        ub.append(row((ci, 1.0), *((z, -1.0) for z in lits)))
        b_ub.append(0.0)
        for z in lits:
            ub.append(row((z, 1.0), (ci, -1.0)))
            b_ub.append(0.0)
        eq.append(row((ci, 1.0), (ep, -1.0), (ep + 1, 1.0)))
        b_eq.append(float(wc.probability))
    for a in atoms:
        eq.append(row((column[a], 1.0), (column[a] + 1, 1.0)))
        b_eq.append(1.0)
    c = np.zeros(n_vars)
    c[2 * n + m:] = 1.0
    bounds = [(0.0, 1.0)] * (2 * n + m) + [(0.0, None)] * (2 * m)
    return c, np.array(ub), np.array(b_ub), np.array(eq), np.array(b_eq), bounds, column


def _ub(lp: LinearProgram, cap: float | None = None):
    """A_ub as a CSR array and b_ub, or (None, None) without rows; with a
    ``cap``, the row ``objective @ x <= cap`` comes last."""
    import numpy as np
    from scipy.sparse import csr_array

    rows = lp.constraints
    indptr, indices, data, rhs = rows.indptr, rows.indices, rows.data, rows.rhs
    if cap is not None:
        cols = [j for j, coef in enumerate(lp.objective) if coef]
        indptr = [*indptr, indptr[-1] + len(cols)]
        indices = [*indices, *cols]
        data = [*data, *(lp.objective[j] for j in cols)]
        rhs = [*rhs, cap]
    if not rhs:
        return None, None
    a = csr_array((data, indices, indptr), shape=(len(rhs), lp.n_variables))
    return a, np.array(rhs)


def reference_bounded_target(lp: LinearProgram, target_var: int | None):
    """Reference implementation of :func:`plkb.lp._bounded_target`: three
    cold ``linprog(method="highs")`` solves of the program, the second and
    third with the cap row ``objective @ x <= v* + CAP_SLACK`` appended."""
    import numpy as np
    from scipy.optimize import linprog

    def optimum(c, a_ub, b_ub):
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=lp.bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"internal error: {res.message}")
        return res

    v_star = float(optimum(lp.objective, *_ub(lp)).fun)
    if target_var is None:
        return v_star, None, None
    a_ub, b_ub = _ub(lp, v_star + CAP_SLACK)
    ct = np.zeros(lp.n_variables)
    ct[target_var] = 1.0
    lo = float(optimum(ct, a_ub, b_ub).x[target_var])
    hi = float(optimum(-ct, a_ub, b_ub).x[target_var])
    return v_star, lo, hi


def stop_highs_at_time_limit(monkeypatch) -> str:
    """Give every HiGHS run of ``plkb.lp`` no time to solve, so its model
    status is not optimal; returns HiGHS's name for that status."""
    from scipy.optimize._highspy import _core

    class TimedOut(_core._Highs):
        def run(self):
            self.setOptionValue("time_limit", 0.0)
            return super().run()

    monkeypatch.setattr(_core, "_Highs", TimedOut)
    return "Time limit reached"


def unpresolved_infer(kb: KnowledgeBase, query=None, target: Atom = POS) -> InferenceResult:
    """``infer_pos`` without its presolve: the three-stage solve of the
    whole program, every query pair fixing its feature's atoms."""
    if len(kb) == 0:
        return _result(0.0, 0.0, 1.0)
    lp = apply_query(build_lp(kb), query or {})
    return _result(*_bounded_target(lp, lp.atom_index[target]))


# (kb, query, target) on which HiGHS's presolve calls stages 2 and 3 of
# the paper's program infeasible; ``plkb.lp`` answers it, presolved or not.
PRESOLVE_TRAP = (
    parse_kb("0 pos | !f3=0\n0.05 !pos | !f1=0\n0 f1=1"), {"f1": "1", "f3": "0"}, POS
)


def reference_infer(kb: KnowledgeBase, query, target: Atom = POS) -> InferenceResult:
    """The three-stage solve of :func:`reference_program` over the whole KB:
    v*, then the least and greatest pi(target) with the deviation held
    within v* + CAP_SLACK, every query pair fixing its feature's atoms.

    Stages 2 and 3 run without HiGHS's presolve, which can call the capped
    program infeasible when it is not (:data:`PRESOLVE_TRAP`)."""
    import numpy as np
    from scipy.optimize import linprog

    if len(kb) == 0:
        return _result(0.0, 0.0, 1.0)
    c, a_ub, b_ub, a_eq, b_eq, bounds, column = reference_program(kb.clauses)
    for atom, col in column.items():
        if atom.value is not None and atom.feature in query:
            fixed = float(atom.value == query[atom.feature])
            bounds[col] = (fixed, fixed)

    def optimum(objective, a_ub, b_ub, options=None):
        res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs", options=options)
        assert res.status == 0, res.message
        return res

    v_star = optimum(c, a_ub, b_ub).fun
    a_ub, b_ub = np.vstack([a_ub, c]), np.append(b_ub, v_star + CAP_SLACK)
    ct = np.zeros(len(c))
    ct[column[target]] = 1.0
    no_presolve = {"presolve": False}
    lo = optimum(ct, a_ub, b_ub, no_presolve).x[column[target]]
    hi = optimum(-ct, a_ub, b_ub, no_presolve).x[column[target]]
    return _result(v_star, lo, hi)


def explanation_loop(query, kb: KnowledgeBase, k: int, *, use_relevant=True):
    """Reference implementation of explanation search: one inference per
    size-k sub-query, then the extremum with ties broken on the
    serialized sub-query.  With ``use_relevant`` a sub-query is answered
    on its own relevant sub-KB, the direction follows ``classify_query``'s
    label for the full query and only equal scores tie; without it every
    query is one ``evaluate_sub_query`` call on the whole KB and a score
    within ``LABEL_EPS`` of the extremum ties with it."""
    query = dict(query)
    if not 1 <= k <= len(query):
        raise ValueError(f"k={k} out of range for a query of {len(query)} features")
    subs = list(map(dict, combinations(sorted(query.items()), k)))
    if use_relevant:
        positive = classify_query(kb, query).label
        scored = [(sub, infer_pos(relevant_kb(sub, kb), sub).p_avg) for sub in subs]
    else:
        positive = evaluate_sub_query(query, kb).label
        scored = [(sub, evaluate_sub_query(sub, kb).p_avg) for sub in subs]
    best = (max if positive else min)(score for _, score in scored)
    tolerance = 0.0 if use_relevant else LABEL_EPS

    def serialized(scored_sub):
        return ",".join(f"{f}={v}" for f, v in sorted(scored_sub[0].items()))

    best_sub, best_score = min(
        (t for t in scored if abs(t[1] - best) <= tolerance), key=serialized
    )
    return Explanation(
        sub_query=best_sub, score=best_score, direction="max" if positive else "min"
    )


def kb_from_tree_clauses(tree, mode: str = "leaves") -> KnowledgeBase:
    """Reference implementation of tree extraction: one clause object per
    taken root-to-node path, in depth-first order, as a plain KB."""
    out: list[WeightedClause] = []

    def walk(node, path):
        take = node.is_leaf if mode == "leaves" else node.incoming_edge is not None
        if take:
            prob = Fraction(node.n_positive, node.n_total)
            out.append(WeightedClause(prob, rule_clause(path)))
        for value in sorted(node.children):
            child = node.children[value]
            walk(child, path + [child.incoming_edge])

    walk(tree, [])
    return KnowledgeBase(out)


def all_subsets(pairs):
    items = sorted(pairs)
    for k in range(1, len(items) + 1):
        yield from combinations(items, k)


@st.composite
def mixed_kbs_and_queries(draw):
    """A KB of every clause shape, a target and a full or partial query.

    Literals come from ``pos``, a bare proposition, feature values of
    f1..f3 and of the target feature t, either polarity, so the KB mixes
    rules, positive ``f=v`` literals, ``!pos`` and bare atoms; it may be
    empty or miss the target.  Twin clauses ``target | !f=v`` (and
    ``target``) reduce to the same residual when the query asserts
    ``f=v``.
    """
    features = ["f1", "f2", "f3"]
    values = ["0", "1", "2"]
    query = {}
    for f in features:
        v = draw(st.none() | st.sampled_from([*values, "9"]))
        if v is not None:
            query[f] = v
    target = draw(st.sampled_from([POS, Atom("t", "0")]))
    if target != POS and draw(st.booleans()):
        query["t"] = draw(st.sampled_from(["0", "1"]))
    pool = [POS, Atom("b"), Atom("t", "0"), Atom("t", "1")]
    pool += [Atom(f, v) for f in features for v in values]
    prob = st.integers(0, 20).map(lambda i: i / 20)
    by_clause = {}
    for lits in draw(st.lists(
        st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                 min_size=1, max_size=4, unique_by=lambda t: t[0]),
        min_size=0, max_size=8,
    )):
        clause = Clause(Literal(a, neg) for a, neg in lits)
        by_clause.setdefault(clause, WeightedClause(draw(prob), clause))
    twins = [Clause([Literal(target)])] if draw(st.booleans()) else []
    for f, v in query.items():
        if f != "t" and draw(st.booleans()):
            twins.append(Clause([Literal(target), Literal(Atom(f, v), True)]))
    for clause in twins:
        by_clause.setdefault(clause, WeightedClause(draw(prob), clause))
    return KnowledgeBase(by_clause.values()), query, target


@st.composite
def datasets_and_queries(draw):
    """A small dataset, a max_arity, and queries over its features: full
    and partial, with values both seen and unseen in training."""
    n_features = draw(st.integers(1, 4))
    features = [f"f{i}" for i in range(1, n_features + 1)]
    values = [str(v) for v in range(draw(st.integers(2, 3)))]
    value = st.sampled_from(values)
    rows = draw(st.lists(
        st.tuples(st.tuples(*[value] * n_features), st.booleans()),
        min_size=1, max_size=12,
    ))
    max_arity = draw(st.none() | st.integers(1, n_features))
    query_value = st.none() | st.sampled_from([*values, "9"])
    queries = [dict(zip(features, vals)) for vals, _ in rows[:2]]
    for _ in range(3):
        drawn = draw(st.tuples(*[query_value] * n_features))
        queries.append({f: v for f, v in zip(features, drawn) if v is not None})
    return from_rows(features, rows), max_arity, queries


CODED_FEATURES = [f"a{i}" for i in range(1, 11)]
CODED_VALUES = ["0", "1", "2"]
_eighths = st.integers(0, 8).map(lambda n: Fraction(n, 8))


@st.composite
def _parsed_kb(draw, features):
    """A parsed model: rule lines with their literals in any order, so atoms
    arrive out of sorted order, and now and then a clause that is not a
    rule."""
    bodies = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(features), st.sampled_from(CODED_VALUES)),
                 max_size=len(features), unique_by=lambda pair: pair[0]),
        max_size=10, unique_by=frozenset,
    ))
    lines = []
    for body in bodies:
        lits = draw(st.permutations(["pos", *(f"!{f}={v}" for f, v in body)]))
        lines.append(f"{draw(_eighths)} {' | '.join(lits)}")
    if draw(st.booleans()):
        lines.append(f"0.6 pos | {draw(st.sampled_from(features))}=1")
    return parse_kb("\n".join(draw(st.permutations(lines))))


@st.composite
def coded_kbs(draw):
    """A KB of every kind that fills ``counts`` (a direct table with and
    without ``max_arity``, a tree KB of either mode, a parsed model),
    perhaps merged with rules over new pairs, and queries over a1..a10
    whose values the KB may never have seen."""
    features = draw(st.lists(st.sampled_from(CODED_FEATURES), min_size=1, max_size=5, unique=True))
    kind = draw(st.sampled_from(["direct", "tree", "tree-all", "parsed"]))
    if kind == "parsed":
        kb = draw(_parsed_kb(features))
    else:
        value = st.sampled_from(CODED_VALUES)
        rows = draw(st.lists(st.tuples(st.tuples(*[value] * len(features)), st.booleans()),
                             min_size=1, max_size=12))
        ds = from_rows(features, rows)
        if kind == "direct":
            kb = build_direct_kb(ds, draw(st.none() | st.integers(1, len(features))))
        else:
            kb = kb_from_tree(build_id3(ds), "leaves" if kind == "tree" else "all_nodes")
    if draw(st.booleans()):
        # "7" is a value no training row holds, and any of a1..a10 may be a new feature
        pair = st.tuples(st.sampled_from(CODED_FEATURES), st.sampled_from([*CODED_VALUES, "7"]))
        bodies = draw(st.lists(st.lists(pair, max_size=3, unique_by=lambda p: p[0]),
                               min_size=1, max_size=3))
        extra = [WeightedClause(draw(_eighths), rule_clause(body)) for body in bodies]
        if draw(st.booleans()):
            atom = Atom(draw(st.sampled_from(CODED_FEATURES)), "1")
            extra.append(WeightedClause(0.6, Clause([Literal(POS), Literal(atom)])))
        kb = merge(kb, extra)
    query_value = st.none() | st.sampled_from([*CODED_VALUES, "7", "9"])
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = draw(st.tuples(*[query_value] * len(CODED_FEATURES)))
        queries.append({f: v for f, v in zip(CODED_FEATURES, drawn) if v is not None})
    return kb, queries


# Atoms a clause of ``others`` may hold besides pos: bare atoms, and
# feature-value atoms a literal may assert.
_OTHER_ATOMS = [
    POS, Atom("b"), Atom("c"), *(Atom(f, v) for f in CODED_FEATURES[:3] for v in CODED_VALUES)
]


@st.composite
def mixed_coded_kbs(draw):
    """:func:`coded_kbs` with clauses in ``others`` that hold bare atoms
    and positive feature-value literals."""
    kb, queries = draw(coded_kbs())
    literal = st.builds(Literal, st.sampled_from(_OTHER_ATOMS), st.booleans())
    clause = st.lists(literal, min_size=1, max_size=4, unique_by=lambda lit: lit.atom).map(
        Clause).filter(lambda c: not c.is_rule_shaped)
    others = {wc.clause: wc for wc in kb.others}
    for c in draw(st.lists(clause, max_size=3)):
        others.setdefault(c, WeightedClause(draw(_eighths), c))
    return KnowledgeBase(others.values(), kb.counts, kb.bits), queries


@st.composite
def rule_texts_with_other_lines(draw):
    """A text of rule lines over a1..a4, literals in any order, and the
    same text with lines that are not rules inserted at random places, so
    they may meet a pair before any rule does: a feature given two values,
    a positive literal, a bare atom or no ``pos``, their literals padded
    with spaces now and then."""
    pair = st.tuples(st.sampled_from(CODED_FEATURES[:4]), st.sampled_from(CODED_VALUES))
    body = st.lists(pair, max_size=4, unique_by=lambda p: p[0])
    lines = []
    for pairs in draw(st.lists(body, max_size=8, unique_by=frozenset)):
        lits = draw(st.permutations(["pos", *(f"!{f}={v}" for f, v in pairs)]))
        lines.append(f"{draw(_eighths)} {' | '.join(lits)}")
    rules = "\n".join(lines)
    pad = st.sampled_from(["", " ", "  "])
    for _ in range(draw(st.integers(1, 6))):
        lits = ["pos", *(f"!{f}={v}" for f, v in draw(body))]
        kind = draw(st.sampled_from(["repeat", "positive", "bare", "no-pos"]))
        if kind == "repeat":
            f = draw(st.sampled_from(CODED_FEATURES[:4]))
            v, w = draw(st.permutations(CODED_VALUES))[:2]
            lits += [f"!{f}={v}", f"!{f}={w}"]
        elif kind == "positive":
            lits.append(draw(pair.map("{0[0]}={0[1]}".format).filter(lambda t: "!" + t not in lits)))
        elif kind == "bare":
            lits.append("b")
        else:
            lits[0] = "!{}={}".format(*draw(pair))
        lits = [draw(pad) + lit + draw(pad) for lit in draw(st.permutations(lits))]
        lines.insert(draw(st.integers(0, len(lines))), "0.5 " + "|".join(lits))
    return rules, "\n".join(lines)


def captured_program(kb, query):
    """The program :func:`infer_pos` builds for ``query``, or None when it
    answers in closed form; the program is not solved."""
    built = []

    def capture(*args, **kwargs):
        built.append(build_lp(*args, **kwargs))
        return built[-1]

    with patch.object(lp_module, "build_lp", capture), \
            patch.object(lp_module, "_bounded_target", lambda lp, target: (0.0, 0.0, 1.0)):
        infer_pos(kb, query)
    assert len(built) <= 1
    return built[0] if built else None
