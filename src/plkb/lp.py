"""Linear-programming inference over weighted-clause knowledge bases.

The program estimates literal probabilities from clause probabilities.
For a KB with clauses c_i (probability p_i) over literals z, the paper's
program has variables pi(z) per literal and pi(c_i) per clause, with

    pi(z) <= pi(c_i) <= sum of pi(z) for z in c_i
    pi(z) + pi(!z) = 1,  all variables in [0, 1]

and objective  minimise sum_i |pi(c_i) - p_i|.  Minimising the deviation
instead of forcing pi(c_i) = p_i is what lets inconsistent knowledge
coexist: clause probabilities bend as little as possible.

What is built and solved here is that program's exact projection onto
the atoms.  Fix the literal probabilities: pi(c_i) ranges over
[max_z pi(z), min(1, sum_z pi(z))], never empty, so its least deviation
is max(0, max_z pi(z) - p_i, p_i - sum_z pi(z)) (as p_i <= 1, the cap at
1 never binds it).  So there is one variable x_a in [0, 1] per atom, with
pi(a) = x_a and pi(!a) = 1 - x_a, and one deviation d_i >= 0 per clause,
as in Potyka & Thimm (IJAR 2017), under the rows

    d_i + sum of pi(z) for z in c_i >= p_i
    pi(z) - d_i <= p_i     for each z in c_i

and objective  minimise sum_i d_i.  For every choice of atom values the
least objective is the paper's, so v* and the range of every atom at v*
are the same.  A row that every point of the variable box satisfies is
not written: at p_i >= 1 the literal rows (pi(z) <= 1 <= p_i + d_i), at
p_i <= 0 the sum row (d_i + sum of pi(z) >= 0).  Every tree leaf is pure,
so this drops about half of a tree KB's rows, and the feasible set, v*
and every bound stay those of the full program.  The program has
n_atoms + n_clauses variables, no equality rows, and is written straight
into CSR arrays.

Classification asks for the class atom's probability under a query.
Query feature values are hard constraints (pi(a=v) fixed to 1, sibling
values to 0); the knowledge is soft.  Because the optimum of pi(pos) is
generally a range, inference solves lexicographically: first the minimal
deviation v*, then min/max of the target probability over the optimal
set, the feasible points whose deviation is v*.  The label is positive
only when the midpoint exceeds 0.5.

``infer_pos`` presolves a query on the class atom ``pos`` exactly.  The
query fixes every feature-value atom it asserts or contradicts, so a
clause with a literal the query makes true sits at pi(c_i) = 1 and a
clause whose literals are all fixed false at pi(c_i) = 0.  Neither
constrains anything else: the presolve drops both, keeping their
deviations (1 - p_i and p_i) as a constant, and removes the fixed-false
literals from every other clause.  When every residual clause is exactly
``pos``, each pi(c_i) is squeezed to pi(pos) and the closed form answers:
the bounds are the median interval of the residual probabilities.
Otherwise the LP solves the residual only.  Either way ``objective_min``
is the residual v* plus the constant, the whole program's v*.  The
presolve reads a KB's rules as ``n_pos / n_total`` straight from its
``counts``; ``build_lp`` decodes a rule's code into the literal list it
reads off any other clause, with no rule clause object, and writes
every clause's rows from its list.  Any other target is solved on the
whole program.
Checking a query against the features' domains is the caller's job.

An exact world-distribution oracle (all 2^n complete conjunctions) is
included for cross-checking on small universes.

Every program built here is solved by one three-stage solve, in
``_bounded_target`` (``minimum_deviation`` runs its first stage alone).
It holds the program in one HiGHS model, through the HiGHS bindings
inside scipy.  Stages 2 and 3 re-solve it warm on the stage-1 optimal
face: a feasible point is optimal exactly when it is complementary to
stage 1's dual, so the columns with a non-zero reduced cost are fixed at
their bounds and the rows with a non-zero dual made tight.  Each stage
reads HiGHS's objective value, and stage 1's dual is the only vector
read.  Any status but optimal is an internal error: a ``RuntimeError``
carrying HiGHS's name for the status.  The module-level
:func:`linprog` serves the oracle only.  numpy and scipy are imported
inside the functions that solve a program, so importing this module, and
every closed-form answer, loads neither.

Thread safety: ``infer_pos`` with ``target == POS`` may run in several
threads at once on one KB, as whole-KB explanations do.  It only reads
the KB (``counts``, ``bits.items()``, ``atoms``, ``others``, and the
cached ``universe`` of a KB without rules).  Each
``_bounded_target`` call builds and solves its own HiGHS model, and
HiGHS releases the GIL while it solves, so the threads solve in
parallel.  Code added on this path must keep both properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import repeat
from operator import or_, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .kb import (
    POS,
    Atom,
    Clause,
    KnowledgeBase,
    Literal,
    Pair,
    WeightedClause,
    _atom_sort_key,
)

TAU_ZERO = 1e-6   # deviation below this hints consistency
# A bound midpoint of exactly 0.5 classifies negative; the band keeps that
# rule stable when solver noise, within HiGHS's 1e-7 feasibility
# tolerances, perturbs the midpoint.
LABEL_EPS = 1e-6


@dataclass(frozen=True)
class Rows:
    """Constraint rows ``A x <= rhs`` in compressed sparse row form: row r
    has coefficient ``data[j]`` on variable ``indices[j]`` for each j in
    ``range(indptr[r], indptr[r + 1])``."""

    indptr: list[int]
    indices: list[int]
    data: list[float]
    rhs: list[float]

    def __len__(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class LinearProgram:
    """Minimise ``objective @ x`` subject to ``constraints`` within
    ``bounds``; ``objective`` has one coefficient per variable and an
    upper bound of None is no bound.

    ``atom_index`` maps each atom to its variable; it is empty for
    hand-built programs.
    """

    variables: tuple[str, ...]
    constraints: Rows
    objective: tuple[float, ...]
    bounds: tuple[tuple[float, float | None], ...]
    atom_index: dict[Atom, int] = field(default_factory=dict)

    @property
    def n_variables(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class InferenceResult:
    p_lower: float
    p_upper: float
    p_avg: float
    objective_min: float
    label: bool


def build_lp(clauses: KnowledgeBase | Iterable[WeightedClause],
             rules: Iterable[tuple[float, int]] = (), atoms: Sequence[Pair] = ()) -> LinearProgram:
    """Construct the program described in the module docstring.

    The clauses are ``rules``, each ``(p, code)`` over the atom table
    ``atoms`` (code 0 is ``pos``), then ``clauses``; a knowledge base gives
    its ``counts`` as rules, then its ``others``: no rule clause object is
    built.  A clause may repeat, as in a presolved residual, and each copy
    gets its own deviation.  Variables: the atoms in sorted order, then
    ``d<i>`` per clause.  Each clause becomes ``(p_i, [(column, negated),
    ...])`` in column order (a rule: ``pos``, then its body negated), and
    one loop writes its rows: ``-d_i - sum_z pi(z) <= -p_i`` unless p_i <=
    0, then ``pi(z) - d_i <= p_i`` per literal unless p_i >= 1, the
    constant of each ``pi(!a) = 1 - x_a`` moved to the right-hand side.
    The rows left out hold at every point within the bounds (see the
    module docstring).
    """
    if isinstance(clauses, KnowledgeBase):
        rules = [(pos / total, code) for code, (total, pos) in clauses.counts.items()]
        clauses, atoms = clauses.others, clauses.atoms
    rules, clauses = list(rules), tuple(clauses)
    if not rules and not clauses:
        raise ValueError("cannot build a program from an empty knowledge base")
    used = reduce(or_, (code for _, code in rules), 0)
    bit_atoms = {1 << i: Atom(*pair) for i, pair in enumerate(atoms) if used >> i & 1}
    columns = {*bit_atoms.values(), *(a for wc in clauses for a in wc.clause.atoms)}
    columns = sorted(columns | {POS} if rules else columns, key=_atom_sort_key)
    atom_index = {a: i for i, a in enumerate(columns)}
    bit_literal = {low: (atom_index[a], True) for low, a in bit_atoms.items()}
    n, m = len(columns), len(rules) + len(clauses)

    def literal_lists() -> Iterator[tuple[float, list[tuple[int, bool]]]]:
        for p, code in rules:
            body = []
            while code:
                low = code & -code
                body.append(bit_literal[low])
                code ^= low
            yield p, [(0, False), *sorted(body)]  # pos is column 0
        for wc in clauses:
            lits = wc.clause.literals
            yield float(wc.probability), [(atom_index[z.atom], z.negated) for z in lits]

    indptr, indices, data, rhs = [0], [], [], []
    for d, (p, lits) in enumerate(literal_lists(), n):
        if p > 0.0:  # at p <= 0 the sum row holds on the whole box
            indices.append(d)
            data.append(-1.0)
            for x, negated in lits:
                indices.append(x)
                data.append(1.0 if negated else -1.0)
            rhs.append(sum(negated for _, negated in lits) - p)
            indptr.append(len(indices))
        if p < 1.0:  # at p >= 1 so does every literal row
            for x, negated in lits:
                indices += (x, d)
                data += (-1.0 if negated else 1.0, -1.0)
                rhs.append(p - 1.0 if negated else p)
                indptr.append(len(indices))
    return LinearProgram(
        variables=(*map(str, columns), *(f"d{i}" for i in range(m))),
        constraints=Rows(indptr, indices, data, rhs),
        objective=(0.0,) * n + (1.0,) * m,
        bounds=((0.0, 1.0),) * n + ((0.0, None),) * m,
        atom_index=atom_index,
    )


def apply_query(lp: LinearProgram, query: Mapping[str, str]) -> LinearProgram:
    """Fix pi(a=v) = 1 for each queried pair and pi(a=v') = 0 for every
    sibling value present in the program; unqueried features stay free.
    Atoms the program never mentions are skipped silently."""
    bounds = list(lp.bounds)
    for atom, idx in lp.atom_index.items():
        queried = query.get(atom.feature)
        if queried is not None and atom.value is not None:
            fixed = 1.0 if atom.value == queried else 0.0
            bounds[idx] = (fixed, fixed)
    return replace(lp, bounds=tuple(bounds))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve: a process
    that only takes closed-form answers never loads scipy."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def minimum_deviation(lp: LinearProgram) -> float:
    """Stage-1 objective value: the least total clause-probability bend."""
    return _bounded_target(lp, None)[0]


def _bounded_target(
    lp: LinearProgram, target_var: int | None
) -> tuple[float, float | None, float | None]:
    """Lexicographic solve: (v*, min, max) of the target variable.  Without
    a target only stage 1 runs and the bounds are None.

    One HiGHS model holds the program, through the bindings scipy ships
    (``scipy.optimize._highspy``, private to scipy since 1.15), with no
    output, dual simplex and no HiGHS presolve: ``build_lp`` writes no row
    that the bounds alone satisfy, and on these programs HiGHS's presolve
    costs more than it removes.  Stage 1 solves it.  Its dual then marks
    the optimal face: every column whose reduced cost is non-zero is fixed
    at the bound it sits on (the lower for a positive cost, the upper for
    a negative one), and every row whose dual is non-zero gets its lower
    bound raised to its rhs.  Any optimal dual will do, unique or not: a
    feasible point is optimal exactly when it is complementary to it.  A
    dual counts as non-zero only beyond HiGHS's
    ``dual_feasibility_tolerance``, which can only widen the face.  The
    cost is then swapped for +target, then -target, each stage re-solving
    warm from the basis the last one left.

    Each stage reads only the objective value: v*, the least target, the
    negated greatest.  The solution is read once, for stage 1's dual.

    Every program built here is boxed and minimises non-negative
    deviations, so any status but optimal is an internal error, reported
    with HiGHS's name for the status, and so is a dual that is not valid.
    """
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
    )

    rows = lp.constraints
    n, m = lp.n_variables, len(rows)
    model = HighsLp()
    model.num_col_, model.num_row_ = n, m
    model.col_cost_ = lp.objective
    model.col_lower_ = [lo for lo, _ in lp.bounds]
    model.col_upper_ = [kHighsInf if hi is None else hi for _, hi in lp.bounds]
    model.row_lower_ = [-kHighsInf] * m
    model.row_upper_ = rows.rhs
    matrix = model.a_matrix_
    matrix.format_ = MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_, matrix.index_, matrix.value_ = rows.indptr, rows.indices, rows.data
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("simplex_strategy", 1)  # kSimplexStrategyDual
    highs.setOptionValue("presolve", "off")
    highs.passModel(model)

    def optimum() -> float:
        highs.run()
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise RuntimeError(f"internal error: {highs.modelStatusToString(status)}")
        return highs.getObjectiveValue()

    v_star = optimum()
    if target_var is None:
        return v_star, None, None

    solution = highs.getSolution()
    if not solution.dual_valid:
        raise RuntimeError("internal error: no valid dual solution")
    tol = highs.getOptionValue("dual_feasibility_tolerance")[1]
    col_dual = solution.col_dual
    fixed = [j for j, r in enumerate(col_dual) if abs(r) > tol]
    at = [lp.bounds[j][col_dual[j] < 0] for j in fixed]
    highs.changeColsBounds(len(fixed), fixed, at, at)
    for r, y in enumerate(solution.row_dual):
        if abs(y) > tol:
            highs.changeRowBounds(r, rows.rhs[r], rows.rhs[r])
    cost = [0.0] * n
    cost[target_var] = 1.0
    highs.changeColsCost(n, range(n), cost)
    lo = optimum()
    highs.changeColsCost(1, [target_var], [-1.0])
    hi = -optimum()
    return v_star, lo, hi


def _presolve(
    kb: KnowledgeBase, query: Mapping[str, str]
) -> tuple[float, list[float], list[tuple[float, int]], list[WeightedClause]]:
    """Drop every clause the query decides: ``(constant, probs, rules, rest)``.

    The query fixes pi(f=v) = 1 for each asserted pair and 0 for its
    siblings; ``pos`` and bare propositions stay free.  A clause with a
    literal fixed true leaves with its deviation ``1 - p`` added to
    ``constant``, one whose literals are all fixed false with ``p``, and
    fixed-false literals are removed from the clauses that stay (see the
    module docstring).  ``probs`` are the probabilities of the residual
    clauses that are exactly ``pos``, ``rules`` every other residual rule
    as ``(p, code)`` over ``kb.atoms``, ``rest`` every other residual
    clause; different clauses may reduce to the same residual, so
    ``rules`` and ``rest`` can repeat one.

    The rules are read from ``kb.counts``: ``n_pos / n_total`` is
    correctly rounded, as ``float(Fraction(...))`` is.  A row lies inside
    the query when its code has no bit outside the asserted pairs, as
    every row a selection keeps does, and is pinned true when it has a
    sibling's bit; any other row's residual rule is its code less the
    asserted bits.  An inside row's residual is ``pos``, so it joins
    ``probs``.  No rule clause object is built.
    """
    constant = 0.0
    probs: list[float] = []
    rules: list[tuple[float, int]] = []
    rest: list[WeightedClause] = []
    asserted = siblings = 0
    for (feature, value), bit in kb.bits.items():
        queried = query.get(feature)
        if queried is not None:
            if queried == value:
                asserted |= bit
            else:
                siblings |= bit
    outside = ~asserted
    for code, (total, pos) in kb.counts.items():
        p = pos / total
        if not code & outside:
            probs.append(p)
        elif code & siblings:  # some literal !f=v is true
            constant += 1.0 - p
        else:
            rules.append((p, code & outside))
    just_pos = (Literal(POS),)
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
            elif tuple(kept) == just_pos:
                probs.append(p)
            elif len(kept) == len(wc.clause.literals):
                rest.append(wc)
            else:
                rest.append(WeightedClause(wc.probability, Clause(kept)))
    return constant, probs, rules, rest


def _median_interval(probs: list[float]) -> tuple[float, float, float]:
    """(v*, lo, hi) of p in [0,1] minimising f(p) = sum |p - p_i|.

    f is piecewise linear and convex; its exact minimisers are the median
    interval of the multiset (a single order statistic for odd counts, the
    segment between the two middle ones for even counts).
    """
    srt = sorted(probs)
    n = len(srt)
    lo, hi = srt[(n - 1) // 2], srt[n // 2]
    v_star = float(sum(map(abs, map(sub, srt, repeat(lo)))))
    return v_star, lo, hi


def closed_form(probs: list[float], constant: float = 0.0) -> InferenceResult:
    """The answer when every clause left is exactly ``pos``:
    the median interval of their probabilities, and the maximally
    uncertain answer when none is left.  ``constant`` is the deviation of
    the clauses the presolve dropped."""
    v_star, lo, hi = _median_interval(probs) if probs else (0.0, 0.0, 1.0)
    return _result(v_star + constant, lo, hi)


def median_midpoint(srt: Sequence[float]) -> float:
    """``closed_form(srt).p_avg`` for sorted probabilities in [0, 1],
    without the deviation sum or the result object."""
    n = len(srt)
    return (srt[(n - 1) // 2] + srt[n // 2]) / 2.0 if srt else 0.5


def infer_pos(
    kb: KnowledgeBase, query: Mapping[str, str] | None = None, *, target: Atom = POS
) -> InferenceResult:
    """Bound the target atom's probability under the query and classify.

    Three-stage solve as described in the module docstring; the label is
    True only when the bound midpoint exceeds 0.5.  An empty knowledge
    base leaves the target unconstrained and yields the maximally
    uncertain result, and so does a query that decides every clause
    mentioning ``pos`` (``objective_min`` is then the deviation of the
    rest).  Only ``pos`` is presolved; any other target is bounded on
    the whole program.
    """
    query = dict(query or {})
    if len(kb) == 0:
        return closed_form([])
    # Every rule contains pos.
    if not (target == POS and kb.counts) and target not in kb.universe:
        raise ValueError(f"target atom {target} does not occur in the knowledge base")

    if target == POS:
        constant, probs, rules, rest = _presolve(kb, query)
        if not rules and not rest:
            return closed_form(probs, constant)
        # The residual mentions no atom the query fixes: no query to apply.
        lp = build_lp(rest, [*zip(probs, repeat(0)), *rules], kb.atoms)
    else:
        constant, lp = 0.0, apply_query(build_lp(kb), query)
    target_var = lp.atom_index.get(target)
    v_star, lo, hi = _bounded_target(lp, target_var)
    if target_var is None:  # the presolve decided every clause on pos
        lo, hi = 0.0, 1.0
    return _result(v_star + constant, lo, hi)


def _result(v_star: float, lo: float, hi: float) -> InferenceResult:
    """The result for bounds clamped into [0, 1] and ordered."""
    # max(0.0, x) rather than max(x, 0.0): a -0.0 from the solver compares
    # equal to 0.0, and max keeps the first of equal arguments.
    lo, hi = sorted(float(min(max(0.0, x), 1.0)) for x in (lo, hi))
    avg = (lo + hi) / 2.0
    return InferenceResult(
        p_lower=lo,
        p_upper=hi,
        p_avg=avg,
        objective_min=float(max(0.0, v_star)),
        label=bool(avg > 0.5 + LABEL_EPS),
    )


def check_consistency(kb: KnowledgeBase) -> tuple[bool, float]:
    """(hint, minimal deviation).  A strictly positive minimum proves the
    KB inconsistent; a zero minimum does not prove consistency, since the
    program relaxes the exact world semantics."""
    if len(kb) == 0:
        return True, 0.0
    v_star = minimum_deviation(build_lp(kb))
    v_star = max(0.0, v_star)
    return v_star <= TAU_ZERO, v_star


MAX_ORACLE_ATOMS = 16


def nilsson_oracle(kb: KnowledgeBase, target_atom: Atom) -> tuple[bool, float, float]:
    """Exact semantics over all 2^n complete conjunctions.

    Solves for a distribution over worlds matching every clause
    probability exactly; returns (feasible, p_min, p_max) for the target
    atom.  Exponential in the atom count, hence the cap; this is the
    cross-check the relaxed program is validated against.
    """
    import numpy as np

    atoms = sorted(kb.universe, key=_atom_sort_key)
    n = len(atoms)
    if n > MAX_ORACLE_ATOMS:
        raise ValueError(f"{n} atoms exceed the oracle cap of {MAX_ORACLE_ATOMS}")
    if target_atom not in kb.universe:
        raise ValueError(f"target atom {target_atom} does not occur in the knowledge base")
    idx = {a: i for i, a in enumerate(atoms)}
    worlds = np.arange(2 ** n, dtype=np.int64)

    rows = [np.ones(len(worlds))]
    rhs = [1.0]
    for wc in kb.clauses:
        # the single falsifying pattern: every positive literal's bit clear,
        # every negated literal's bit set
        mask = 0
        want = 0
        for lit in wc.clause.literals:
            bit = 1 << idx[lit.atom]
            mask |= bit
            if lit.negated:
                want |= bit
        satisfied = ((worlds & mask) != want).astype(float)
        rows.append(satisfied)
        rhs.append(float(wc.probability))
    a_eq = np.vstack(rows)
    b_eq = np.array(rhs)
    c = ((worlds >> idx[target_atom]) & 1).astype(float)

    res_min = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res_min.status == 2:
        return False, float("nan"), float("nan")
    if res_min.status != 0:
        raise RuntimeError(f"oracle solve failed: {res_min.message}")
    res_max = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res_max.status != 0:
        raise RuntimeError(f"oracle solve failed: {res_max.message}")
    return True, float(res_min.fun), float(-res_max.fun)


def dump_lp(lp: LinearProgram) -> str:
    """Render in the CPLEX-style text interchange format with generic
    variable names, mapped back in leading comments."""
    lines = ["\\ variable map"]
    lines.extend(f"\\ x{i} = {name}" for i, name in enumerate(lp.variables))
    terms = " + ".join(f"{coef:g} x{i}" for i, coef in enumerate(lp.objective) if coef)
    lines.append("Minimize")
    lines.append(f" obj: {terms or '0 x0'}")
    lines.append("Subject To")
    rows = lp.constraints
    for r, rhs in enumerate(rows.rhs):
        span = range(rows.indptr[r], rows.indptr[r + 1])
        body = " ".join(
            f"{'-' if rows.data[j] < 0 else '+'} {abs(rows.data[j]):g} x{rows.indices[j]}"
            for j in span
        )
        lines.append(f" r{r}: {body.lstrip('+ ')} <= {rhs:g}")
    lines.append("Bounds")
    for i, (lo, hi) in enumerate(lp.bounds):
        if hi is None:
            lines.append(f" {lo:g} <= x{i}")
        else:
            lines.append(f" {lo:g} <= x{i} <= {hi:g}")
    lines.append("End")
    return "\n".join(lines)
