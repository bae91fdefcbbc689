"""Shared test fixtures: the worked example dataset, random generators,
and independent brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from plkb.data import Dataset, from_rows
from plkb.explain import Explanation, evaluate_sub_query
from plkb.kb import Atom, Clause, KnowledgeBase, Literal, WeightedClause, rule_clause

# Eight labelled bit-strings over features a1..a4; small enough to check
# every derived number by hand.
POSITIVE_STRINGS = ["0000", "1111", "1010", "1100"]
NEGATIVE_STRINGS = ["0010", "0100", "1110", "1000"]
STRING_FEATURES = ["a1", "a2", "a3", "a4"]


def eight_strings_dataset() -> Dataset:
    rows = [(tuple(s), True) for s in POSITIVE_STRINGS]
    rows += [(tuple(s), False) for s in NEGATIVE_STRINGS]
    return from_rows(STRING_FEATURES, rows)


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


def explanation_loop(query, kb: KnowledgeBase, k: int, domains=None, *, use_relevant=True):
    """Reference implementation of explanation search: one relevant
    extraction and one inference per size-k sub-query, then the extremum
    with ties broken on the serialized sub-query."""
    query = dict(query)
    if not 1 <= k <= len(query):
        raise ValueError(f"k={k} out of range for a query of {len(query)} features")
    full = evaluate_sub_query(query, kb, domains, use_relevant=use_relevant)
    positive = full.label
    scored = [
        (sub, evaluate_sub_query(sub, kb, use_relevant=use_relevant).p_avg)
        for sub in map(dict, combinations(sorted(query.items()), k))
    ]

    def key(scored_sub):
        sub, score = scored_sub
        serialized = ",".join(f"{f}={v}" for f, v in sorted(sub.items()))
        return (-score if positive else score, serialized)

    best_sub, best_score = min(scored, key=key)
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
