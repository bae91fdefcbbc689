"""k-feature explanations: the size-k sub-query that moves pi(pos) most.

Every size-k subset of the query is scored.  On relevant sub-KBs (the
default) a sub-query's answer is the closed-form median over the full
query's relevant rows whose body lies inside it, so one selection of
those rows scores every sub-query; on the whole KB each sub-query is its
own inference.  Those inferences are independent, so they are solved
concurrently, one thread per CPU the process may run on (HiGHS releases
the GIL while it solves), and the results are identical to a serial run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Mapping

from .data import SeedSpec
from .direct import relevant_kb
from .kb import KnowledgeBase
from .lp import LABEL_EPS, InferenceResult, closed_form, infer_pos, median_midpoint

Query = Mapping[str, str]


@dataclass(frozen=True)
class Explanation:
    """The size-k sub-query that extremises the class probability.

    ``direction`` is "max" when the full query classifies positive (the
    sub-query most responsible for pushing it up), "min" otherwise.
    """

    sub_query: dict[str, str]
    score: float
    direction: str


def _serialized(pairs: tuple[tuple[str, str], ...]) -> str:
    return ",".join(f"{f}={v}" for f, v in pairs)


def evaluate_sub_query(sub: Query, kb: KnowledgeBase) -> InferenceResult:
    """Score one partial query on the whole KB, where clauses over
    unasserted features also pull on the class atom."""
    return infer_pos(kb, sub)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _relevant_scores(
    query: dict[str, str], pairs: list[tuple[str, str]], kb: KnowledgeBase, k: int
) -> tuple[bool, list[float]]:
    """The full query's label and, in ``combinations(pairs, k)`` order, the
    score of each k-sub-query on its own relevant sub-KB, from one
    :func:`~plkb.direct.relevant_kb` call.

    A sub-query's relevant rows are the full query's relevant rows whose
    body lies inside it, and its answer is the closed-form median of their
    probabilities.  A sub-query's code is the OR of its pairs' bits in the
    KB's atom table (a pair the table lacks, in no body, adds none), and
    it collects its rows by enumerating the sub-masks of its code or, when
    it has more sub-masks than there are rows, by scanning them.  A
    body-less row has code 0, inside every sub-query; the sub-mask walk
    stops before 0, so it starts with that row.
    """
    counts = relevant_kb(query, kb).counts
    probs = [pos / total for total, pos in counts.values()]
    positive = closed_form(probs).label
    prob_of = dict(zip(counts, probs))

    if 1 << k > len(prob_of):
        rows = sorted((p, code) for code, p in prob_of.items())

        def inside(m: int) -> list[float]:
            return [p for p, code in rows if code & m == code]
    else:
        get = prob_of.get
        empty = [prob_of[0]] if 0 in prob_of else []

        def inside(m: int) -> list[float]:
            found = empty[:]
            s = m
            while s:
                p = get(s)
                if p is not None:
                    found.append(p)
                s = (s - 1) & m
            found.sort()
            return found

    bits = [kb.bits.get(pair, 0) for pair in pairs]
    return positive, [median_midpoint(inside(m)) for m in map(sum, combinations(bits, k))]


def compute_explanation(
    query: Query,
    kb: KnowledgeBase,
    k: int,
    *,
    use_relevant: bool = True,
) -> Explanation:
    """Score every size-k subset of the query and keep the extremum.

    If the full query classifies positive, the sub-query maximising the
    bound midpoint is the explanation; otherwise the minimising one.  With
    ``use_relevant`` that label is the one
    :func:`~plkb.evaluate.classify_query` gives: from the same rows on a
    rule-only KB, and from whole-KB inference when some clause is not a
    rule, as the rule rows cannot see such a clause.
    Ties break on the lexicographically smallest serialized sub-query.
    With ``use_relevant`` only equal scores tie.  Without it every score
    within ``LABEL_EPS`` of the extremum ties with it, whether the LP or
    the presolve's closed form gave it, as solver noise would otherwise
    pick the winner.

    With ``use_relevant`` every sub-query is answered as
    ``infer_pos(relevant_kb(sub, kb), sub)`` would, on its own relevant
    sub-KB, but in one pass: the full query's relevant rows are selected
    once and each sub-query is scored from those inside it, with no
    inference call.  Without it, the full query and each sub-query are one
    :func:`evaluate_sub_query` call on the whole KB.  These calls are
    independent and run concurrently, one thread per usable CPU, each
    solving its own HiGHS model; the results are those of a serial run,
    and an exception in any call reaches the caller unchanged.
    """
    query = dict(query)
    if not 1 <= k <= len(query):
        raise ValueError(f"k={k} out of range for a query of {len(query)} features")
    pairs = sorted(query.items())
    if use_relevant:
        positive, scores = _relevant_scores(query, pairs, kb, k)
        if kb.others:
            positive = infer_pos(kb, query).label
    else:
        # Imported here, as it loads logging: a closed-form explain or a
        # cold CLI start does not pay for it.
        from concurrent.futures import ThreadPoolExecutor

        queries = [query, *map(dict, combinations(pairs, k))]
        kb.counts  # a trained direct table is counted here, once, not per worker
        with ThreadPoolExecutor(min(len(queries), _usable_cpus())) as pool:
            results = list(pool.map(evaluate_sub_query, queries, repeat(kb)))
        positive = results[0].label
        scores = [res.p_avg for res in results[1:]]

    scored = list(zip(combinations(pairs, k), scores))
    best = (max if positive else min)(score for _, score in scored)
    # Scores of the relevant rows are exact medians: only equal scores tie.
    # Whole-KB scores may come from the LP, whose noise must not pick the
    # winner, so each one within LABEL_EPS of the best ties, LP or not.
    tolerance = 0.0 if use_relevant else LABEL_EPS
    ties = [t for t in scored if abs(t[1] - best) <= tolerance]
    combo, score = ties[0] if len(ties) == 1 else min(ties, key=lambda t: _serialized(t[0]))
    return Explanation(
        sub_query=dict(combo),
        score=score,
        direction="max" if positive else "min",
    )


def feature_position(feature: str, length: int) -> int:
    """The 1-based string position ``i`` of a feature ``a<i>``; ValueError
    for any other name and for a position outside 1..length."""
    digits = feature[1:]
    if not (feature.startswith("a") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"feature {feature!r} is not a string position")
    pos = int(digits)
    if not 1 <= pos <= length:
        raise ValueError(f"position {pos} outside 1..{length}")
    return pos


def explanation_accuracy(expl: Explanation, spec: SeedSpec) -> float:
    """Fraction of explanation positions whose value equals the seed's."""
    if not expl.sub_query:
        raise ValueError("empty explanation")
    correct = sum(
        spec.seed[feature_position(feature, spec.length) - 1] == value
        for feature, value in expl.sub_query.items()
    )
    return correct / len(expl.sub_query)


def masked_string(expl: Explanation, length: int) -> str:
    """Render like ``323--1-1--``: explanation values at their positions."""
    out = ["-"] * length
    for feature, value in expl.sub_query.items():
        out[feature_position(feature, length) - 1] = value
    return "".join(out)
