"""k-feature explanations by exhaustive sub-query enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .data import SeedSpec
from .direct import relevant_kb
from .kb import KnowledgeBase
from .lp import InferenceResult, infer_pos

Query = Mapping[str, str]


@dataclass(frozen=True)
class Explanation:
    """The size-k sub-query that extremises the class probability.

    ``direction`` is "max" when the full query classified positive (the
    sub-query most responsible for pushing it up), "min" otherwise.
    """

    sub_query: dict[str, str]
    score: float
    direction: str


def _serialized(sub: dict[str, str]) -> str:
    return ",".join(f"{f}={v}" for f, v in sorted(sub.items()))


def evaluate_sub_query(
    sub: Query,
    kb: KnowledgeBase,
    domains=None,
    *,
    use_relevant: bool = True,
) -> InferenceResult:
    """Score one partial query.

    With ``use_relevant`` the sub-query is answered on its own relevant
    sub-KB, so only clauses about the asserted pairs weigh in; this is the
    evaluation the worked answers of the direct method correspond to.
    Without it, the partial query runs against the full program, where
    clauses over unasserted features also pull on the class atom.
    """
    if use_relevant:
        return infer_pos(relevant_kb(sub, kb), sub, domains)
    return infer_pos(kb, sub, domains)


def compute_explanation(
    query: Query,
    kb: KnowledgeBase,
    k: int,
    domains=None,
    *,
    use_relevant: bool = True,
) -> Explanation:
    """Evaluate every size-k subset of the query and keep the extremum.

    If the full query classifies positive, the sub-query maximising the
    bound midpoint is the explanation; otherwise the minimising one.
    Ties break on the lexicographically smallest serialized sub-query.
    ``domains`` check the full query once; its sub-queries assert no other
    pair.
    """
    query = dict(query)
    if not 1 <= k <= len(query):
        raise ValueError(f"k={k} out of range for a query of {len(query)} features")
    full = evaluate_sub_query(query, kb, domains, use_relevant=use_relevant)
    positive = full.label

    scored = [
        (sub, evaluate_sub_query(sub, kb, use_relevant=use_relevant).p_avg)
        for sub in map(dict, combinations(sorted(query.items()), k))
    ]
    best_sub, best_score = min(
        scored, key=lambda s: (-s[1] if positive else s[1], _serialized(s[0]))
    )
    return Explanation(
        sub_query=best_sub,
        score=best_score,
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
