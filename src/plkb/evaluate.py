"""End-to-end pipelines: training, evaluation metrics, explanation
scoring, solver benchmarks, and knowledge-injection experiments."""

from __future__ import annotations

import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .data import Dataset, SeedSpec, balance, split
from .direct import active_kb, build_direct_kb
from .explain import compute_explanation, explanation_accuracy
from .kb import METHODS, Atom, Clause, KnowledgeBase, Literal, WeightedClause, merge, rule_clause
from .lp import InferenceResult, build_lp, infer_pos, minimum_deviation
from .tree import TreeNode, build_id3, kb_from_tree

RANDOM_BODY_MAX_PAIRS = 10  # the longest pollution clause body


@dataclass(frozen=True)
class EvalReport:
    f1: float
    precision: float
    recall: float
    n_test: int
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def confusion(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """((tp, fn), (fp, tn))"""
        return ((self.tp, self.fn), (self.fp, self.tn))

    def as_dict(self) -> dict:
        return {
            "f1": self.f1,
            "precision": self.precision,
            "recall": self.recall,
            "n_test": self.n_test,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
        }


def f1_score(predictions: list[bool], labels: list[bool]) -> EvalReport:
    """Binary F1 with the positive class being True; 0/0 counts as 0."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not labels:
        raise ValueError("empty evaluation")
    tp = sum(1 for p, y in zip(predictions, labels) if p and y)
    fp = sum(1 for p, y in zip(predictions, labels) if p and not y)
    fn = sum(1 for p, y in zip(predictions, labels) if not p and y)
    tn = len(labels) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(f1, precision, recall, len(labels), tp, fp, fn, tn)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Dataset
    method: str = "direct"
    rng_seed: int = 0
    train_fraction: float = 0.7
    max_arity: int | None = None
    knowledge: Iterable[WeightedClause] | None = None  # a KB or any weighted clauses

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def train_kb(
    train: Dataset, method: str, max_arity: int | None = None, *, tree: TreeNode | None = None
) -> KnowledgeBase:
    """Learn a knowledge base by ``method``; ``max_arity`` caps the direct
    method's rule bodies and is refused for the tree methods.  A tree
    method reads its rules off ``tree`` when given, the ID3 tree of
    ``train`` a caller has grown already, and grows it otherwise."""
    if max_arity is not None and method != "direct":
        raise ValueError("--max-arity only applies to the direct method")
    if method in ("tree", "tree-all"):
        tree = build_id3(train) if tree is None else tree
        return kb_from_tree(tree, mode="leaves" if method == "tree" else "all_nodes")
    if method == "direct":
        return build_direct_kb(train, max_arity)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def classify_query(kb: KnowledgeBase, query) -> InferenceResult:
    """Classify through the query-active sub-KB.

    For rule-shaped KBs the clauses dropped here are pinned by the query's
    sibling fixings and only add a constant to the deviation objective, so
    the bounds match whole-KB inference; ``objective_min`` omits that
    constant.  Any other KB goes whole to :func:`~plkb.lp.infer_pos`, whose
    presolve drops what the query decides and keeps its constant.
    """
    sub = active_kb(query, kb)
    return infer_pos(sub, query)


def _prepare(config: ExperimentConfig) -> tuple[Dataset, KnowledgeBase]:
    ds = balance(config.dataset, config.rng_seed)
    train, test = split(ds, config.train_fraction, config.rng_seed)
    kb = train_kb(train, config.method, config.max_arity)
    if config.knowledge:
        kb = merge(kb, list(config.knowledge))
    return test, kb


def run_eval(config: ExperimentConfig) -> EvalReport:
    """balance -> split -> train -> optional knowledge merge -> classify."""
    test, kb = _prepare(config)
    predictions = [classify_query(kb, inst.values).label for inst in test.instances]
    return f1_score(predictions, [inst.label for inst in test.instances])


@dataclass(frozen=True)
class ExplanationEvalReport:
    mean_accuracy: float | None  # None when no instance was explained
    n_explained: int
    k: int


def run_explanation_eval(
    config: ExperimentConfig,
    spec: SeedSpec,
    k: int,
    max_instances: int | None = None,
) -> ExplanationEvalReport:
    """Mean ground-truth accuracy of k-explanations over the test
    instances that classify positive, at most ``max_instances`` (>= 1)."""
    if max_instances is not None and max_instances < 1:
        raise ValueError("--max-instances must be at least 1")
    test, kb = _prepare(config)
    accuracies = []
    for inst in test.instances:
        if max_instances is not None and len(accuracies) >= max_instances:
            break
        if not classify_query(kb, inst.values).label:
            continue
        expl = compute_explanation(inst.values, kb, k)
        accuracies.append(explanation_accuracy(expl, spec))
    if not accuracies:
        return ExplanationEvalReport(None, 0, k)
    return ExplanationEvalReport(sum(accuracies) / len(accuracies), len(accuracies), k)


def true_knowledge_clauses(
    dataset: Dataset, spec: SeedSpec, n_clauses: int, rng_seed: int
) -> list[WeightedClause]:
    """Clauses from random seed substrings.

    Each clause asserts the seed's values on a random non-empty position
    subset and carries the empirical class probability of that conjunction
    measured on the full dataset.  Subsets never observed in the data are
    redrawn.
    """
    rng = random.Random(rng_seed)
    features = list(spec.feature_names)
    out = []
    attempts = 0
    while len(out) < n_clauses:
        attempts += 1
        if attempts > 100 * n_clauses + 1000:
            raise RuntimeError("could not find enough supported seed substrings")
        size = rng.randint(1, spec.length)
        positions = rng.sample(range(spec.length), size)
        pairs = [(features[i], spec.seed[i]) for i in positions]
        total = 0
        pos = 0
        for inst in dataset.instances:
            if all(inst.values[f] == v for f, v in pairs):
                total += 1
                pos += int(inst.label)
        if total == 0:
            continue
        out.append(WeightedClause(Fraction(pos, total), rule_clause(pairs)))
    return out


def random_knowledge_clauses(
    dataset: Dataset, n_clauses: int, rng_seed: int
) -> list[WeightedClause]:
    """Pollution clauses: random bodies of 1 to ``RANDOM_BODY_MAX_PAIRS``
    (10) pairs over distinct features, each with a random probability."""
    rng = random.Random(rng_seed)
    features = list(dataset.features)
    out = []
    for _ in range(n_clauses):
        size = rng.randint(1, min(RANDOM_BODY_MAX_PAIRS, len(features)))
        chosen = rng.sample(features, size)
        pairs = [(f, rng.choice(sorted(dataset.domains[f]))) for f in chosen]
        out.append(WeightedClause(rng.random(), rule_clause(pairs)))
    return out


def run_knowledge_experiment(
    config: ExperimentConfig,
    spec: SeedSpec,
    n_true_clauses: int,
    n_random_clauses: int,
    rng_seed: int,
) -> EvalReport:
    """Evaluate after injecting ground-truth and/or pollution clauses.

    ``config.rng_seed`` drives the data pipeline; ``rng_seed`` drives
    clause sampling, so the same split can be measured under different
    injections.  The injected clauses are merged after ``config.knowledge``
    and win over it.  A negative count is refused.
    """
    for flag, count in (("--true", n_true_clauses), ("--random", n_random_clauses)):
        if count < 0:
            raise ValueError(f"{flag} must be at least 0")
    knowledge = [
        *(config.knowledge or ()),
        *true_knowledge_clauses(config.dataset, spec, n_true_clauses, rng_seed),
        *random_knowledge_clauses(config.dataset, n_random_clauses, rng_seed + 1),
    ]
    return run_eval(replace(config, knowledge=knowledge))


@dataclass(frozen=True)
class BenchResult:
    n_vars: int
    n_clauses: int
    seconds: float
    objective: float


def random_bench_kb(n_vars: int, n_clauses: int, rng_seed: int) -> KnowledgeBase:
    """Random KB for solver benchmarks: clause lengths uniform in [1, 10],
    random literal signs, probabilities uniform in [0, 1]; all distinct."""
    if n_vars < 1 or n_clauses < 1:
        raise ValueError("sizes must be >= 1")
    capacity = sum(comb(n_vars, s) * 2**s for s in range(1, min(10, n_vars) + 1))
    if n_clauses > capacity:
        raise ValueError(f"{n_vars} variables allow {capacity} distinct clauses, not {n_clauses}")
    rng = random.Random(rng_seed)
    atoms = [Atom(f"v{i}") for i in range(1, n_vars + 1)]
    by_clause: dict[Clause, WeightedClause] = {}
    while len(by_clause) < n_clauses:
        size = rng.randint(1, min(10, n_vars))
        chosen = rng.sample(atoms, size)
        clause = Clause(Literal(a, rng.random() < 0.5) for a in chosen)
        if clause not in by_clause:
            by_clause[clause] = WeightedClause(rng.random(), clause)
    return KnowledgeBase(by_clause.values())


def bench_lp(n_vars: int, n_clauses: int, rng_seed: int) -> BenchResult:
    """Time the build plus stage-1 solve of a random KB of the given size."""
    # HiGHS is loaded before the clock starts: a first solve in a fresh
    # process times no import.
    import scipy.optimize._highspy._core  # noqa: F401

    kb = random_bench_kb(n_vars, n_clauses, rng_seed)
    start = time.perf_counter()
    objective = minimum_deviation(build_lp(kb))
    elapsed = time.perf_counter() - start
    return BenchResult(n_vars, n_clauses, elapsed, objective)
