"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next call starts when
the previous one returned.  ``setup`` builds the inputs from the seed
(timed, repeated by the runner), ``prepare`` computes reference answers
outside the measured window, and ``round`` does one fixed unit of work.
Every round of a run repeats the same work on the same inputs, so counts
repeat exactly and timings can be taken as medians over rounds.

Why these three:

* ``direct-desk`` is the paper's headline setup (10 positions, alphabet
  4, match 5) through the direct method.  Every query is answered by the
  closed-form median, so it makes no LP call: rule-table work moves it,
  LP work does not.
* ``tree-lp`` merges hand-written clauses that are not rule-shaped into a
  tree KB.  Extraction then falls back to the whole KB and every query,
  full or half-masked, runs the three-stage HiGHS solve: the only real
  traffic that reaches the LP.  Training is a few ms of ID3.
* ``model-cli`` is what a user of the command line pays: ``plkb train``
  writing a model file, then cold ``plkb classify`` / ``plkb explain``
  processes that parse it.  It moves with the file format, parse speed
  and import time, not with in-memory inference.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import LABEL_EPS, DirectOracle
from pace import Pace

# Calls go through the module attributes so that the traced run's wrappers
# (installed on the modules after this import) see them.
from plkb import data, evaluate, explain, kb as kbmod

# Sizes.  direct-desk is the headline task scaled so that a round (train,
# classify every test row, explain every positive) fits several times in a
# run; tree-lp's 1,200 rows give a ~320-clause tree, so that a run holds
# hundreds of LP queries.
DESK = dict(length=10, alphabet=4, match=5, rows=800, k=3)
TREE = dict(length=10, alphabet=4, match=5, rows=1200, full=150, half=30,
            explain=4, k=1, knowledge=3, trains=30)
CLI = dict(length=8, alphabet=4, match=4, rows=1000, test_rows=300,
           classify=2, explain=1, k=3)
SUBPROCESS_TIMEOUT = 120
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


@dataclass
class Samples:
    """What a run measured, plus its failure accounting.

    ``train``, ``classify`` and ``explain`` hold the (start, end)
    perf_counter interval of every timed call; ``seconds`` turns them into
    times scaled by the host-speed probe, ``raw_seconds`` into wall times
    (both less the probes that ran inside).
    """

    train: list[tuple[float, float]] = field(default_factory=list)
    classify: list[tuple[float, float]] = field(default_factory=list)
    explain: list[tuple[float, float]] = field(default_factory=list)
    pace: Pace = field(default_factory=Pace)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    file_mb: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail("check failed: " + message)
        return ok

    def seconds(self, bucket: list[tuple[float, float]]) -> list[float]:
        return [self.pace.scaled(iv) for iv in bucket]

    def raw_seconds(self, bucket: list[tuple[float, float]]) -> list[float]:
        return [self.pace.raw(iv) for iv in bucket]


def timed(samples: Samples, bucket: list | None, fn, *args, **kwargs):
    """Call fn, time it into bucket, count it; an exception is a failure."""
    samples.attempted += 1
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every error is a failed operation
        samples.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
        return None
    if bucket is not None:
        bucket.append((start, time.perf_counter()))
    return result


def sub_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def f1(predictions: list[bool], labels: list[bool]) -> float:
    tp = sum(p and y for p, y in zip(predictions, labels))
    fp = sum(p and not y for p, y in zip(predictions, labels))
    fn = sum(y and not p for p, y in zip(predictions, labels))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def explanation_accuracy(sub_query: dict[str, str], seed_string: str) -> float:
    """Share of explanation positions (features ``a<i>``) holding the seed's value."""
    hits = sum(seed_string[int(f[1:]) - 1] == v for f, v in sub_query.items())
    return hits / len(sub_query)


def query_text(query: dict[str, str]) -> str:
    return ",".join(f"{f}={v}" for f, v in sorted(query.items()))


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def check_result(samples: Samples, res, what: str) -> bool:
    """Bounds of an InferenceResult: 0 <= p_lower <= p_upper <= 1 and a
    label that agrees with the midpoint rule."""
    ok = 0.0 <= res.p_lower <= res.p_upper <= 1.0
    ok = ok and res.label == (res.p_avg > 0.5 + LABEL_EPS)
    return samples.check(ok, f"{what}: bounds {res.p_lower}..{res.p_upper}, label {res.label}")


def check_explanation(samples: Samples, expl, query: dict[str, str], k: int, what: str) -> bool:
    """An explanation of a positive query: k of its pairs, direction max."""
    sub = expl.sub_query
    ok = len(sub) == k and all(query.get(f) == v for f, v in sub.items())
    ok = ok and expl.direction == "max" and 0 <= expl.score <= 1
    return samples.check(ok, f"{what}: malformed explanation {sub} {expl.direction}")


class Workload:
    spans = None  # set by the runner to a spans.Recorder in traced runs

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, samples: Samples) -> list[str]:
        return []

    def round(self, samples: Samples) -> list[str]:
        raise NotImplementedError

    def finish(self, samples: Samples) -> tuple[float, float]:
        """Final checks; returns (f1, expl_accuracy)."""
        raise NotImplementedError

    def cleanup(self) -> None:
        pass

    def qid(self, text: str | None) -> None:
        if self.spans is not None:
            self.spans.qid = text


class DirectDesk(Workload):
    def setup(self, seed: int) -> None:
        spec_seed, data_seed = sub_seeds(seed, 2)
        self.spec = data.random_seed_spec(DESK["length"], DESK["alphabet"], DESK["match"], spec_seed)
        ds = data.generate_synthetic(self.spec, DESK["rows"], data_seed)
        train, test = data.split(data.balance(ds, seed), 0.7, seed)
        self.train = train
        self.queries = [dict(i.values) for i in test.instances]
        self.labels = [i.label for i in test.instances]

    def round(self, samples: Samples) -> list[str]:
        self.qid("train")
        kb = timed(samples, samples.train, evaluate.train_kb, self.train, "direct")
        if kb is None:
            return ["train failed"]
        out = []
        self.results = []
        for i, q in enumerate(self.queries):
            self.qid(f"c{i}")
            res = timed(samples, samples.classify, evaluate.classify_query, kb, q)
            self.results.append(res)
            if res is not None:
                check_result(samples, res, f"query {i}")
                out.append(f"c{i} {res.label} {res.p_lower!r} {res.p_upper!r}")
        self.explanations = {}
        for i, (q, res) in enumerate(zip(self.queries, self.results)):
            if res is None or not res.label:
                continue
            self.qid(f"e{i}")
            expl = timed(samples, samples.explain, explain.compute_explanation, q, kb, DESK["k"])
            if expl is not None:
                check_explanation(samples, expl, q, DESK["k"], f"explanation {i}")
                self.explanations[i] = expl
                out.append(f"e{i} {query_text(expl.sub_query)} {expl.score!r}")
        self.qid(None)
        return out

    def finish(self, samples: Samples) -> tuple[float, float]:
        oracle = DirectOracle(
            self.spec.feature_names, [dict(i.values) for i in self.train.instances],
            [i.label for i in self.train.instances],
        )
        for i, (q, res) in enumerate(zip(self.queries, self.results)):
            if res is None:
                continue
            lo, hi, label = oracle.classify(q)
            samples.check((res.p_lower, res.p_upper, res.label) == (lo, hi, label),
                          f"query {i}: got {res.p_lower}..{res.p_upper}, oracle {lo}..{hi}")
        for i, expl in self.explanations.items():
            sub, score = oracle.explain(self.queries[i], DESK["k"])
            samples.check((expl.sub_query, expl.score) == (sub, score),
                          f"explanation {i}: got {expl.sub_query}, oracle {sub}")
        preds = [bool(r and r.label) for r in self.results]
        acc = [explanation_accuracy(e.sub_query, self.spec.seed) for e in self.explanations.values()]
        return f1(preds, self.labels), (sum(acc) / len(acc) if acc else 0.0)


def knowledge_text(rng: random.Random, spec, n: int) -> str:
    """Hand-written clauses that are not rule-shaped: ``p pos | a=v | b=w``.

    A positive feature literal makes the clause fall outside the rule
    shape, so query-active extraction keeps the whole KB and inference
    takes the LP path.
    """
    lines = []
    for _ in range(n):
        i, j = sorted(rng.sample(range(spec.length), 2))
        vi, vj = rng.choice(spec.alphabet), rng.choice(spec.alphabet)
        p = rng.choice(("0.6", "0.7", "0.8"))
        lines.append(f"{p} pos | a{i + 1}={vi} | a{j + 1}={vj}")
    return "\n".join(lines)


class TreeLp(Workload):
    def setup(self, seed: int) -> None:
        spec_seed, data_seed, query_seed = sub_seeds(seed, 3)
        self.spec = data.random_seed_spec(TREE["length"], TREE["alphabet"], TREE["match"], spec_seed)
        ds = data.generate_synthetic(self.spec, TREE["rows"], data_seed)
        train, test = data.split(data.balance(ds, seed), 0.7, seed)
        self.train = train
        rng = random.Random(query_seed)
        rows = list(test.instances)
        full = rows[: TREE["full"]]
        self.labels = [i.label for i in full]
        self.queries = [dict(i.values) for i in full]
        for inst in rows[TREE["full"]: TREE["full"] + TREE["half"]]:
            keep = rng.sample(list(self.spec.feature_names), TREE["length"] // 2)
            self.queries.append({f: inst.values[f] for f in keep})
        self.knowledge = list(kbmod.parse_kb(knowledge_text(rng, self.spec, TREE["knowledge"])).clauses)

    def round(self, samples: Samples) -> list[str]:
        # Training takes a few ms, so it is repeated before every slice of
        # the queries: train_s gets many samples, spread over the round
        # rather than bunched at its start.  The KBs are identical.
        out = []
        self.results = []
        step = -(-len(self.queries) // TREE["trains"])
        for i, q in enumerate(self.queries):
            if i % step == 0:
                self.qid("train")
                kb = timed(samples, samples.train, self._train)
                if kb is None:
                    return out + ["train failed"]
            self.qid(f"c{i}")
            res = timed(samples, samples.classify, evaluate.classify_query, kb, q)
            self.results.append(res)
            if res is not None:
                check_result(samples, res, f"query {i}")
                samples.check(res.objective_min >= 0, f"query {i}: negative deviation")
                out.append(f"c{i} {res.label} {res.p_lower:.6f} {res.p_upper:.6f}")
        self.explanations = []
        n_full = len(self.labels)
        for i, res in enumerate(self.results[:n_full]):
            if len(self.explanations) == TREE["explain"]:
                break
            if res is None or not res.label:
                continue
            self.qid(f"e{i}")
            expl = timed(samples, samples.explain, explain.compute_explanation, self.queries[i], kb,
                         TREE["k"], use_relevant=False)
            if expl is not None:
                check_explanation(samples, expl, self.queries[i], TREE["k"], f"explanation {i}")
                self.explanations.append(expl)
                out.append(f"e{i} {query_text(expl.sub_query)} {expl.score:.6f}")
        self.qid(None)
        return out

    def _train(self):
        return kbmod.merge(evaluate.train_kb(self.train, "tree"), self.knowledge)

    def finish(self, samples: Samples) -> tuple[float, float]:
        n_full = len(self.labels)
        preds = [bool(r and r.label) for r in self.results[:n_full]]
        acc = [explanation_accuracy(e.sub_query, self.spec.seed) for e in self.explanations]
        return f1(preds, self.labels), (sum(acc) / len(acc) if acc else 0.0)


class ModelCli(Workload):
    """Cold command-line processes on a model file written by ``plkb train``."""

    def __init__(self, root: Path, workdir: Path):
        self.src = root / "src"
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        spec_seed, data_seed, test_seed = sub_seeds(seed, 3)
        self.spec = data.random_seed_spec(CLI["length"], CLI["alphabet"], CLI["match"], spec_seed)
        self.train = data.generate_synthetic(self.spec, CLI["rows"], data_seed)
        test = data.generate_synthetic(self.spec, CLI["test_rows"], test_seed)
        self.queries = [dict(i.values) for i in test.instances]
        self.labels = [i.label for i in test.instances]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv = self.workdir / "train.csv"
        with open(self.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.train.features) + ["label"])
            for inst in self.train.instances:
                writer.writerow([inst.values[f] for f in self.train.features]
                                + ["pos" if inst.label else "neg"])
        self.model = self.workdir / "model.plkb"
        self.tree_model = self.workdir / "tree.plkb"

    def prepare(self, samples: Samples) -> list[str]:
        """Reference answers from the in-memory KB, checked against the
        oracle; they give f1 and explanation accuracy and pick the CLI
        queries."""
        self.kb = timed(samples, None, evaluate.train_kb, self.train, "direct")
        oracle = DirectOracle(
            self.spec.feature_names, [dict(i.values) for i in self.train.instances],
            [i.label for i in self.train.instances],
        )
        self.ref = []
        out = []
        for i, q in enumerate(self.queries):
            res = timed(samples, None, evaluate.classify_query, self.kb, q)
            self.ref.append(res)
            if res is not None:
                samples.check((res.p_lower, res.p_upper, res.label) == oracle.classify(q),
                              f"reference query {i} disagrees with the oracle")
                out.append(f"r{i} {res.label} {res.p_lower!r} {res.p_upper!r}")
        self.ref_expl = {}
        for i, (q, res) in enumerate(zip(self.queries, self.ref)):
            if res is None or not res.label:
                continue
            expl = timed(samples, None, explain.compute_explanation, q, self.kb, CLI["k"])
            if expl is not None:
                self.ref_expl[i] = expl
                out.append(f"x{i} {query_text(expl.sub_query)} {expl.score!r}")
        # CLI queries: those nearest the decision threshold, where a label
        # lost in the model file would show first, then one from the middle
        # of the test set.  Exact ties at 0.5 are skipped: the LABEL_EPS
        # band keeps them negative whatever rounding the file applies.
        known = [i for i, r in enumerate(self.ref) if r is not None]
        near = sorted((i for i in known if self.ref[i].p_avg != 0.5),
                      key=lambda i: (abs(self.ref[i].p_avg - 0.5), i)) or known
        self.cli_classify = near[: CLI["classify"] - 1] + [known[len(known) // 2]]
        self.cli_explain = sorted(self.ref_expl)[: CLI["explain"]]
        if self.spans is not None:  # the tree model behind the cold-start floor
            self._cli(samples, None, "train", "--method", "tree", "--input", str(self.csv),
                      "--label-col", "label", "--pos-label", "pos", "--out", str(self.tree_model))
        return out

    def _env(self) -> dict[str, str]:
        return dict(os.environ, PYTHONPATH=str(self.src))

    def _cli(self, samples: Samples, bucket, *args: str):
        """Run the plkb command line to completion under the host-speed
        probe (``cli_child.py``, i.e. ``python -m plkb ...``); returns the
        parsed JSON stdout.  The child's probe record joins this run's."""
        samples.attempted += 1
        probe_file = self.workdir / "probes.json"
        env = dict(self._env(), BENCH_PROBE_FILE=str(probe_file))
        with samples.pace.paused():
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, str(CLI_CHILD), *args], env=env,
                                      capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc = None
            end = time.perf_counter()
        if probe_file.exists():
            samples.pace.add(json.loads(probe_file.read_text(encoding="utf-8")))
            probe_file.unlink()
        if proc is None:
            samples.fail(f"plkb {args[0]}: timed out")
            return None
        if proc.returncode != 0:
            samples.fail(f"plkb {args[0]}: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
            return None
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            samples.fail(f"plkb {args[0]}: output is not JSON")
            return None
        if bucket is not None:
            bucket.append((start, end))
        return payload

    def round(self, samples: Samples) -> list[str]:
        out = []
        self.qid("cli-train")
        with self._span("cli.train"):
            trained = self._cli(samples, samples.train, "train", "--method", "direct",
                                "--input", str(self.csv), "--label-col", "label",
                                "--pos-label", "pos", "--out", str(self.model))
        if trained is None:
            return ["train failed"]
        samples.check(trained.get("clauses") == len(self.kb),
                      f"plkb train wrote {trained.get('clauses')} clauses, expected {len(self.kb)}")
        common = ("--kb", str(self.model), "--domains", str(self.csv))
        for i in self.cli_classify:
            q = self.queries[i]
            self.qid(f"c{i}")
            with self._span("cli.classify"):
                got = self._cli(samples, samples.classify, "classify", *common,
                                "--query", query_text(q))
            if got is not None:
                samples.check(got.get("label") == self.ref[i].label,
                              f"query {i}: CLI label {got.get('label')}, in memory {self.ref[i].label}")
                out.append(f"c{i} {got.get('label')}")
        for i in self.cli_explain:
            q = self.queries[i]
            self.qid(f"e{i}")
            with self._span("cli.explain"):
                got = self._cli(samples, samples.explain, "explain", *common,
                                "--query", query_text(q), "-k", str(CLI["k"]))
            if got is not None:
                sub = got.get("explanation", {})
                samples.check(len(sub) == CLI["k"] and all(q.get(f) == v for f, v in sub.items())
                              and got.get("direction") == "max",
                              f"explanation {i}: malformed CLI output {got}")
                out.append(f"e{i} {query_text(sub)}")
        self.qid(None)
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        samples.peak_rss_mb = max(samples.peak_rss_mb, child)
        if self.spans is not None:
            self._traced_extras(samples)
        return out

    def _traced_extras(self, samples: Samples) -> None:
        """Per-layer views of the CLI's work, timed in this process."""
        self.qid("layers")
        timed(samples, None, evaluate.train_kb, self.train, "direct")
        timed(samples, None, kbmod.serialize_kb, self.kb)
        text = self.model.read_text(encoding="utf-8")
        samples.file_mb.append(len(text.encode()) / 1e6)
        timed(samples, None, kbmod.parse_kb, text)
        with self._span("cli.import"), samples.pace.paused():
            samples.attempted += 1
            try:
                proc = subprocess.run([sys.executable, "-c", "import plkb.cli"], env=self._env(),
                                      capture_output=True, timeout=SUBPROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc = None
            if proc is None or proc.returncode != 0:
                samples.fail("import plkb.cli failed")
        with self._span("cli.floor"):
            self._cli(samples, None, "classify", "--kb", str(self.tree_model),
                      "--domains", str(self.csv), "--query", query_text(self.queries[0]))
        self.qid(None)

    def _span(self, name: str):
        return contextlib.nullcontext() if self.spans is None else self.spans.span(name)

    def finish(self, samples: Samples) -> tuple[float, float]:
        preds = [bool(r and r.label) for r in self.ref]
        acc = [explanation_accuracy(e.sub_query, self.spec.seed) for e in self.ref_expl.values()]
        return f1(preds, self.labels), (sum(acc) / len(acc) if acc else 0.0)

    def cleanup(self) -> None:
        for path in (self.csv, self.model, self.tree_model):
            if path.exists():
                path.unlink()
        if self.workdir.exists() and not any(self.workdir.iterdir()):
            self.workdir.rmdir()


def make(name: str, root: Path, workdir: Path) -> Workload:
    if name == "direct-desk":
        return DirectDesk()
    if name == "tree-lp":
        return TreeLp()
    if name == "model-cli":
        return ModelCli(root, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("direct-desk", "tree-lp", "model-cli")
