"""plkb benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload direct-desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing needs installing.  Set-up (input
generation) is repeated and its median reported as ``setup_s``; then
rounds of identical work run back to back until ``--seconds`` is spent
(at least one round).  Every time is scaled to a reference host speed
by the probe in ``pace.py``; the wall times (less the probes) are
printed on ``raw:`` lines.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` wraps the package's functions, records spans and prints
the per-layer metrics instead, writing the spans to ``bench/out/``.
The last line of stdout is the result object; a failed operation or
check makes ``correct`` false and is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
TAIL_POOL = 100


def percentile_tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, with
    its label and sample count; the maximum when there are too few."""
    srt = sorted(values)
    n = len(srt)
    if n <= 10:
        return srt[-1], f"max of {n}"
    return srt[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def round_tail(values: list[float], ends: list[int]) -> tuple[float, str]:
    """Median over rounds of each round's tail.

    Every round makes the same calls, so each round's tail sits at the
    same percentile whatever the number of rounds a run fits; a tail over
    all samples would move to another percentile with the round count.
    """
    if not values:
        return 0.0, "none"
    starts = [0] + ends[:-1]
    tails = [percentile_tail(values[a:b]) for a, b in zip(starts, ends) if b > a]
    return statistics.median(t for t, _ in tails), f"median of {tails[0][1]} per round, {len(tails)} rounds"


def run_tail(values: list[float], ends: list[int]) -> tuple[float, str]:
    """The run's tail.  With at least TAIL_POOL samples, their p90: ten or
    more samples lie beyond it, and as every round makes the same calls,
    the p90 of any number of rounds estimates the same percentile of the
    same mix of calls.  With fewer samples, ``round_tail``."""
    if len(values) < TAIL_POOL:
        return round_tail(values, ends)
    return statistics.quantiles(values, n=10)[-1], f"p90 of {len(values)}, {len(ends)} rounds"


def timings(samples, setup, ends, seconds) -> dict:
    """The timing metrics, from scaled (``seconds=samples.seconds``) or
    wall (``samples.raw_seconds``) times."""
    train = seconds(samples.train)
    cs = seconds(samples.classify)
    ms = [x * 1000 for x in cs]
    ems = [x * 1000 for x in seconds(samples.explain)]
    return {
        "setup_s": (statistics.median(seconds(setup)), "s"),
        "train_s": (statistics.fmean(train) if train else 0.0, "s"),
        "classify_qps": (len(cs) / sum(cs) if cs else 0.0, "1/s"),
        "classify_p50_ms": (statistics.median(ms) if ms else 0.0, "ms"),
        "classify_tail_ms": (run_tail(ms, [c for c, _ in ends])[0], "ms"),
        "explain_p50_ms": (statistics.median(ems) if ems else 0.0, "ms"),
        "explain_tail_ms": (run_tail(ems, [e for _, e in ends])[0], "ms"),
    }


def end_to_end(samples, setup, f1, ends) -> tuple[dict, list[str]]:
    metrics = timings(samples, setup, ends, samples.seconds)
    _, c_note = run_tail(samples.raw_seconds(samples.classify), [c for c, _ in ends])
    _, e_note = run_tail(samples.raw_seconds(samples.explain), [e for _, e in ends])
    notes = [f"classify_tail_ms is the {c_note}; explain_tail_ms the {e_note}",
             f"times scaled to a {samples.pace.ref_s * 1000:g} ms probe; this run's "
             f"median probe took {samples.pace.median_ms():.4g} ms over {len(samples.pace.probes)} probes"]
    metrics.update({
        "peak_rss_mb": (samples.peak_rss_mb, "MB"),
        "f1": (f1, "ratio"),
        "ok_frac": (1 - samples.failed / max(samples.attempted, 1), "ratio"),
    })
    return metrics, notes


def run_record(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        import subprocess

        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = [p.read_text(encoding="utf-8") for p in sorted((SRC / "plkb").glob("*.py"))]
    src_lines = sum(len(text.splitlines()) for text in sources)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_plkb_lines": src_lines,
        # identifies the measured code where the checkout has no git metadata
        "src_plkb_sha256": hashlib.sha256("".join(sources).encode()).hexdigest()[:16],
        "note": "closed loop, one caller; timings from a shared host are noisy, "
                "compare medians over seeds",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plkb" / "__init__.py").is_file():
        print(f"error: no plkb sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import plkb

    if Path(plkb.__file__).resolve().parent != (SRC / "plkb").resolve():
        print(f"error: imported plkb from {plkb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import Recorder, write_spans

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, ROOT, workdir)
    samples = workloads.Samples()
    try:
        samples.pace.start()
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(args.seed)
            setup.append((start, time.perf_counter()))
        recorder = Recorder() if args.trace else None
        wl.spans = recorder
        reference = wl.prepare(samples)
        if recorder is not None:
            recorder.install()
        rounds = []
        traces = []
        ends = []  # sample counts at the end of each round
        started = time.perf_counter()
        while True:
            r_start = time.perf_counter()
            rounds.append(wl.round(samples))
            r_time = time.perf_counter() - r_start
            ends.append((len(samples.classify), len(samples.explain)))
            if recorder is not None:
                traces.append(recorder.take())
            # stop when the next round would end more than half a round late
            if time.perf_counter() - started + r_time / 2 > args.seconds:
                break
        if recorder is not None:
            recorder.uninstall()
        quality = wl.finish(samples)
    finally:
        samples.pace.stop()
        wl.cleanup()
    if not samples.peak_rss_mb:
        samples.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = [workloads.digest(reference + out) for out in rounds]
    samples.check(len(set(digests)) == 1, f"rounds disagree: digests {digests}")
    record = run_record(args)
    record.update(rounds=len(rounds), digest=digests[0])

    if recorder is None:
        metrics, notes = end_to_end(samples, setup, quality[0], ends)
    else:
        metrics, notes = layers.per_layer(traces, samples, quality[1])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(path, [spans for spans, _, _ in traces])
        notes.append(f"spans written to {path.relative_to(ROOT)}")

    print("record: " + json.dumps(record, sort_keys=True))
    for note in notes:
        print("note: " + note)
    for name, (value, unit) in timings(samples, setup, ends, samples.raw_seconds).items():
        print(f"raw: {name} = {value:.6g} {unit} (wall time less probes, not scaled)")
    for error in samples.errors:
        print("error: " + error)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = samples.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
