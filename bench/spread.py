"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1-10 --out bench/out/spread.json

For every workload the runner is started once per seed, one process at a
time.  Each metric gets its median, quartiles (``statistics.quantiles``,
n=4) and spread, the quartile distance as a share of the median, which
is compared with the metric's bound from BENCHMARK.json.  With
``--trace 1`` the per-layer metrics are summarised instead (no bounds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in names:
        results, walls, records, raws = [], [], [], []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
            records.append(next((json.loads(x[len("record: "):]) for x in lines
                                 if x.startswith("record: ")), None))
            raws.append({x.split()[1]: float(x.split()[3]) for x in lines if x.startswith("raw: ")})
            print(f"{name} seed {seed}: {walls[-1]:.1f} s, correct={results[-1]['correct']}",
                  file=sys.stderr)
        metrics = {
            m: summarise([r["metrics"][m]["value"] for r in results], bounds.get(m))
            for m in results[0]["metrics"]
        }
        report["workloads"][name] = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "wall_s": walls,
            "digests": {str(s): rec and rec.get("digest") for s, rec in zip(args.seeds, records)},
            "record": records[0],
            "metrics": metrics,
            # unscaled times (wall less probes), for reading the host-speed scaling
            "raw": {m: summarise([r[m] for r in raws], None) for m in raws[0]} if raws[0] else {},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, w in report["workloads"].items():
        print(f"{name}: correct={w['all_correct']} wall {min(w['wall_s']):.0f}-{max(w['wall_s']):.0f} s")
        for m, s in w["metrics"].items():
            flag = "" if s.get("within_third_of_bound", True) else "  <-- spread >= bound/3"
            print(f"  {m:28s} median {s['median']:<12.6g} spread {s['spread']:.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
