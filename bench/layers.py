"""Per-layer metrics from the spans of a traced run.

Every metric is computed per round: times and call counts are totals
over the round, clause counts and LP sizes are means per KB or per LP.
Times are reported as the median over rounds, exact counts from the
first round after checking that every round counted the same (rounds repeat identical work, so a differing count
means a nondeterministic layer or a missed wrapper).  Layers a workload
does not exercise read 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import ATTR, END, NAME, PARENT, START, self_times

# name -> unit; the order is the printed order
METRICS = {
    "direct.count_s": "s",
    "direct.to_kb_s": "s",
    "direct.clauses": "count",
    "direct.extract_s": "s",
    "direct.extract_calls": "count",
    "direct.extract_clauses_mean": "count",
    "tree.id3_s": "s",
    "tree.extract_s": "s",
    "tree.clauses": "count",
    "kb.merge_s": "s",
    "kb.serialize_s": "s",
    "kb.parse_s": "s",
    "kb.file_mb": "MB",
    "lp.infer_calls": "count",
    "lp.lp_calls": "count",
    "lp.lp_share": "ratio",
    "lp.median_s": "s",
    "lp.build_s": "s",
    "lp.query_s": "s",
    "lp.self_s": "s",
    "lp.highs_s": "s",
    "lp.highs_calls": "count",
    "lp.highs_nit": "count",
    "lp.vars_mean": "count",
    "lp.rows_mean": "count",
    "explain.search_s": "s",
    "explain.subqueries": "count",
    "explain.accuracy": "ratio",
    "cli.import_ms": "ms",
    "cli.floor_ms": "ms",
    "py.gc_s": "s",
    "py.gc_gen2": "count",
    "host.probe_ms": "ms",
    "traced.train_s": "s",
    "traced.classify_p50_ms": "ms",
    "traced.explain_p50_ms": "ms",
}

# Counts that must repeat exactly from round to round.
EXACT = (
    "direct.clauses", "direct.extract_calls", "tree.clauses", "lp.infer_calls",
    "lp.lp_calls", "lp.highs_calls", "lp.highs_nit", "explain.subqueries",
)


def round_metrics(spans: list[list], gc_seconds: float, gc_gen2: int) -> tuple[dict, dict]:
    """Per-layer metrics of one round, plus raw call counts for checks."""
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    built_lp = set()
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[NAME] == "lp.build_lp" and s[PARENT] >= 0:
            built_lp.add(s[PARENT])

    def total(*names):
        return sum(dur[i] for n in names for i in by_name[n])

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def mean_attr(name, pick=lambda a: a):
        vals = [pick(spans[i][ATTR]) for i in by_name[name]]
        return statistics.fmean(vals) if vals else 0.0

    def ms_median(name):
        vals = [dur[i] * 1000 for i in by_name[name]]
        return statistics.median(vals) if vals else 0.0

    infer = by_name["lp.infer_pos"]
    lp_infer = [i for i in infer if i in built_lp]
    m = {
        "direct.count_s": total("direct.add_instance"),
        "direct.to_kb_s": total("direct.to_kb"),
        "direct.clauses": mean_attr("direct.build_direct_kb"),
        "direct.extract_s": total("direct.active_kb", "direct.relevant_kb"),
        "direct.extract_calls": count("direct.active_kb", "direct.relevant_kb"),
        "direct.extract_clauses_mean": (
            statistics.fmean(spans[i][ATTR] for n in ("direct.active_kb", "direct.relevant_kb")
                             for i in by_name[n])
            if count("direct.active_kb", "direct.relevant_kb") else 0.0
        ),
        "tree.id3_s": total("tree.build_id3"),
        "tree.extract_s": total("tree.kb_from_tree"),
        "tree.clauses": mean_attr("tree.kb_from_tree"),
        "kb.merge_s": total("kb.merge"),
        "kb.serialize_s": total("kb.serialize_kb"),
        "kb.parse_s": total("kb.parse_kb"),
        "kb.file_mb": 0.0,
        "lp.infer_calls": len(infer),
        "lp.lp_calls": count("lp.build_lp"),
        "lp.lp_share": len(lp_infer) / len(infer) if infer else 0.0,
        "lp.median_s": sum(dur[i] for i in infer if i not in built_lp),
        "lp.build_s": total("lp.build_lp"),
        "lp.query_s": total("lp.apply_query"),
        "lp.self_s": sum(own[i] for i in lp_infer),
        "lp.highs_s": total("lp.linprog"),
        "lp.highs_calls": count("lp.linprog"),
        "lp.highs_nit": sum(spans[i][ATTR] for i in by_name["lp.linprog"]),
        "lp.vars_mean": mean_attr("lp.build_lp", lambda a: a[0]),
        "lp.rows_mean": mean_attr("lp.build_lp", lambda a: a[1]),
        "explain.search_s": sum(own[i] for n in ("explain.compute_explanation",
                                                 "explain.evaluate_sub_query")
                                for i in by_name[n]),
        "explain.subqueries": count("explain.evaluate_sub_query"),
        "cli.import_ms": ms_median("cli.import"),
        "cli.floor_ms": ms_median("cli.floor"),
        "py.gc_s": gc_seconds,
        "py.gc_gen2": gc_gen2,
    }
    calls = {"classify": count("evaluate.classify_query")}
    return m, calls


def per_layer(traces, samples, expl_accuracy: float) -> tuple[dict, list[str]]:
    """Aggregate rounds into the printed metric set; adds failed checks
    to ``samples``.  ``expl_accuracy`` is the workload's explanation
    accuracy against the hidden seed."""
    rounds = []
    for spans, gc_seconds, gc_gen2 in traces:
        m, calls = round_metrics(spans, gc_seconds, gc_gen2)
        samples.check(
            m["lp.infer_calls"] == calls["classify"] + m["explain.subqueries"],
            f"lp.infer_calls {m['lp.infer_calls']} != classify_query calls "
            f"{calls['classify']} + sub-queries {m['explain.subqueries']}",
        )
        rounds.append(m)
    for name in EXACT:
        values = [m[name] for m in rounds]
        samples.check(len(set(values)) == 1, f"{name} differs between rounds: {values}")
    out = {}
    for name, unit in METRICS.items():
        if name.startswith(("traced.", "host.")) or name == "explain.accuracy":
            continue
        values = [m[name] for m in rounds]
        value = values[0] if unit == "count" and name in EXACT else statistics.median(values)
        out[name] = (value, unit)
    out["explain.accuracy"] = (expl_accuracy, "ratio")
    if samples.file_mb:
        out["kb.file_mb"] = (statistics.median(samples.file_mb), "MB")
    out["host.probe_ms"] = (samples.pace.median_ms(), "ms")
    train, cs, es = (samples.seconds(b) for b in (samples.train, samples.classify, samples.explain))
    out["traced.train_s"] = (statistics.fmean(train) if train else 0.0, "s")
    out["traced.classify_p50_ms"] = (statistics.median(cs) * 1000 if cs else 0.0, "ms")
    out["traced.explain_p50_ms"] = (statistics.median(es) * 1000 if es else 0.0, "ms")
    notes = [f"{len(rounds)} traced rounds; counts are per round"]
    return out, notes
