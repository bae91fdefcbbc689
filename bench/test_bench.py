"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Covers input generation, the output checks (including that they catch a
wrong answer), span nesting and self-time arithmetic, wrapper
installation, and the runner's refusal to run without sources.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import DirectOracle  # noqa: E402

from plkb import data, evaluate, explain  # noqa: E402
from plkb.lp import InferenceResult  # noqa: E402

TINY_DESK = dict(length=5, alphabet=3, match=2, rows=80, k=2)
TINY_TREE = dict(length=6, alphabet=3, match=3, rows=120, full=6, half=4,
                 explain=1, k=1, knowledge=2, trains=2)
TINY_CLI = dict(length=4, alphabet=3, match=2, rows=40, test_rows=12,
                classify=2, explain=1, k=2)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "DESK", TINY_DESK)
    monkeypatch.setattr(workloads, "TREE", TINY_TREE)
    monkeypatch.setattr(workloads, "CLI", TINY_CLI)


def run_workload(wl, rounds=2, recorder=None):
    samples = workloads.Samples()
    samples.pace.start()
    wl.setup(3)
    wl.spans = recorder
    reference = wl.prepare(samples)
    if recorder is not None:
        recorder.install()
    traces, outs = [], []
    try:
        for _ in range(rounds):
            outs.append(reference + wl.round(samples))
            if recorder is not None:
                traces.append(recorder.take())
    finally:
        samples.pace.stop()
        if recorder is not None:
            recorder.uninstall()
    quality = wl.finish(samples)
    wl.cleanup()
    return samples, outs, traces, quality


def test_inputs_depend_only_on_the_seed(tiny):
    a, b, c = workloads.DirectDesk(), workloads.DirectDesk(), workloads.DirectDesk()
    a.setup(5)
    b.setup(5)
    c.setup(6)
    assert a.queries == b.queries and a.spec == b.spec
    assert a.queries != c.queries
    t1, t2 = workloads.TreeLp(), workloads.TreeLp()
    t1.setup(5)
    t2.setup(5)
    assert t1.queries == t2.queries
    assert [str(w.clause) for w in t1.knowledge] == [str(w.clause) for w in t2.knowledge]
    assert all(not w.clause.is_rule_shaped for w in t1.knowledge)
    assert len(t1.queries[-1]) == TINY_TREE["length"] // 2


@pytest.mark.parametrize("cls", [workloads.DirectDesk, workloads.TreeLp])
def test_in_process_workloads_pass_their_checks(tiny, cls):
    samples, outs, _, (f1, acc) = run_workload(cls())
    assert samples.failed == 0, samples.errors
    assert samples.attempted > 0
    assert outs[0] == outs[1]
    assert 0 <= f1 <= 1 and 0 <= acc <= 1


def test_model_cli_workload_passes_its_checks(tiny, tmp_path):
    wl = workloads.ModelCli(HERE.parent, tmp_path / "work")
    samples, outs, _, _ = run_workload(wl, rounds=1)
    assert samples.failed == 0, samples.errors
    assert len(samples.train) == 1
    assert len(samples.classify) == TINY_CLI["classify"]
    assert not (tmp_path / "work").exists()


def test_oracle_matches_the_program_and_catches_a_wrong_answer(tiny):
    wl = workloads.DirectDesk()
    wl.setup(4)
    kb = evaluate.train_kb(wl.train, "direct")
    rows = [dict(i.values) for i in wl.train.instances]
    oracle = DirectOracle(wl.spec.feature_names, rows, [i.label for i in wl.train.instances])
    for q in wl.queries:
        res = evaluate.classify_query(kb, q)
        assert (res.p_lower, res.p_upper, res.label) == oracle.classify(q)
        expl = explain.compute_explanation(q, kb, 2)
        assert (expl.sub_query, expl.score) == oracle.explain(q, 2)
    # a forged label fails the midpoint rule check
    samples = workloads.Samples()
    bad = InferenceResult(0.2, 0.3, 0.25, 0.0, True)
    assert not workloads.check_result(samples, bad, "forged")
    assert samples.failed == 1
    # the finish step compares every answer with the oracle
    samples, _, _, _ = run_workload(workloads.DirectDesk(), rounds=1)
    assert samples.failed == 0
    wl = workloads.DirectDesk()
    samples = workloads.Samples()
    wl.setup(3)
    wl.round(samples)
    r = wl.results[0]
    wl.results[0] = InferenceResult(r.p_lower, r.p_upper, r.p_avg, r.objective_min, not r.label)
    wl.finish(samples)
    assert samples.failed == 1 and "oracle" in samples.errors[0]


def test_covered_and_self_time_arithmetic():
    assert spans.covered([]) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(0, 4), (1, 2)]) == 4
    s = [
        ["root", 0.0, 10.0, -1, "q", None],
        ["a", 1.0, 4.0, 0, "q", None],
        ["b", 3.0, 6.0, 0, "q", None],   # overlaps a: covered 1..6
        ["a.x", 2.0, 3.0, 1, "q", None],
    ]
    assert spans.self_times(s) == [5.0, 2.0, 3.0, 1.0]


def test_recorder_nesting_and_query_ids():
    rec = spans.Recorder()
    rec.qid = "q1"
    with rec.span("outer"):
        time.sleep(0.002)
        with rec.span("inner"):
            time.sleep(0.002)
    out, _, _ = rec.take()
    assert [s[spans.NAME] for s in out] == ["outer", "inner"]
    assert out[0][spans.PARENT] == -1 and out[1][spans.PARENT] == 0
    assert all(s[spans.QID] == "q1" for s in out)
    own = spans.self_times(out)
    assert own[0] == pytest.approx(out[0][spans.END] - out[0][spans.START]
                                   - (out[1][spans.END] - out[1][spans.START]))
    assert rec.take()[0] == []


def test_wrappers_reach_from_imported_names_and_uninstall(tiny):
    import plkb.evaluate
    import plkb.explain

    originals = (plkb.evaluate.active_kb, plkb.explain.infer_pos, plkb.evaluate.classify_query)
    samples, _, traces, _ = run_workload(workloads.DirectDesk(), rounds=2,
                                         recorder=spans.Recorder())
    assert (plkb.evaluate.active_kb, plkb.explain.infer_pos,
            plkb.evaluate.classify_query) == originals
    assert samples.failed == 0, samples.errors
    first, _, _ = traces[0]
    names = {s[spans.NAME] for s in first}
    assert {"evaluate.classify_query", "direct.active_kb", "direct.relevant_kb",
            "lp.infer_pos", "direct.add_instance", "direct.to_kb"} <= names
    by_index = {i: s for i, s in enumerate(first)}
    for s in first:
        if s[spans.NAME] == "direct.active_kb":
            assert by_index[s[spans.PARENT]][spans.NAME] == "evaluate.classify_query"
    m, calls = layers.round_metrics(*traces[0])
    assert m["lp.infer_calls"] == calls["classify"] + m["explain.subqueries"]
    assert m["lp.lp_calls"] == 0 and m["lp.highs_calls"] == 0
    out, _ = layers.per_layer(traces, samples, 1.0)
    assert samples.failed == 0, samples.errors
    assert set(out) == set(layers.METRICS)


def test_tree_lp_layers_reach_the_solver(tiny):
    _, _, traces, _ = run_workload(workloads.TreeLp(), rounds=1, recorder=spans.Recorder())
    m, _ = layers.round_metrics(*traces[0])
    assert m["lp.lp_share"] == 1
    assert m["lp.highs_calls"] == 3 * m["lp.lp_calls"] > 0
    assert m["lp.highs_nit"] > 0


def test_percentile_tail_keeps_ten_samples_beyond():
    assert run.percentile_tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    values = [float(i) for i in range(100)]
    value, label = run.percentile_tail(values)
    assert value == 89.0 and sum(v > value for v in values) == 10
    assert label == "p90.0 of 100"
    # per round: two rounds of three samples, tails 3 and 30
    tail, note = run.round_tail([1.0, 3.0, 2.0, 10.0, 30.0, 20.0], [3, 6])
    assert tail == 16.5 and note == "median of max of 3 per round, 2 rounds"
    # 100 samples or more: their p90, whatever the rounds
    tail, note = run.run_tail(values, [50, 100])
    assert tail == pytest.approx(89.9) and note == "p90 of 100, 2 rounds"
    assert run.run_tail(values[:6], [3, 6]) == run.round_tail(values[:6], [3, 6])


def test_pace_scales_by_the_probes_around_an_operation():
    p = pace.Pace(ref_s=0.002)
    # probes at 1 s steps: 2 ms (reference speed) up to 5 s, 4 ms (half speed) after
    p.probes = [(t - d / 2, t + d / 2) for t, d in zip(range(11), [0.002] * 6 + [0.004] * 5)]
    assert p.scaled((2.2, 2.3)) == pytest.approx(0.1)
    assert p.scaled((8.2, 8.3)) == pytest.approx(0.05)  # slow host: half the wall time
    # the probes inside an operation are taken out of its time; probes 4..7: 2, 2, 4, 4 ms
    assert p.raw((4.5, 6.5)) == pytest.approx(2.0 - 0.006)
    assert p.factor(4.5, 6.5) == pytest.approx(0.002 / 0.003)
    # too few probes in the window: the nearest MIN_PROBES are used
    p.probes = [(t, t + d) for t, d in zip((0.0, 10.0, 20.0, 30.0), (0.001, 0.002, 0.004, 0.008))]
    assert p.factor(21.0, 21.0) == pytest.approx(0.002 / ((0.002 + 0.004 + 0.008) / 3))
    # a child's record merges in time order; its overhead is excluded, not a probe
    p.add({"probes": [[15.0, 15.003]], "overhead": [[14.0, 14.5]]})
    assert [s for s, _ in p.probes] == [0.0, 10.0, 15.0, 20.0, 30.0]
    assert p.raw((13.0, 16.0)) == pytest.approx(3.0 - 0.5 - 0.003)


def test_pace_timer_probes_and_restores_state():
    import gc
    import signal

    p = pace.Pace()
    before = signal.getsignal(signal.SIGALRM)
    p.start()
    deadline = time.perf_counter() + 10 * pace.INTERVAL_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    with p.paused():
        n = len(p.probes)
        time.sleep(3 * pace.INTERVAL_S)
        assert len(p.probes) == n
    p.stop()
    assert len(p.probes) >= 5 and len(p.overhead) == 1
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()


def test_cli_child_runs_the_command_line_and_writes_probes(tmp_path):
    out = tmp_path / "probes.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_child.py"), "--help"],
        env={**workloads.os.environ, "PYTHONPATH": str(HERE.parent / "src"),
             "BENCH_PROBE_FILE": str(out)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and "classify" in proc.stdout
    record = workloads.json.loads(out.read_text())
    assert len(record["probes"]) >= 1 and len(record["overhead"]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "direct-desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
