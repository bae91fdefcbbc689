import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import CliRunner, NEGATIVE_STRINGS, POSITIVE_STRINGS, stop_highs_at_time_limit

import plkb
from plkb.cli import _emit, main, parse_query
from plkb.kb import parse_kb, rule_clause
from plkb.lp import closed_form


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def strings_csv(tmp_path):
    lines = ["a1,a2,a3,a4,label"]
    lines += [",".join(s) + ",pos" for s in POSITIVE_STRINGS]
    lines += [",".join(s) + ",neg" for s in NEGATIVE_STRINGS]
    p = tmp_path / "strings.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def model_body(path: Path) -> str:
    """A saved model's lines after its header line, which it must have."""
    header, body = path.read_text(encoding="utf-8").split("\n", 1)
    assert header.startswith("# plkb 2 crc32=")
    return body


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestParseQuery:
    def test_parses_pairs(self):
        assert parse_query("a1=0, a2=1") == {"a1": "0", "a2": "1"}
        assert parse_query("a1=0,,a2=1,") == {"a1": "0", "a2": "1"}

    def test_rejects_missing_value(self):
        with pytest.raises(ValueError, match="feature=value"):
            parse_query("a1")

    def test_rejects_duplicate_feature(self):
        with pytest.raises(ValueError, match="twice"):
            parse_query("a1=0,a1=1")


class TestTrainClassifyExplain:
    def test_full_round(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        out = run_json(
            runner,
            ["train", "--method", "direct", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert out["clauses"] == 59
        kb = parse_kb(kb_path.read_text(encoding="utf-8"))
        assert rule_clause([("a4", "1")]) in {wc.clause for wc in kb.clauses}

        res = run_json(
            runner,
            ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", "a1=0,a2=1,a3=0,a4=1"],
        )
        assert set(res) == {"label", "p_lower", "p_upper", "p_avg", "objective_min"}
        assert res["label"] is False
        assert res["p_avg"] == pytest.approx(0.5, abs=1e-5)

        expl = run_json(
            runner,
            ["explain", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", "a1=0,a2=1,a3=0,a4=1", "-k", "1"],
        )
        assert expl["explanation"] == {"a1": "0"}
        assert expl["masked"] == "0---"
        assert expl["direction"] == "min"

    @pytest.mark.parametrize("method", ["direct", "tree"])
    def test_csv_with_a_byte_order_mark(self, runner, strings_csv, tmp_path, method):
        # the first column is a1, not "\ufeffa1", in the model and the domains
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_text("\ufeff" + strings_csv.read_text(encoding="utf-8"), encoding="utf-8")
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", method, "--input", str(bom_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert "\ufeff" not in kb_path.read_text(encoding="utf-8")
        res = run_json(
            runner,
            ["classify", "--kb", str(kb_path), "--domains", str(bom_csv),
             "--query", "a1=0,a2=1,a3=0,a4=1"],
        )
        expected = run_json(
            runner,
            ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", "a1=0,a2=1,a3=0,a4=1"],
        )
        assert res == expected

    def test_tree_method_train(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        out = run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert out["clauses"] == 8

    def test_dump_tree_flag(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        tree_path = tmp_path / "tree.txt"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos",
             "--out", str(kb_path), "--dump-tree", str(tree_path)],
        )
        text = tree_path.read_text(encoding="utf-8")
        assert text.startswith("root [4/8]")
        result = runner.invoke(
            main,
            ["train", "--method", "direct", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos",
             "--out", str(kb_path), "--dump-tree", str(tree_path)],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("method", ["tree", "tree-all"])
    def test_dump_tree_grows_one_tree(self, runner, strings_csv, tmp_path, monkeypatch, method):
        grown = []
        original = plkb.tree.build_id3

        def counting(ds):
            grown.append(ds)
            return original(ds)

        # every module that binds the name; the command line imports it
        # from plkb.tree when it runs
        for module in (plkb.tree, plkb.evaluate):
            monkeypatch.setattr(module, "build_id3", counting)
        kb_path = tmp_path / "kb.plkb"
        tree_path = tmp_path / "tree.txt"
        run_json(
            runner,
            ["train", "--method", method, "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos",
             "--out", str(kb_path), "--dump-tree", str(tree_path)],
        )
        assert len(grown) == 1
        monkeypatch.undo()
        assert tree_path.read_text(encoding="utf-8") == plkb.format_tree(
            plkb.build_id3(grown[0])) + "\n"
        assert model_body(kb_path) == plkb.serialize_kb(
            plkb.train_kb(grown[0], method)) + "\n"

    def test_max_arity_flag(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        out = run_json(
            runner,
            ["train", "--method", "direct", "--max-arity", "1",
             "--input", str(strings_csv), "--label-col", "label",
             "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert out["clauses"] == 8

    @pytest.mark.parametrize("method", ["tree", "tree-all"])
    def test_max_arity_refused_for_tree_methods(self, runner, strings_csv, tmp_path,
                                                 method):
        kb_path = tmp_path / "kb.plkb"
        result = runner.invoke(
            main,
            ["train", "--method", method, "--max-arity", "1",
             "--input", str(strings_csv), "--label-col", "label",
             "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == [
            "error: --max-arity only applies to the direct method"
        ]
        assert not kb_path.exists()

    def test_single_class_explanation_follows_the_classification(self, runner, tmp_path):
        # One class trains a single-leaf tree, "1 pos": every query
        # classifies positive, and its explanation must maximise.
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("a1,a2,label\n0,1,pos\n1,1,pos\n0,0,pos\n", encoding="utf-8")
        kb_path = tmp_path / "tree.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(csv_path),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert model_body(kb_path) == "1 pos\n"
        common = ["--kb", str(kb_path), "--domains", str(csv_path), "--query", "a1=0,a2=1"]
        cls = run_json(runner, ["classify", *common])
        assert (cls["label"], cls["p_avg"]) == (True, 1.0)
        expl = run_json(runner, ["explain", *common, "-k", "1"])
        assert (expl["direction"], expl["score"]) == ("max", 1.0)

    def test_dump_lp_flag(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        dump = tmp_path / "program.lp"
        run_json(
            runner,
            ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", "a4=1", "--dump-lp", str(dump)],
        )
        text = dump.read_text(encoding="utf-8")
        assert "Minimize" in text and "End" in text

    def test_dump_lp_selects_once(self, runner, strings_csv, tmp_path, monkeypatch):
        # the answer and the dumped program are read off one selection
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        args = ["classify", "--kb", str(kb_path), "--domains", str(strings_csv), "--query", "a4=1"]
        plain = runner.invoke(main, args)
        selections = []

        def counted(query, kb):
            selections.append(dict(query))
            return plkb.direct.active_kb(query, kb)

        monkeypatch.setattr(plkb.cli, "active_kb", counted)
        monkeypatch.setattr(plkb.evaluate, "active_kb", counted)
        dump = tmp_path / "program.lp"
        dumped = runner.invoke(main, [*args, "--dump-lp", str(dump)])
        assert dumped.exit_code == 0, dumped.stderr
        assert selections == [{"a4": "1"}]
        assert dumped.stdout == plain.stdout
        assert "Subject To" in dump.read_text(encoding="utf-8")

    def test_dump_lp_with_no_selected_rule(self, runner, strings_csv, tmp_path):
        # no tree rule's body lies inside a1=1: the query is classified and
        # there is no program to write
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        args = ["classify", "--kb", str(kb_path), "--domains", str(strings_csv), "--query", "a1=1"]
        dump = tmp_path / "program.lp"
        proc = run_plkb([*args, "--dump-lp", str(dump)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == run_json(runner, args)
        assert proc.stderr.splitlines() == [f"no program to write to {dump}: no clause is selected"]
        assert not dump.exists()

    def test_full_kb_flag_matches_extraction_on_full_queries(
        self, runner, strings_csv, tmp_path
    ):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "direct", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        query = "a1=0,a2=1,a3=0,a4=1"
        fast = run_json(
            runner,
            ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", query],
        )
        slow = run_json(
            runner,
            ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", query, "--full-kb"],
        )
        assert fast["label"] == slow["label"]
        assert fast["p_avg"] == pytest.approx(slow["p_avg"], abs=1e-6)


def run_python(args: list[str], timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this plkb, capturing its output."""
    src = str(Path(plkb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_plkb(args: list[str], timeout: float = 120) -> subprocess.CompletedProcess:
    """``python -m plkb`` in a new interpreter, with stdout and stderr apart."""
    return run_python(["-m", "plkb", *args], timeout)


def run_fresh(code: str) -> str:
    """Run Python code in a new interpreter that imports this plkb; its stdout."""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdStart:
    """The command line loads no click, numpy and scipy only when it solves
    an LP, and only the plkb modules a command uses."""

    def test_import_loads_no_numpy_or_scipy(self):
        out = run_fresh(
            "import sys, plkb.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'scipy', 'click')))"
        )
        assert out.strip() == "[]"

    def test_only_the_lp_loads_scipy(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "direct", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        # A full query decides every clause the presolve cannot reduce to
        # ``pos``, so even the whole KB answers in closed form; a partial
        # one leaves rules over free features, which the LP solves.
        full = "a1=0,a2=1,a3=0,a4=1"
        for query, extra, solved in ((full, [], False), (full, ["--full-kb"], False),
                                     ("a1=0", ["--full-kb"], True)):
            args = ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
                    "--query", query, *extra]
            out = run_fresh(
                "import sys\n"
                "from plkb.cli import main\n"
                f"main({args!r})\n"
                "print('scipy' in sys.modules)"
            )
            *payload, loaded = out.strip().splitlines()
            assert loaded == str(solved)
            assert json.loads("\n".join(payload)) == run_json(runner, args)

    @pytest.mark.parametrize("command, unused", [
        (["classify"], {"plkb.evaluate", "plkb.explain", "plkb.tree"}),
        (["explain", "-k", "2"], {"plkb.evaluate", "plkb.tree"}),
    ])
    def test_a_query_loads_only_the_modules_it_uses(self, runner, strings_csv, tmp_path,
                                                     command, unused):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "direct", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        args = [*command, "--kb", str(kb_path), "--domains", str(strings_csv),
                "--query", "a1=0,a2=1,a3=0,a4=1"]
        out = run_fresh(
            "import sys\n"
            "from plkb.cli import main\n"
            f"main({args!r})\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('plkb'))))"
        )
        *payload, loaded = out.strip().splitlines()
        assert json.loads("\n".join(payload)) == run_json(runner, args)
        assert "plkb.kb" in loaded.split() and not unused & set(loaded.split())

    def test_bench_lp_loads_highs_before_its_clock(self):
        # the first clock read sees HiGHS loaded: the import is not timed
        out = run_fresh(
            "import sys\n"
            "import plkb.evaluate\n"
            "clock, seen = plkb.evaluate.time.perf_counter, []\n"
            "def perf_counter():\n"
            "    seen.append('scipy.optimize._highspy._core' in sys.modules)\n"
            "    return clock()\n"
            "plkb.evaluate.time.perf_counter = perf_counter\n"
            "plkb.evaluate.bench_lp(20, 20, 0)\n"
            "print(seen[0])"
        )
        assert out.strip() == "True"


def test_every_exported_name_resolves():
    assert [name for name in plkb.__all__ if not hasattr(plkb, name)] == []
    assert set(plkb.__all__) <= set(dir(plkb))


def test_the_package_imports_a_module_on_first_use():
    out = run_fresh(
        "import sys, plkb\n"
        "print(sorted(m for m in sys.modules if m.startswith('plkb')))\n"
        "print(plkb.tree is sys.modules['plkb.tree'])\n"
        "print(plkb.infer_pos is sys.modules['plkb.lp'].infer_pos)\n"
        "print('plkb.evaluate' in sys.modules)"
    )
    assert out.splitlines() == ["['plkb']", "True", "True", "False"]


def test_an_exported_name_is_read_from_its_module_on_each_access(monkeypatch):
    # nothing is kept in the package, so a patch and its undo both show
    def marker(kb, query):
        raise AssertionError
    monkeypatch.setattr(plkb.evaluate, "classify_query", marker)
    assert plkb.classify_query is marker
    monkeypatch.undo()
    assert plkb.classify_query is plkb.evaluate.classify_query is not marker
    assert "classify_query" not in vars(plkb)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        plkb.nothing


class TestSynthAndEval:
    def test_synth_writes_dataset_and_sidecar(self, runner, tmp_path):
        out_dir = tmp_path / "syn"
        out = run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "40", "--rng-seed", "5", "--out", str(out_dir)],
        )
        assert (out_dir / "data.csv").exists()
        assert (out_dir / "seed.json").exists()
        assert len(out["seed"]) == 4

    def test_eval_reports_runs_and_mean(self, runner, tmp_path):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "60", "--rng-seed", "5", "--out", str(out_dir)],
        )
        rep = run_json(
            runner,
            ["eval", "--method", "direct", "--input", str(out_dir / "data.csv"),
             "--rng-seed", "1", "--runs", "2"],
        )
        assert len(rep["runs"]) == 2
        assert 0.0 <= rep["mean_f1"] <= 1.0
        for run in rep["runs"]:
            assert set(run["confusion"]) == {"tp", "fp", "fn", "tn"}

    def test_expl_eval(self, runner, tmp_path):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "60", "--rng-seed", "5", "--out", str(out_dir)],
        )
        rep = run_json(
            runner,
            ["expl-eval", "--method", "direct", "--input", str(out_dir),
             "-k", "1", "--rng-seed", "1"],
        )
        assert rep["k"] == 1
        assert rep["runs"][0]["n_explained"] >= 0

    def test_knowledge_exp(self, runner, tmp_path):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "60", "--rng-seed", "5", "--out", str(out_dir)],
        )
        rep = run_json(
            runner,
            ["knowledge-exp", "--method", "tree", "--input", str(out_dir),
             "--true", "5", "--random", "5", "--rng-seed", "1"],
        )
        assert rep["n_true"] == 5
        assert rep["n_random"] == 5

    @pytest.mark.parametrize("method", ["tree", "tree-all"])
    @pytest.mark.parametrize("command", ["eval", "expl-eval", "knowledge-exp"])
    def test_max_arity_refused_for_tree_methods(self, runner, tmp_path, command, method):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "40", "--rng-seed", "5", "--out", str(out_dir)],
        )
        args = {
            "eval": ["--input", str(out_dir / "data.csv")],
            "expl-eval": ["--input", str(out_dir), "-k", "1"],
            "knowledge-exp": ["--input", str(out_dir), "--true", "1"],
        }[command]
        result = runner.invoke(
            main, [command, "--method", method, "--max-arity", "1", "--runs", "1", *args]
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == [
            "error: --max-arity only applies to the direct method"
        ]
        assert result.stdout == ""

    @pytest.mark.parametrize("runs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["eval", "expl-eval", "knowledge-exp"])
    def test_runs_below_one_refused(self, runner, tmp_path, command, runs):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "40", "--rng-seed", "5", "--out", str(out_dir)],
        )
        args = {
            "eval": ["--input", str(out_dir / "data.csv")],
            "expl-eval": ["--input", str(out_dir), "-k", "1"],
            "knowledge-exp": ["--input", str(out_dir)],
        }[command]
        result = runner.invoke(main, [command, "--runs", runs, *args])
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == ["error: --runs must be at least 1"]
        assert result.stdout == ""

    @pytest.mark.parametrize("flag", ["--true", "--random"])
    def test_negative_knowledge_count_refused(self, runner, tmp_path, flag):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "40", "--rng-seed", "5", "--out", str(out_dir)],
        )
        result = runner.invoke(
            main, ["knowledge-exp", "--input", str(out_dir), "--runs", "1", flag, "-3"]
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == [f"error: {flag} must be at least 0"]
        assert result.stdout == ""

    def test_expl_eval_that_explains_nothing_prints_null(self, runner, tmp_path, monkeypatch):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "40", "--rng-seed", "5", "--out", str(out_dir)],
        )
        # no test instance classifies positive, so none is explained
        monkeypatch.setattr(plkb.evaluate, "classify_query", lambda kb, query: closed_form([]))
        result = runner.invoke(
            main, ["expl-eval", "--input", str(out_dir), "-k", "1", "--runs", "2"],
        )
        assert result.exit_code == 0, result.output

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        rep = json.loads(result.stdout, parse_constant=refuse)
        assert rep["mean_accuracy"] is None
        assert rep["runs"] == [{"mean_accuracy": None, "n_explained": 0}] * 2

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_max_instances_below_one_refused(self, runner, tmp_path, cap):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "40", "--rng-seed", "5", "--out", str(out_dir)],
        )
        result = runner.invoke(
            main, ["expl-eval", "--input", str(out_dir), "-k", "1", "--runs", "1",
                   "--max-instances", cap],
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == ["error: --max-instances must be at least 1"]
        assert result.stdout == ""

    def test_nan_is_refused_not_printed(self):
        with pytest.raises(ValueError):
            _emit({"x": float("nan")})

    def test_eval_with_knowledge_file(self, runner, tmp_path):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "60", "--rng-seed", "5", "--out", str(out_dir)],
        )
        knowledge = tmp_path / "extra.plkb"
        knowledge.write_text("0.900000 pos | !a1=1\n", encoding="utf-8")
        rep = run_json(
            runner,
            ["eval", "--method", "tree", "--input", str(out_dir / "data.csv"),
             "--knowledge", str(knowledge), "--rng-seed", "1", "--runs", "1"],
        )
        assert 0.0 <= rep["mean_f1"] <= 1.0


class TestBenchCli:
    def test_bench_with_csv(self, runner, tmp_path):
        csv_path = tmp_path / "bench.csv"
        rep = run_json(
            runner,
            ["bench-lp", "--vars", "10", "--clauses", "10",
             "--rng-seed", "0", "--csv", str(csv_path)],
        )
        assert rep["seconds"] > 0
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "n_vars,n_clauses,seconds,objective"
        assert len(lines) == 2

    def test_csv_rows_end_in_newline(self, runner, tmp_path):
        csv_path = tmp_path / "bench.csv"
        for seed in ("0", "1"):
            run_json(runner, ["bench-lp", "--vars", "10", "--clauses", "10",
                              "--rng-seed", seed, "--csv", str(csv_path)])
        data = csv_path.read_bytes()
        assert b"\r" not in data
        assert data.startswith(b"n_vars,n_clauses,seconds,objective\n")
        assert data.endswith(b"\n") and data.count(b"\n") == 3

    def test_more_clauses_than_the_atoms_allow_refused(self):
        # One atom has two distinct clauses; a third could never be drawn.
        # The timeout fails a regression instead of hanging on it.
        proc = run_plkb(["bench-lp", "--vars", "1", "--clauses", "3"], timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: 1 variables allow 2 distinct clauses, not 3"
        ]


class TestInject:
    def test_merges_and_overrides(self, runner, tmp_path):
        base = tmp_path / "base.plkb"
        base.write_text("0.500000 pos | !a3=0\n0.200000 pos | !a4=1\n", encoding="utf-8")
        extra = tmp_path / "extra.plkb"
        extra.write_text("0.900000 pos | !a3=0\n0.900000 pos | !a4=0\n", encoding="utf-8")
        out_path = tmp_path / "merged.plkb"
        rep = run_json(
            runner,
            ["inject", "--kb", str(base), "--knowledge", str(extra),
             "--out", str(out_path)],
        )
        assert rep["clauses"] == 3
        merged = parse_kb(out_path.read_text(encoding="utf-8"))
        probs = {wc.clause: wc.probability for wc in merged.clauses}
        assert float(probs[rule_clause([("a3", "0")])]) == 0.9
        assert float(probs[rule_clause([("a4", "1")])]) == 0.2

    def test_knowledge_file_with_a_byte_order_mark(self, runner, tmp_path):
        base = tmp_path / "base.plkb"
        base.write_text("0.500000 pos | !a3=0\n", encoding="utf-8")
        extra = tmp_path / "extra.plkb"
        extra.write_text("\ufeff0.900000 pos | !a3=0\n", encoding="utf-8")
        out_path = tmp_path / "merged.plkb"
        run_json(
            runner,
            ["inject", "--kb", str(base), "--knowledge", str(extra), "--out", str(out_path)],
        )
        assert model_body(out_path) == "9/10 pos | !a3=0\n"


class TestErrorHandling:
    def test_bad_query_exits_nonzero_with_one_line(self, runner, strings_csv, tmp_path):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        result = runner.invoke(
            main,
            ["classify", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", "a1"],
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert "error:" in err
        assert len([l for l in err.strip().splitlines() if l]) == 1

    def test_repeated_column_exits_with_one_line(self, runner, tmp_path):
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("a,a,label\n0,1,pos\n1,0,neg\n", encoding="utf-8")
        out_path = tmp_path / "kb.plkb"
        result = runner.invoke(
            main,
            ["train", "--input", str(csv_path), "--label-col", "label",
             "--pos-label", "pos", "--out", str(out_path)],
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == ["error: feature 'a' repeated"]
        assert not out_path.exists()

    def test_missing_input_file(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--method", "tree", "--input", str(tmp_path / "nope.csv"),
             "--label-col", "label", "--pos-label", "pos",
             "--out", str(tmp_path / "kb.plkb")],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", [["classify"], ["explain", "-k", "1"]],
                             ids=["classify", "explain"])
    def test_empty_domains_file(self, runner, tmp_path, command):
        kb_path = tmp_path / "kb.plkb"
        kb_path.write_text("0.700000 pos | !a1=0\n", encoding="utf-8")
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(
            main,
            [*command, "--kb", str(kb_path), "--domains", str(empty), "--query", "a1=0"],
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == [f"error: {empty}: empty file"]

    @pytest.mark.parametrize(
        "command",
        [["classify", "--query", "a1=0,a2=1,zz=3"],
         ["classify", "--full-kb", "--query", "a1=0,a2=1,zz=3"],
         ["explain", "-k", "1", "--query", "a1=0,zz=3"]],
        ids=["classify", "classify-full-kb", "explain"],
    )
    def test_query_feature_missing_from_domains(self, runner, strings_csv, tmp_path,
                                                command):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        result = runner.invoke(
            main, [*command, "--kb", str(kb_path), "--domains", str(strings_csv)]
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == [
            "error: query feature 'zz' not in domains"
        ]

    @pytest.mark.parametrize("flags", [[], ["--full-kb"]], ids=["closed-form", "lp"])
    def test_query_may_name_a_feature_the_kb_never_mentions(self, runner, tmp_path,
                                                             flags):
        # a2 is noise: the tree never splits on it, so the KB lacks it.
        data = tmp_path / "data.csv"
        data.write_text("a1,a2,label\n0,0,neg\n0,1,neg\n1,0,pos\n1,1,pos\n",
                        encoding="utf-8")
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(data),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        assert "a2" not in model_body(kb_path)
        rep = run_json(
            runner,
            ["classify", *flags, "--kb", str(kb_path), "--domains", str(data),
             "--query", "a1=1,a2=0"],
        )
        assert rep["label"] is True

    def test_solver_failure_exits_with_one_line(self, runner, strings_csv, tmp_path,
                                                monkeypatch):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "direct", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        message = stop_highs_at_time_limit(monkeypatch)
        result = runner.invoke(
            main,
            ["classify", "--full-kb", "--kb", str(kb_path), "--domains", str(strings_csv),
             "--query", "a1=1"],
        )
        assert result.exit_code == 1
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert [l for l in err.splitlines() if l] == [f"error: internal error: {message}"]

    @pytest.mark.parametrize(
        "command",
        [["classify"], ["classify", "--full-kb"], ["explain", "-k", "2"],
         ["explain", "--full-kb", "-k", "2"]],
        ids=["classify", "classify-full-kb", "explain", "explain-full-kb"],
    )
    def test_out_of_domain_value_warns_once(self, runner, strings_csv, tmp_path, command):
        kb_path = tmp_path / "kb.plkb"
        run_json(
            runner,
            ["train", "--method", "tree", "--input", str(strings_csv),
             "--label-col", "label", "--pos-label", "pos", "--out", str(kb_path)],
        )
        proc = run_plkb([*command, "--kb", str(kb_path), "--domains", str(strings_csv),
                         "--query", "a1=0,a2=1,a3=0,a4=7"])
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == ["query value a4=7 outside the feature's domain"]
        json.loads(proc.stdout)

    @pytest.mark.parametrize("command", [["expl-eval", "-k", "1"], ["knowledge-exp"]],
                             ids=["expl-eval", "knowledge-exp"])
    def test_malformed_seed_file_exits_with_one_line(self, runner, tmp_path, command):
        out_dir = tmp_path / "syn"
        run_json(
            runner,
            ["synth", "--length", "4", "--alphabet", "2", "--match", "2",
             "--n", "20", "--rng-seed", "5", "--out", str(out_dir)],
        )
        seed_path = out_dir / "seed.json"
        spec = json.loads(seed_path.read_text(encoding="utf-8"))
        seed_path.write_text(json.dumps({**spec, "length": "4"}), encoding="utf-8")
        proc = run_plkb([*command, "--input", str(out_dir), "--runs", "1"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {seed_path}: field 'length' must be an integer"
        ]

    @pytest.mark.parametrize(
        "args",
        [["classify", "--full", "--kb", "{kb}", "--domains", "{csv}", "--query", "a1=0",
          "--dump-lp", "{out}"],
         ["classify", "--kb", "{kb}"],
         ["train", "--method", "forest", "--input", "{csv}", "--label-col", "label",
          "--pos-label", "pos", "--out", "{out}"],
         []],
        ids=["abbreviated-option", "missing-options", "bad-choice", "no-command"],
    )
    def test_usage_error_exits_2_and_runs_nothing(self, strings_csv, tmp_path, args):
        kb_path = tmp_path / "kb.plkb"
        kb_path.write_text("0.700000 pos | !a1=0\n", encoding="utf-8")
        out = tmp_path / "out"
        proc = run_plkb([a.format(kb=kb_path, csv=strings_csv, out=out) for a in args])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_option_value_that_starts_with_a_dash(self, strings_csv):
        # argparse reads "-x" after an option as another option, a usage
        # error; written "--pos-label=-x" it is the value, which the
        # program itself then refuses
        args = ["eval", "--input", str(strings_csv), "--runs", "1"]
        proc = run_plkb([*args, "--pos-label=-x"])
        assert proc.returncode == 1, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        proc = run_plkb([*args, "--pos-label", "-x"])
        assert proc.returncode == 2
        assert "argument --pos-label: expected one argument" in proc.stderr
        assert proc.stdout == ""

    def test_malformed_kb_file(self, runner, strings_csv, tmp_path):
        bad = tmp_path / "bad.plkb"
        bad.write_text("zzz\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["classify", "--kb", str(bad), "--domains", str(strings_csv),
             "--query", "a1=0"],
        )
        assert result.exit_code == 1


LATIN1_CSV = "a1,a2,a3,a4,label\n\xe9,0,0,0,pos\n0,1,0,0,neg\n".encode("latin-1")
LATIN1_KB = "0.500000 pos | !a1=\xe9\n".encode("latin-1")
WIDE_CELL = "1" * 140_000  # over the csv module's 131,072-character field limit
TRAIN = ["--label-col", "label", "--pos-label", "pos", "--out", "{out}"]
CLASSIFY = ["classify", "--kb", "{model}", "--query", "a1=0,a2=7", "--domains"]

# case -> (the kind of faulty file, the command line; "{bad}" is that file)
INPUT_FAULTS = {
    "train-latin1": ("latin1", ["train", "--input", "{bad}", *TRAIN]),
    "domains-latin1": ("latin1", [*CLASSIFY, "{bad}"]),
    "kb-latin1": ("latin1-kb", ["classify", "--kb", "{bad}", "--domains", "{csv}",
                                "--query", "a1=0"]),
    "inject-knowledge-latin1": ("latin1-kb", ["inject", "--kb", "{model}",
                                              "--knowledge", "{bad}", "--out", "{out}"]),
    "eval-knowledge-latin1": ("latin1-kb", ["eval", "--input", "{csv}", "--knowledge",
                                            "{bad}", "--runs", "1"]),
    "seed-latin1": ("latin1-seed", ["expl-eval", "--input", "{syn}", "-k", "1", "--runs", "1"]),
    "seed-not-json": ("truncated-seed", ["knowledge-exp", "--input", "{syn}", "--runs", "1"]),
    "train-wide-cell": ("wide", ["train", "--input", "{bad}", *TRAIN]),
    "domains-wide-cell": ("wide", [*CLASSIFY, "{bad}"]),
    "domains-column-twice": ("twice", [*CLASSIFY, "{bad}"]),
    "domains-lack-a-column": ("lacking", [*CLASSIFY, "{bad}"]),
    "domains-ragged": ("ragged", [*CLASSIFY, "{bad}"]),
    "kb-unparsable": ("zzz-kb", ["classify", "--kb", "{bad}", "--domains", "{csv}",
                                 "--query", "a1=0"]),
    "inject-kb-unparsable": ("zzz-kb", ["inject", "--kb", "{bad}", "--knowledge", "{model}",
                                        "--out", "{out}"]),
    "inject-knowledge-unparsable": ("zzz-kb", ["inject", "--kb", "{model}",
                                               "--knowledge", "{bad}", "--out", "{out}"]),
    "eval-knowledge-unparsable": ("zzz-kb", ["eval", "--input", "{csv}", "--knowledge",
                                             "{bad}", "--runs", "1"]),
}


class TestInputFaults:
    """A file that cannot be read is refused with exit 1 and one ``error:``
    line that names it, in process and from ``python -m plkb``."""

    def _case(self, case, strings_csv, tmp_path):
        content, template = INPUT_FAULTS[case]
        strings = strings_csv.read_text(encoding="utf-8")
        contents = {
            "latin1": LATIN1_CSV,
            "latin1-kb": LATIN1_KB,
            "latin1-seed": b'{"seed": "\xe9"}',
            "truncated-seed": b'{"seed": "1212", "length": 4',
            "wide": (strings + f"{WIDE_CELL},0,1,0,pos\n").encode(),
            "twice": strings.replace("a1,a2,a3,a4,", "a1,a2,a2,a4,", 1).encode(),
            "lacking": strings.replace("a1,", "b1,", 1).encode(),
            "ragged": (strings.partition("\n")[0] + "\n0\n").encode(),
            "zzz-kb": b"zzz\n",
        }
        syn = tmp_path / "syn"
        syn.mkdir()
        (syn / "data.csv").write_text(strings, encoding="utf-8")
        bad = syn / "seed.json" if content.endswith("-seed") else tmp_path / f"{content}.in"
        bad.write_bytes(contents[content])
        model = tmp_path / "model.plkb"
        model.write_text("0.700000 pos | !a1=0\n", encoding="utf-8")
        paths = {"bad": bad, "csv": strings_csv, "model": model, "syn": syn,
                 "out": tmp_path / "out.plkb"}
        return [arg.format(**paths) for arg in template], bad

    @pytest.mark.parametrize("case", sorted(INPUT_FAULTS))
    @pytest.mark.parametrize("via", ["runner", "python-m"])
    def test_refused_in_one_line_naming_the_file(self, runner, strings_csv, tmp_path,
                                                  via, case):
        args, bad = self._case(case, strings_csv, tmp_path)
        if via == "runner":
            result = runner.invoke(main, args, catch_exceptions=False)
            code, stdout, stderr = result.exit_code, result.stdout, result.stderr
        else:
            proc = run_plkb(args)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        lines = stderr.splitlines()
        assert code == 1, stderr
        assert stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(bad) in lines[0], lines
        assert not (tmp_path / "out.plkb").exists()
