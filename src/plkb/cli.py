"""Command-line surface.

Every subcommand prints machine-readable JSON to stdout on success (CSV
where noted via --csv/--out) and exits non-zero with a one-line
diagnostic on stderr otherwise.
"""

from __future__ import annotations

import csv as csv_mod
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from .data import (
    generate_synthetic,
    load_csv,
    load_synthetic,
    random_seed_spec,
    read_csv,
    read_text,
    save_synthetic,
)
from .evaluate import (
    METHODS,
    ExperimentConfig,
    bench_lp,
    classify_query,
    run_eval,
    run_explanation_eval,
    run_knowledge_experiment,
    train_kb,
)
from .explain import compute_explanation, feature_position, masked_string
from .direct import active_kb
from .kb import KBParseError, feature_names, merge, parse_kb, read_model, write_model
from .lp import apply_query, build_lp, dump_lp, infer_pos
from .tree import build_id3, format_tree


def parse_query(text: str) -> dict[str, str]:
    query: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not name or not value:
            raise ValueError(f"bad query fragment {part!r}; expected feature=value")
        if name in query:
            raise ValueError(f"feature {name!r} assigned twice in query")
        query[name] = value
    return query


def _read_model(path: str, query: dict[str, str] | None = None):
    """The model at ``path`` and its feature names.  Given a query, a model
    file that allows it is read query-scoped (:func:`plkb.kb.read_model`);
    otherwise the whole file is parsed."""
    raw = Path(path).read_bytes()
    try:
        model = None if query is None else read_model(raw, query)
        if model is None:
            kb = parse_kb(read_text(path, raw))
            model = kb, feature_names(kb)
    except KBParseError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def _domains(path: str, features: list[str]) -> dict[str, frozenset[str]]:
    """Domains of every column of a reference CSV, which must hold the
    model's ``features`` once each; a query may name a feature the model
    never mentions."""
    header, rows = read_csv(path)
    for i, f in enumerate(header):
        if f in header[:i]:
            raise ValueError(f"{path}: column {f!r} repeated")
    missing = [f for f in features if f not in header]
    if missing:
        raise ValueError(f"{path}: domains file lacks columns {missing}")
    domains: dict[str, set[str]] = {f: set() for f in header}
    for row in rows:
        for f, value in zip(header, row):
            if value != "":
                domains[f].add(value)
    return {f: frozenset(vs) for f, vs in domains.items()}


def check_query(query: dict[str, str], domains: dict[str, frozenset[str]]) -> None:
    """Refuse a query feature the domains lack, and warn on stderr once per
    value outside its feature's domain: the value is still asserted."""
    for feature, value in sorted(query.items()):
        if feature not in domains:
            raise ValueError(f"query feature {feature!r} not in domains")
        if value not in domains[feature]:
            click.echo(f"query value {feature}={value} outside the feature's domain", err=True)


def _load_query(kb_path: str, domains_path: str, query_text: str, full_kb: bool):
    """The model and a query checked against the domains file's columns.
    The query is parsed first, so that without ``full_kb`` the model is
    read query-scoped where its file allows."""
    query = parse_query(query_text)
    kb, features = _read_model(kb_path, None if full_kb else query)
    check_query(query, _domains(domains_path, features))
    return kb, query


def _emit(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def fail_cleanly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError, RuntimeError, KeyError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Explainable binary classification with probabilistic knowledge bases."""


method_option = click.option(
    "--method", type=click.Choice(METHODS), default="direct",
    show_default=True,
)


@main.command()
@method_option
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--label-col", required=True)
@click.option("--pos-label", required=True)
@click.option("--max-arity", type=int, default=None,
              help="Longest rule body to count (direct method only).")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dump-tree", "tree_path", type=click.Path(), default=None,
              help="Write the learned tree as indented text (tree methods only).")
@fail_cleanly
def train(method, input_path, label_col, pos_label, max_arity, out_path, tree_path):
    """Learn a knowledge base from a CSV and write it out."""
    ds = load_csv(input_path, label_col, pos_label)
    if tree_path and not method.startswith("tree"):
        raise ValueError("--dump-tree only applies to the tree methods")
    tree = build_id3(ds) if tree_path else None
    kb = train_kb(ds, method, max_arity, tree=tree)
    if tree_path:
        Path(tree_path).write_text(format_tree(tree) + "\n", encoding="utf-8")
    write_model(kb, out_path)
    _emit({"clauses": len(kb), "atoms": len(kb.universe), "out": str(out_path)})


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--domains", "domains_path", required=True, type=click.Path())
@click.option("--query", "query_text", required=True)
@click.option("--full-kb", is_flag=True,
              help="Skip query-active clause extraction: the whole KB goes to "
                   "inference, whose presolve still drops every clause the query "
                   "decides.")
@click.option("--dump-lp", "dump_path", type=click.Path(), default=None,
              help="Write the constrained program in LP text format.")
@fail_cleanly
def classify(kb_path, domains_path, query_text, full_kb, dump_path):
    """Classify a (possibly partial) query against a knowledge base."""
    kb, query = _load_query(kb_path, domains_path, query_text, full_kb)
    res = infer_pos(kb, query) if full_kb else classify_query(kb, query)
    if dump_path:
        sub = kb if full_kb else active_kb(query, kb)
        if len(sub):
            Path(dump_path).write_text(
                dump_lp(apply_query(build_lp(sub), query)) + "\n", encoding="utf-8"
            )
        else:
            click.echo(f"no program to write to {dump_path}: no clause is selected", err=True)
    _emit(asdict(res))


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--domains", "domains_path", required=True, type=click.Path())
@click.option("--query", "query_text", required=True)
@click.option("-k", "k", required=True, type=int)
@click.option("--full-kb", is_flag=True,
              help="Score sub-queries on the whole KB instead of their relevant sub-KBs.")
@fail_cleanly
def explain(kb_path, domains_path, query_text, k, full_kb):
    """Report the k most decisive feature values of a query."""
    kb, query = _load_query(kb_path, domains_path, query_text, full_kb)
    expl = compute_explanation(query, kb, k, use_relevant=not full_kb)
    payload = {
        "explanation": dict(sorted(expl.sub_query.items())),
        "score": expl.score,
        "direction": expl.direction,
    }
    try:
        positions = sorted(feature_position(f, len(query)) for f in query)
    except ValueError:
        positions = []
    if positions == list(range(1, len(query) + 1)):
        payload["masked"] = masked_string(expl, len(query))
    _emit(payload)


@main.command()
@click.option("--length", required=True, type=int)
@click.option("--alphabet", required=True, type=int)
@click.option("--match", "match_count", required=True, type=int)
@click.option("--n", "n_samples", required=True, type=int)
@click.option("--rng-seed", default=0, type=int, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@fail_cleanly
def synth(length, alphabet, match_count, n_samples, rng_seed, out_dir):
    """Generate a balanced seed-string dataset plus its ground-truth sidecar."""
    spec = random_seed_spec(length, alphabet, match_count, rng_seed)
    ds = generate_synthetic(spec, n_samples, rng_seed + 1)
    save_synthetic(ds, spec, out_dir)
    _emit(
        {
            "seed": spec.seed,
            "match_count": spec.match_count,
            "n_samples": len(ds),
            "out": str(out_dir),
        }
    )


def _mean(xs):
    return sum(xs) / len(xs)


def _f1_payload(method: str, reports, **fields) -> dict:
    """Each run's F1 report and their mean, for ``eval`` and ``knowledge-exp``."""
    return {"method": method, **fields, "runs": [r.as_dict() for r in reports],
            "mean_f1": _mean([r.f1 for r in reports])}


def _run_configs(runs: int, rng_seed: int, **fixed) -> list[ExperimentConfig]:
    """One configuration per run, seeded ``rng_seed``, ``rng_seed + 1``, ..."""
    if runs < 1:
        raise ValueError("--runs must be at least 1")
    return [ExperimentConfig(rng_seed=rng_seed + r, **fixed) for r in range(runs)]


@main.command(name="eval")
@method_option
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--label-col", default="label", show_default=True)
@click.option("--pos-label", default="pos", show_default=True)
@click.option("--max-arity", type=int, default=None)
@click.option("--knowledge", "knowledge_path", type=click.Path(), default=None)
@click.option("--train-fraction", default=0.7, show_default=True)
@click.option("--rng-seed", default=0, type=int, show_default=True)
@click.option("--runs", default=5, type=int, show_default=True)
@fail_cleanly
def eval_cmd(method, input_path, label_col, pos_label, max_arity, knowledge_path,
             train_fraction, rng_seed, runs):
    """Train/test evaluation with per-run F1 and the mean over seeds."""
    ds = load_csv(input_path, label_col, pos_label)
    knowledge = _read_model(knowledge_path)[0] if knowledge_path else None
    configs = _run_configs(runs, rng_seed, dataset=ds, method=method, knowledge=knowledge,
                           train_fraction=train_fraction, max_arity=max_arity)
    _emit(_f1_payload(method, [run_eval(config) for config in configs]))


@main.command(name="expl-eval")
@method_option
@click.option("--input", "input_dir", required=True, type=click.Path(),
              help="Directory produced by `synth` (data.csv + seed.json).")
@click.option("-k", "k", required=True, type=int)
@click.option("--max-arity", type=int, default=None)
@click.option("--train-fraction", default=0.7, show_default=True)
@click.option("--rng-seed", default=0, type=int, show_default=True)
@click.option("--runs", default=5, type=int, show_default=True)
@click.option("--max-instances", default=None, type=int)
@fail_cleanly
def expl_eval(method, input_dir, k, max_arity, train_fraction, rng_seed, runs,
              max_instances):
    """Mean ground-truth accuracy of k-explanations on synthetic data."""
    ds, spec = load_synthetic(input_dir)
    configs = _run_configs(runs, rng_seed, dataset=ds, method=method,
                           train_fraction=train_fraction, max_arity=max_arity)
    per_run = [run_explanation_eval(config, spec, k, max_instances) for config in configs]
    # A run that explained nothing has no accuracy and stays out of the mean.
    explained = [r.mean_accuracy for r in per_run if r.mean_accuracy is not None]
    _emit(
        {
            "k": k,
            "method": method,
            "runs": [
                {"mean_accuracy": r.mean_accuracy, "n_explained": r.n_explained}
                for r in per_run
            ],
            "mean_accuracy": _mean(explained) if explained else None,
        }
    )


@main.command(name="bench-lp")
@click.option("--vars", "n_vars", required=True, type=int)
@click.option("--clauses", "n_clauses", required=True, type=int)
@click.option("--rng-seed", default=0, type=int, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Append a result row: n_vars,n_clauses,seconds,objective.")
@fail_cleanly
def bench_lp_cmd(n_vars, n_clauses, rng_seed, csv_path):
    """Time the stage-1 solve on a random knowledge base."""
    row = asdict(bench_lp(n_vars, n_clauses, rng_seed))
    if csv_path:
        path = Path(csv_path)
        new = not path.exists()
        with open(path, "a", newline="", encoding="utf-8") as fh:
            writer = csv_mod.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(row.keys())
            writer.writerow(row.values())
    _emit(row)


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--knowledge", "knowledge_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@fail_cleanly
def inject(kb_path, knowledge_path, out_path):
    """Merge hand-written clauses into a learned knowledge base."""
    kb = _read_model(kb_path)[0]
    extra = _read_model(knowledge_path)[0]
    merged = merge(kb, list(extra.clauses))
    write_model(merged, out_path)
    _emit({"clauses": len(merged), "out": str(out_path)})


@main.command(name="knowledge-exp")
@method_option
@click.option("--input", "input_dir", required=True, type=click.Path(),
              help="Directory produced by `synth` (data.csv + seed.json).")
@click.option("--true", "n_true", default=0, type=int, show_default=True)
@click.option("--random", "n_random", default=0, type=int, show_default=True)
@click.option("--max-arity", type=int, default=None)
@click.option("--train-fraction", default=0.7, show_default=True)
@click.option("--rng-seed", default=0, type=int, show_default=True)
@click.option("--runs", default=5, type=int, show_default=True)
@fail_cleanly
def knowledge_exp(method, input_dir, n_true, n_random, max_arity, train_fraction,
                  rng_seed, runs):
    """Evaluate with ground-truth / pollution clauses injected."""
    ds, spec = load_synthetic(input_dir)
    configs = _run_configs(runs, rng_seed, dataset=ds, method=method,
                           train_fraction=train_fraction, max_arity=max_arity)
    reports = [run_knowledge_experiment(c, spec, n_true, n_random, c.rng_seed) for c in configs]
    _emit(_f1_payload(method, reports, n_true=n_true, n_random=n_random))


if __name__ == "__main__":
    main()
