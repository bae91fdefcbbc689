"""Command-line surface.

Every subcommand prints machine-readable JSON to stdout on success (CSV
where noted via --csv/--out) and exits non-zero with a one-line
diagnostic on stderr otherwise.  ``plkb.evaluate``, ``plkb.explain`` and
``plkb.tree`` are imported by the commands that use them, so ``classify``
loads none of them.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .data import (
    generate_synthetic,
    load_csv,
    load_synthetic,
    random_seed_spec,
    read_csv,
    read_text,
    save_synthetic,
)
from .direct import active_kb
from .kb import METHODS, KBParseError, feature_names, merge, parse_kb, read_model, write_model
from .lp import apply_query, build_lp, dump_lp, infer_pos

if TYPE_CHECKING:
    from .evaluate import ExperimentConfig


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
    columns = list(zip(*rows)) or [()] * len(header)
    return {f: frozenset(column) - {""} for f, column in zip(header, columns)}


def check_query(query: dict[str, str], domains: dict[str, frozenset[str]]) -> None:
    """Refuse a query feature the domains lack, and warn on stderr once per
    value outside its feature's domain: the value is still asserted."""
    for feature, value in sorted(query.items()):
        if feature not in domains:
            raise ValueError(f"query feature {feature!r} not in domains")
        if value not in domains[feature]:
            print(f"query value {feature}={value} outside the feature's domain", file=sys.stderr)


def _load_query(kb_path: str, domains_path: str, query_text: str, full_kb: bool):
    """The model and a query checked against the domains file's columns.
    The query is parsed first, so that without ``full_kb`` the model is
    read query-scoped where its file allows."""
    query = parse_query(query_text)
    kb, features = _read_model(kb_path, None if full_kb else query)
    check_query(query, _domains(domains_path, features))
    return kb, query


def _emit(payload) -> None:
    """Print ``payload`` as JSON.  The flush makes a failed write raise here,
    inside ``main``'s error boundary, not at interpreter exit."""
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), flush=True)


def train(args) -> None:
    """Learn a knowledge base from a CSV and write it out."""
    from .evaluate import train_kb
    from .tree import build_id3, format_tree

    ds = load_csv(args.input, args.label_col, args.pos_label)
    if args.dump_tree and not args.method.startswith("tree"):
        raise ValueError("--dump-tree only applies to the tree methods")
    tree = build_id3(ds) if args.dump_tree else None
    kb = train_kb(ds, args.method, args.max_arity, tree=tree)
    if args.dump_tree:
        Path(args.dump_tree).write_text(format_tree(tree) + "\n", encoding="utf-8")
    write_model(kb, args.out)
    _emit({"clauses": len(kb), "atoms": len(kb.universe), "out": args.out})


def classify(args) -> None:
    """Classify a (possibly partial) query against a knowledge base."""
    kb, query = _load_query(args.kb, args.domains, args.query, args.full_kb)
    sub = kb if args.full_kb else active_kb(query, kb)
    res = infer_pos(sub, query)
    if args.dump_lp:
        if len(sub):
            Path(args.dump_lp).write_text(
                dump_lp(apply_query(build_lp(sub), query)) + "\n", encoding="utf-8"
            )
        else:
            print(f"no program to write to {args.dump_lp}: no clause is selected",
                  file=sys.stderr)
    _emit(asdict(res))


def explain(args) -> None:
    """Report the k most decisive feature values of a query."""
    from .explain import compute_explanation, feature_position, masked_string

    kb, query = _load_query(args.kb, args.domains, args.query, args.full_kb)
    expl = compute_explanation(query, kb, args.k, use_relevant=not args.full_kb)
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


def synth(args) -> None:
    """Generate a balanced seed-string dataset plus its ground-truth sidecar."""
    spec = random_seed_spec(args.length, args.alphabet, args.match, args.rng_seed)
    ds = generate_synthetic(spec, args.n, args.rng_seed + 1)
    save_synthetic(ds, spec, args.out)
    _emit(
        {
            "seed": spec.seed,
            "match_count": spec.match_count,
            "n_samples": len(ds),
            "out": args.out,
        }
    )


def _mean(xs):
    return sum(xs) / len(xs)


def _f1_payload(method: str, reports, **fields) -> dict:
    """Each run's F1 report and their mean, for ``eval`` and ``knowledge-exp``."""
    return {"method": method, **fields, "runs": [r.as_dict() for r in reports],
            "mean_f1": _mean([r.f1 for r in reports])}


def _run_configs(args, **fixed) -> list[ExperimentConfig]:
    """One configuration per run of an experiment command, seeded
    ``--rng-seed``, ``--rng-seed`` + 1, ..."""
    from .evaluate import ExperimentConfig

    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    return [ExperimentConfig(rng_seed=args.rng_seed + r, method=args.method,
                             train_fraction=args.train_fraction, max_arity=args.max_arity,
                             **fixed)
            for r in range(args.runs)]


def eval_cmd(args) -> None:
    """Train/test evaluation with per-run F1 and the mean over seeds."""
    from .evaluate import run_eval

    ds = load_csv(args.input, args.label_col, args.pos_label)
    knowledge = _read_model(args.knowledge)[0] if args.knowledge else None
    configs = _run_configs(args, dataset=ds, knowledge=knowledge)
    _emit(_f1_payload(args.method, [run_eval(config) for config in configs]))


def expl_eval(args) -> None:
    """Mean ground-truth accuracy of k-explanations on synthetic data."""
    from .evaluate import run_explanation_eval

    ds, spec = load_synthetic(args.input)
    per_run = [run_explanation_eval(config, spec, args.k, args.max_instances)
               for config in _run_configs(args, dataset=ds)]
    # A run that explained nothing has no accuracy and stays out of the mean.
    explained = [r.mean_accuracy for r in per_run if r.mean_accuracy is not None]
    _emit(
        {
            "k": args.k,
            "method": args.method,
            "runs": [
                {"mean_accuracy": r.mean_accuracy, "n_explained": r.n_explained}
                for r in per_run
            ],
            "mean_accuracy": _mean(explained) if explained else None,
        }
    )


def bench_lp_cmd(args) -> None:
    """Time the stage-1 solve on a random knowledge base."""
    from .evaluate import bench_lp

    row = asdict(bench_lp(args.vars, args.clauses, args.rng_seed))
    if args.csv:
        path = Path(args.csv)
        new = not path.exists()
        with open(path, "a", newline="", encoding="utf-8") as fh:
            writer = csv_mod.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(row.keys())
            writer.writerow(row.values())
    _emit(row)


def inject(args) -> None:
    """Merge hand-written clauses into a learned knowledge base."""
    kb = _read_model(args.kb)[0]
    extra = _read_model(args.knowledge)[0]
    merged = merge(kb, list(extra.clauses))
    write_model(merged, args.out)
    _emit({"clauses": len(merged), "out": args.out})


def knowledge_exp(args) -> None:
    """Evaluate with ground-truth / pollution clauses injected."""
    from .evaluate import run_knowledge_experiment

    ds, spec = load_synthetic(args.input)
    reports = [run_knowledge_experiment(c, spec, args.true, args.random, c.rng_seed)
               for c in _run_configs(args, dataset=ds)]
    _emit(_f1_payload(args.method, reports, n_true=args.true, n_random=args.random))


SHOW_DEFAULT = "[default: %(default)s]"
SYNTH_DIR = "Directory produced by `synth` (data.csv + seed.json)."


def _parser() -> argparse.ArgumentParser:
    # Option groups that commands share through ``parents``.
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", choices=METHODS, default="direct", help=SHOW_DEFAULT)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--rng-seed", type=int, default=0, help=SHOW_DEFAULT)
    experiment = argparse.ArgumentParser(add_help=False, parents=[method, seed])
    experiment.add_argument("--max-arity", type=int)
    experiment.add_argument("--train-fraction", type=float, default=0.7, help=SHOW_DEFAULT)
    experiment.add_argument("--runs", type=int, default=5, help=SHOW_DEFAULT)
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--kb", required=True)
    query.add_argument("--domains", required=True)
    query.add_argument("--query", required=True)

    # No "-h" and no abbreviated option names: the command line takes only
    # the options it lists.
    parser = argparse.ArgumentParser(prog="plkb", description=main.__doc__,
                                     add_help=False, allow_abbrev=False)
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(fn, *parents, name=None) -> argparse.ArgumentParser:
        sub = commands.add_parser(name or fn.__name__, parents=parents, help=fn.__doc__,
                                  description=fn.__doc__, add_help=False,
                                  allow_abbrev=False)
        sub.set_defaults(func=fn)
        return sub

    sub = command(train, method)
    sub.add_argument("--input", required=True)
    sub.add_argument("--label-col", required=True)
    sub.add_argument("--pos-label", required=True)
    sub.add_argument("--max-arity", type=int,
                     help="Longest rule body to count (direct method only).")
    sub.add_argument("--out", required=True)
    sub.add_argument("--dump-tree",
                     help="Write the learned tree as indented text (tree methods only).")

    sub = command(classify, query)
    sub.add_argument("--full-kb", action="store_true",
                     help="Skip query-active clause extraction: the whole KB goes to "
                          "inference, whose presolve still drops every clause the query "
                          "decides.")
    sub.add_argument("--dump-lp", help="Write the constrained program in LP text format.")

    sub = command(explain, query)
    sub.add_argument("-k", type=int, required=True)
    sub.add_argument("--full-kb", action="store_true",
                     help="Score sub-queries on the whole KB instead of their relevant sub-KBs.")

    sub = command(synth, seed)
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--alphabet", type=int, required=True)
    sub.add_argument("--match", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out", required=True)

    sub = command(eval_cmd, experiment, name="eval")
    sub.add_argument("--input", required=True)
    sub.add_argument("--label-col", default="label", help=SHOW_DEFAULT)
    sub.add_argument("--pos-label", default="pos", help=SHOW_DEFAULT)
    sub.add_argument("--knowledge")

    sub = command(expl_eval, experiment, name="expl-eval")
    sub.add_argument("--input", required=True, help=SYNTH_DIR)
    sub.add_argument("-k", type=int, required=True)
    sub.add_argument("--max-instances", type=int)

    sub = command(bench_lp_cmd, seed, name="bench-lp")
    sub.add_argument("--vars", type=int, required=True)
    sub.add_argument("--clauses", type=int, required=True)
    sub.add_argument("--csv", help="Append a result row: n_vars,n_clauses,seconds,objective.")

    sub = command(inject)
    sub.add_argument("--kb", required=True)
    sub.add_argument("--knowledge", required=True)
    sub.add_argument("--out", required=True)

    sub = command(knowledge_exp, experiment, name="knowledge-exp")
    sub.add_argument("--input", required=True, help=SYNTH_DIR)
    sub.add_argument("--true", type=int, default=0, help=SHOW_DEFAULT)
    sub.add_argument("--random", type=int, default=0, help=SHOW_DEFAULT)
    for each in (parser, *commands.choices.values()):
        each.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Explainable binary classification with probabilistic knowledge bases."""
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
