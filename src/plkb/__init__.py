"""Explainable binary classification via probabilistic knowledge bases
learned from categorical data and queried with linear-programming
inference.

Every exported name, and each submodule that defines one, is imported on
first access (PEP 562), so a command that needs only a few
modules loads only those.  A resolved name is not stored in the package:
each access reads the defining module's attribute, so a name patched
there, and later restored, reads the same through the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports
_MODULES = {
    "data": (
        "Dataset",
        "Instance",
        "SeedSpec",
        "balance",
        "generate_synthetic",
        "label_synthetic",
        "load_csv",
        "load_synthetic",
        "random_seed_spec",
        "save_synthetic",
        "split",
    ),
    "direct": ("SubsetCounter", "active_kb", "build_direct_kb", "relevant_kb"),
    "explain": ("Explanation", "compute_explanation", "explanation_accuracy", "masked_string"),
    "evaluate": (
        "BenchResult",
        "EvalReport",
        "ExperimentConfig",
        "bench_lp",
        "classify_query",
        "f1_score",
        "run_eval",
        "run_explanation_eval",
        "run_knowledge_experiment",
        "train_kb",
    ),
    "kb": (
        "POS",
        "Atom",
        "Clause",
        "KBParseError",
        "KnowledgeBase",
        "Literal",
        "WeightedClause",
        "merge",
        "parse_kb",
        "rule_clause",
        "serialize_kb",
    ),
    "lp": (
        "InferenceResult",
        "LinearProgram",
        "apply_query",
        "build_lp",
        "check_consistency",
        "dump_lp",
        "infer_pos",
        "nilsson_oracle",
    ),
    "tree": ("TreeNode", "build_id3", "format_tree", "kb_from_tree"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__all__})
