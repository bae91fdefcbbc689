"""Span recorder for the traced benchmark run.

The recorder wraps functions of the ``plkb`` modules from outside: no file
of the package changes.  ``plkb`` binds many names with ``from .x import
y``, so a function is replaced under every module attribute that holds it,
not only in the module that defines it; a call through an unpatched alias
would silently go missing from the trace.  ``plkb.data`` runs only in
set-up, before the recorder is installed, and is timed there as
``setup_s``.

Spans are kept in memory as plain lists and written once, when the run
ends.  Each span holds a name, start, end, the index of its parent span,
the query id that was current when it opened, and an optional attribute
taken from the call's result (a clause count, HiGHS iterations, ...).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import json
import sys
import time

# (module, attribute path, span name, attribute extractor)
# The extractor maps the call's result to the span's attribute.
TARGETS = (
    ("plkb.direct", "build_direct_kb", "direct.build_direct_kb", len),
    ("plkb.direct", "SubsetCounter.add_instance", "direct.add_instance", None),
    ("plkb.direct", "SubsetCounter.to_kb", "direct.to_kb", len),
    ("plkb.direct", "active_kb", "direct.active_kb", len),
    ("plkb.direct", "relevant_kb", "direct.relevant_kb", len),
    ("plkb.tree", "build_id3", "tree.build_id3", None),
    ("plkb.tree", "kb_from_tree", "tree.kb_from_tree", len),
    ("plkb.kb", "merge", "kb.merge", len),
    ("plkb.kb", "parse_kb", "kb.parse_kb", len),
    ("plkb.kb", "serialize_kb", "kb.serialize_kb", len),
    ("plkb.lp", "infer_pos", "lp.infer_pos", None),
    ("plkb.lp", "build_lp", "lp.build_lp", lambda r: (r.n_variables, len(r.constraints))),
    ("plkb.lp", "apply_query", "lp.apply_query", None),
    ("plkb.lp", "linprog", "lp.linprog", lambda r: int(r.nit)),
    ("plkb.explain", "compute_explanation", "explain.compute_explanation", None),
    ("plkb.explain", "evaluate_sub_query", "explain.evaluate_sub_query", None),
    ("plkb.evaluate", "train_kb", "evaluate.train_kb", None),
    ("plkb.evaluate", "classify_query", "evaluate.classify_query", None),
)

NAME, START, END, PARENT, QID, ATTR = range(6)


class Recorder:
    """Collects spans from wrapped functions and from ``span`` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid: str | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_seconds = 0.0
        self.gc_gen2 = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.qid, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, attr=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if attr is not None:
                    span[ATTR] = attr(result)
                return result
            finally:
                self._close(span)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every ``plkb`` module name bound to it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "plkb" or n.startswith("plkb."))
        ]
        for module_name, path, span_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:  # a method: patch the class attribute only
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], span_name, attr))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(original, span_name, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- output -------------------------------------------------------

    def take(self) -> tuple[list[list], float, int]:
        """Hand over the spans and GC totals recorded so far and reset."""
        out = (self.spans, self.gc_seconds, self.gc_gen2)
        self.spans = []
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        return out


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in kids if hi > start and lo < end]
        out.append(end - start - covered(clipped))
    return out


def write_spans(path, rounds: list[list[list]]) -> None:
    """One JSON object per span, gzip-compressed, tagged with its round."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for r, spans in enumerate(rounds):
            for s in spans:
                fh.write(json.dumps(
                    {"round": r, "name": s[NAME], "start": s[START], "end": s[END],
                     "parent": s[PARENT], "qid": s[QID], "attr": s[ATTR]}
                ))
                fh.write("\n")
