"""Spans around calls into pwrkit's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``pwrkit`` namespace that binds it, so calls between modules
(``engine.converged_pwr`` -> ``pwr_trace``, ``components.largest_strong_component``
-> ``strongly_connected_components``, ``comparators.compare_rankings`` ->
``pearson``/``spearman``, ``cli`` -> everything) open their own span instead of
counting as the caller's self time.  Dataclass validation is traced by
wrapping ``__post_init__``.  ``uninstall`` puts every original back, so the
package runs untouched between traced calls.

A span is ``[name, start, end, parent, invocation, extra]``; spans stay in
memory and are written out by the caller once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> public functions that get a span.
TRACED = {
    "cli": ("main",),
    "formats": (
        "read_pajek",
        "write_pajek",
        "read_csv_matrix",
        "write_csv_matrix",
        "read_metric_csv",
        "write_trace_csv",
    ),
    "matrix": ("transpose", "extract_subgraph"),
    "engine": ("pwr_trace", "convergence_report", "converged_pwr"),
    "components": ("strongly_connected_components", "largest_strong_component"),
    "decomposition": (
        "citing_cosine_matrix",
        "threshold_graph",
        "louvain_partition",
        "modularity",
        "citing_threshold_subset",
    ),
    "comparators": (
        "citation_factor",
        "pagerank",
        "hits",
        "compare_rankings",
        "pearson",
        "spearman",
        "align_to",
    ),
    "plotting": ("render_convergence_svg",),
}

# module -> dataclasses whose construction (``__post_init__`` validation) gets a span.
CONSTRUCTED = {
    "matrix": ("CitationMatrix",),
    "decomposition": ("SimilarityMatrix", "UndirectedGraph"),
}

SPAN_NAMES = tuple(
    f"{mod}.{name}" for table in (TRACED, CONSTRUCTED) for mod, names in table.items() for name in names
)

NAME, START, END, PARENT, INVOCATION, EXTRA = range(6)


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _input_bytes(extra: dict, args: tuple, kwargs: dict, result: object) -> None:
    text = args[0] if args else next(iter(kwargs.values()))
    extra["in_bytes"] = _text_bytes(text)


def _output_bytes(extra: dict, args: tuple, kwargs: dict, result: object) -> None:
    extra["out_bytes"] = _text_bytes(result)


def _trace_k_max(extra: dict, args: tuple, kwargs: dict, result: object) -> None:
    extra["k_max"] = result.k_max


def _kept_edges(extra: dict, args: tuple, kwargs: dict, result: object) -> None:
    n = result.n
    extra["kept"] = len(result.edges)
    extra["pairs"] = n * (n - 1) // 2


def _metric_count(extra: dict, args: tuple, kwargs: dict, result: object) -> None:
    metrics = args[0] if args else kwargs["metrics"]
    extra["metrics"] = len(metrics)


# Facts read off a call's arguments or result and stored on its span.
HOOKS = {
    "formats.read_pajek": _input_bytes,
    "formats.read_csv_matrix": _input_bytes,
    "formats.read_metric_csv": _input_bytes,
    "formats.write_pajek": _output_bytes,
    "formats.write_csv_matrix": _output_bytes,
    "formats.write_trace_csv": _output_bytes,
    "engine.pwr_trace": _trace_k_max,
    "decomposition.threshold_graph": _kept_edges,
    "comparators.compare_rankings": _metric_count,
}


class Tracer:
    """Owns the span list and the wrappers; one per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.invocation, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                if span[EXTRA] is None:
                    span[EXTRA] = {}
                try:
                    hook(span[EXTRA], args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the package changed shape; the fact is left out, the call is not failed
            return result

        return wrapper

    def _count_matvec(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                extra = spans[stack[-1]][EXTRA]
                if extra is None:
                    extra = spans[stack[-1]][EXTRA] = {}
                extra["matvecs"] = extra.get("matvecs", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every pwrkit namespace that binds ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pwrkit" and not mod_name.startswith("pwrkit."):
                continue
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced name the package still has; a removed one reads 0 calls."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod, names in TRACED.items():
            module = importlib.import_module(f"pwrkit.{mod}")
            for name in names:
                original = getattr(module, name, None)
                if original is not None:
                    self._rebind(original, self._span(f"{mod}.{name}", original))
        matvec = getattr(importlib.import_module("pwrkit.matrix"), "matvec", None)
        if matvec is not None:
            self._rebind(matvec, self._count_matvec(matvec))
        for mod, names in CONSTRUCTED.items():
            module = importlib.import_module(f"pwrkit.{mod}")
            for name in names:
                cls = getattr(module, name, None)
                original = vars(cls).get("__post_init__") if cls is not None else None
                if original is not None:
                    setattr(cls, "__post_init__", self._span(f"{mod}.{name}", original))
                    self._undo.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its (sequential) child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]
