"""Outside-in per-layer tracing of `markedgc`.

`Tracer.install` wraps the layer-boundary functions listed in `LAYERS`.
`from .linalg import column_factorization` copies the binding into the
importing module, so each wrapper is bound under every name, in every
loaded `markedgc` module, that holds the original function object.
Function-local imports (as in `stability`) look the name up at call time
and therefore see the wrapper too.

Each call records a span (name, start, end, parent span) in flat in-memory
arrays; the spans are written out once, after the sample.  A layer's self
time is its spans' duration minus the time covered by their wrapped child
spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": ("canonical_form", "validate"),
    "complexes": (
        "enumerate_unlabeled_classes",
        "enumerate_marked_graphs",
        "boundary_terms",
        "build_complex",
        "save_enumeration",
        "load_enumeration",
        "group_action_matrix",
        "chain_character",
        "stabilization_map",
    ),
    "linalg": ("rank", "column_factorization", "trace_on_image"),
    "homology": ("homology_decomposition",),
    "reptheory": ("decompose", "induce_from_subgroup"),
    "stability": (
        "core_module",
        "enumerate_core_graphs",
        "verify_core_bounds",
        "verify_edge_cut_rows",
        "check_consistent_sequence",
    ),
    "cli": ("main",),
}

LAYER_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)


def _nnz(cols) -> int:
    return sum(len(col) for col in cols)


# Size counters taken from a call's arguments and result, named
# ``<layer>.<counter>``.  A counter whose name starts with ``max_`` keeps the
# maximum; the others are summed.
COUNTERS = {
    "linalg.column_factorization": lambda args, result: {
        "nnz": _nnz(args[0]),
        "max_cols": len(args[0]),
    },
    "linalg.rank": lambda args, result: {"nnz": _nnz(args[0])},
    "complexes.enumerate_marked_graphs": lambda args, result: {
        "classes": len(result)
    },
    "complexes.load_enumeration": lambda args, result: {
        "hits": int(result is not None)
    },
    "stability.enumerate_core_graphs": lambda args, result: {
        "classes": len(result)
    },
}


def metric_units() -> dict[str, str]:
    """Every metric `Tracer.metrics` reports, with its unit."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "linalg.column_factorization.nnz": "count",
        "linalg.column_factorization.max_cols": "count",
        "linalg.rank.nnz": "count",
        "complexes.enumerate_marked_graphs.classes": "count",
        "complexes.load_enumeration.hit_ratio": "ratio",
        "stability.enumerate_core_graphs.classes": "count",
        "graphs.class_cache.new_entries": "count",
        "graphs.class_cache.hit_ratio": "ratio",
    })
    return units


class Tracer:
    """Records one span per call of each wrapped layer function."""

    def __init__(self) -> None:
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters: dict[str, dict[str, int]] = {n: {} for n in COUNTERS}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every function in `LAYERS` under all of its bindings."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "markedgc" or name.startswith("markedgc.")
        ]
        for index, name in enumerate(LAYER_NAMES):
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"markedgc.{module_name}"], func_name)
            wrapper = self._wrap(index, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, index: int, name: str, func):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        totals = self.counters.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = len(name_of)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                for k, v in counter(args, result).items():
                    if k.startswith("max_"):
                        totals[k] = max(totals.get(k, 0), v)
                    else:
                        totals[k] = totals.get(k, 0) + v
            return result

        return wrapper

    def metrics(self, class_cache_entries: int) -> dict[str, float]:
        """The per-layer metrics of one traced sample.

        ``class_cache_entries`` is the size of ``graphs._class_cache`` after
        the sample.  The cache is empty before the first invocation, so this
        is the number of ``canonical_form`` calls that missed it.
        """
        child_time = [0.0] * len(self.name_of)
        for span, up in enumerate(self.parent):
            if up >= 0:
                child_time[up] += self.end[span] - self.start[span]
        found = dict.fromkeys(metric_units(), 0)
        for span, index in enumerate(self.name_of):
            name = LAYER_NAMES[index]
            found[f"{name}.calls"] += 1
            found[f"{name}.self_s"] += self.end[span] - self.start[span] - child_time[span]
        for name, counters in self.counters.items():
            for counter, value in counters.items():
                found[f"{name}.{counter}"] = value
        hits = found.pop("complexes.load_enumeration.hits", 0)
        loads = found["complexes.load_enumeration.calls"]
        canonical = found["graphs.canonical_form.calls"]
        found.update({
            "complexes.load_enumeration.hit_ratio": hits / loads if loads else 0.0,
            "graphs.class_cache.new_entries": class_cache_entries,
            "graphs.class_cache.hit_ratio":
                1 - class_cache_entries / canonical if canonical else 0.0,
        })
        return found

    def write_spans(self, path: Path, workload: str, sample: int) -> None:
        """Write every span as a tab-separated row of a gzip file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_s\tend_s\tworkload\tsample\n")
            for span, index in enumerate(self.name_of):
                out.write(
                    f"{span}\t{self.parent[span]}\t{LAYER_NAMES[index]}\t"
                    f"{self.start[span]:.9f}\t{self.end[span]:.9f}\t"
                    f"{workload}\t{sample}\n"
                )
