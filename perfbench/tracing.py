"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of the torsol modules and rebinds each
wrapper on every ``torsol.*`` module attribute (and class attribute) that
holds the original object, so calls between modules, calls through
``from .x import f`` names and calls inside one module are all recorded.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of
the enclosing traced span (-1 at top level) and ``job`` identifies the
benchmark job that caused it.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced public function
TARGETS = (
    ("torsol.cli", "run"),
    ("torsol.intmat", "analyze_matrix"),
    ("torsol.kernel_geometry", "enumerate_components"),
    ("torsol.kernel_geometry", "shift_cover"),
    ("torsol.kernel_geometry", "box_measure"),
    ("torsol.polytope", "enumerate_vertices"),
    ("torsol.polytope", "volume"),
    ("torsol.polytope", "central_section_check"),
    ("torsol.measures", "solution_measure"),
    ("torsol.measures", "decompose"),
    ("torsol.measures", "monte_carlo_estimate"),
    ("torsol.measures", "find_positive_witness"),
    ("torsol.discrete", "solution_density"),
    ("torsol.discrete", "parametrize_kernel"),
    ("torsol.removal_lab", "find_violating_boxes"),
    ("torsol.removal_lab", "greedy_removal"),
    ("torsol.removal_lab", "zero_measure_check"),
    ("torsol.removal_lab", "density_search"),
    ("torsol.removal_lab", "density_trend"),
    ("torsol.torus_sets", "sets_from_json"),
    ("torsol.torus_sets", "IntervalUnion.to_discrete"),
)

# traced functions that carry an lru_cache whose hits are reported
CACHED = ("intmat.analyze_matrix", "kernel_geometry.enumerate_components")


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('torsol.')}.{path.rsplit('.', 1)[-1]}"


NAMES = tuple(span_name(m, p) for m, p in TARGETS)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list = []
        self._cache_start: dict[str, tuple] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        on_result = _RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind a traced wrapper wherever a torsol module holds a target."""
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "torsol" or n.startswith("torsol.")]
        for module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = span_name(module_name, path)
            if name in CACHED:
                self._cache_start[name] = (original, original.cache_info().hits)
            wrapper = self._wrap(name, original)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for name, (original, hits) in self._cache_start.items():
            self.counts[f"{name}.cache_hits"] += original.cache_info().hits - hits
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def aggregate(self) -> dict:
        """calls, inclusive seconds and self seconds per traced name.

        Inclusive time counts only spans with no enclosing span of the
        same name, so recursion is not counted twice.  Self time is a
        span's duration minus the durations of its direct children.
        """
        stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in NAMES}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _job) in enumerate(self.spans):
            row = stats[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[idx]
            if not self._has_ancestor(idx, name):
                row["s"] += end - start
        return {"stats": stats, "counts": dict(self.counts)}

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _volume_result(counts, args, result) -> None:
    counts["polytope.volume.full_dim"] += bool(result.is_full_dimensional)


def _density_result(counts, args, result) -> None:
    mat, p = args[0], args[1]
    counts["discrete.kernel_points"] += p ** (mat.cols - mat.rows)


_RESULT_HOOKS = {"polytope.volume": _volume_result, "discrete.solution_density": _density_result}


def merge(into: dict, part: dict) -> dict:
    """Add one aggregate (as returned by ``Tracer.aggregate``) into another."""
    for name, row in part["stats"].items():
        dst = into["stats"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            dst[key] += value
    for key, value in part["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    return into
