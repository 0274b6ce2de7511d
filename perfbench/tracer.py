"""Layer tracer for the hesscomb benchmark.

The tracer wraps functions of the hesscomb modules from outside the
package.  The package binds names with ``from .x import y``, so one function
can live under several module namespaces; the tracer replaces it in every
``hesscomb.*`` namespace that holds it and restores all of them on
``uninstall``.  Wrappers sit outside ``functools.lru_cache``, so a cache hit
still counts as a call, and hit ratios come from ``cache_info()`` deltas.

Two kinds of wrapper exist.  A *span* wrapper records one span per call:
(id, parent id, name, start, end, leaf time), where leaf time is the time
spent in leaf calls made directly inside it.  A *leaf* wrapper is for
functions called hundreds of thousands of times; it only adds to a per
name call count and self time.  Spans stay in memory until ``payload()``.

``poly`` and ``rootsys`` are not wrapped: their helpers are called millions
of times, so wrapping them would measure the wrapper.  Their cost shows up
in their callers' self time.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import os
import sys
import time
from collections.abc import Callable, Iterable

PACKAGE = "hesscomb"


@dataclasses.dataclass(frozen=True)
class Layer:
    """A group of functions of one module reported under one metric prefix.

    ``metrics`` are the suffixes reported: ``calls``, ``self_s``, ``s``
    (inclusive time), ``entries`` (``cache_info().currsize``), ``hit_ratio``,
    ``yield`` (useful outcomes over attempts) and ``rss_delta_mb``.
    """

    prefix: str
    module: str
    names: tuple[str, ...]
    leaf: bool = False
    metrics: tuple[str, ...] = ("calls", "self_s")


LAYERS = (
    Layer(
        "symgroup.tables",
        "symgroup",
        (
            "_sn_images",
            "_sn_index",
            "_sn_inverse_images",
            "_sn_inverse_index",
            "_sn_lengths",
            "_sn_invsets",
            "_sn_domkeys",
            "_coset_table",
        ),
        metrics=("calls", "self_s", "entries", "rss_delta_mb"),
    ),
    Layer("symgroup.min_coset_rep", "symgroup", ("is_min_coset_rep", "is_min_coset_rep_strings"), leaf=True),
    Layer("symgroup.coset_factor", "symgroup", ("coset_factor",), leaf=True),
    Layer("symgroup.bruhat_leq", "symgroup", ("bruhat_leq",), leaf=True),
    Layer("nilpotent.shape_tables", "nilpotent", ("_fiber_bitmap", "_springer_dim_table")),
    Layer("nilpotent.springer_cell_dim", "nilpotent", ("springer_cell_dim",), leaf=True),
    Layer("hessvar.poincare_hessenberg", "hessvar", ("poincare_hessenberg",), metrics=("calls", "self_s", "hit_ratio", "yield")),
    Layer("hessvar.poincare_parabolic_formula", "hessvar", ("poincare_parabolic_formula",)),
    Layer("hessvar.springer_min_reps", "hessvar", ("springer_min_reps",), metrics=("calls", "self_s", "hit_ratio")),
    Layer("hessvar.hess_cells", "hessvar", ("hess_cells",)),
    Layer("hessvar.cell_dim", "hessvar", ("cell_dim",), leaf=True),
    Layer("schubert.schubert_point", "schubert", ("schubert_point",), leaf=True, metrics=("calls", "self_s", "hit_ratio", "entries")),
    Layer("schubert.schubert_union_tops", "schubert", ("schubert_union_tops",)),
    Layer("schubert.poincare_schubert_union", "schubert", ("poincare_schubert_union",), metrics=("calls", "self_s", "yield")),
    Layer("components.component_candidates", "components", ("component_candidates",)),
    Layer("harness.census", "harness", ("census",), metrics=("self_s",)),
    Layer("harness.rows_to_csv", "harness", ("rows_to_csv",), metrics=("s",)),
    Layer("cli.main", "cli", ("main",), metrics=("self_s",)),
)

# The values of harness.CHECKS, wrapped one span name per check id.
CHECK_IDS = (
    "fixed-points",
    "parabolic-dimension",
    "poincare-corollary",
    "strings-coset",
    "schubert-coset",
    "schubert-ideal",
    "main-theorem",
    "phi-V-equivalence",
    "dim-formulas-agree",
)

_UNITS = {"calls": "count", "self_s": "s", "s": "s", "entries": "count", "rss_delta_mb": "MB", "hit_ratio": "ratio", "yield": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer.prefix}.{m}": _UNITS[m] for layer in LAYERS for m in layer.metrics}
    units["nilpotent.fiber_yield"] = "ratio"
    for check_id in CHECK_IDS:
        units[f"harness.check.{check_id}.s"] = "s"
    units["cli.process_overhead_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Wraps the hesscomb layers of this process; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.leaves: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        # frame: [time covered by wrapped children, time of direct leaf children, nearest span id]
        self._stack: list[list] = [[0.0, 0.0, 0]]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[Callable, int, int]] = {}
        self._table_depth = 0
        self._statm = -1
        self.counters["symgroup.tables.rss_bytes"] = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function; a name the package lacks is recorded
        in ``absent`` instead of failing."""
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer.module}")
            for fname in layer.names:
                original = getattr(module, fname, None)
                name = f"{layer.module}.{fname}"
                if original is None:
                    self.absent.append(name)
                    continue
                if hasattr(original, "cache_info"):
                    info = original.cache_info()
                    self._caches[name] = (original, info.hits, info.misses)
                self._patch_everywhere(original, self._wrap(layer, name, original))
        harness = importlib.import_module(f"{PACKAGE}.harness")
        checks = getattr(harness, "CHECKS", {})
        for check_id in CHECK_IDS:
            original = checks.get(check_id)
            if original is None:
                self.absent.append(f"harness.CHECKS[{check_id}]")
                continue
            checks[check_id] = self._span(f"harness.check.{check_id}", original)
            self._patches.append((checks, check_id, original))

    def uninstall(self) -> None:
        """Put back every original function, in reverse order of patching."""
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()
        if self._statm >= 0:
            os.close(self._statm)
            self._statm = -1

    def _rss(self) -> int:
        """Resident set size of this process in bytes, read from /proc."""
        return int(os.pread(self._statm, 64, 0).split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def _patch_everywhere(self, original: object, wrapped: object) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))

    def _wrap(self, layer: Layer, name: str, fn: Callable) -> Callable:
        if layer.leaf:
            return self._leaf(name, fn)
        observe = None
        if name == "hessvar.poincare_hessenberg":
            observe = self._observer("hessvar.poincare_hessenberg", lambda args, poly: (sum(poly.coeffs), math.factorial(args[0].n)))
        elif name == "schubert.poincare_schubert_union":
            observe = self._observer("schubert.poincare_schubert_union", lambda args, poly: (sum(poly.coeffs), math.factorial(args[1])), dedupe=False)
        elif name == "nilpotent._fiber_bitmap":
            observe = self._observer("nilpotent.fiber", lambda args, bits: (sum(bits), len(bits)))
        return self._span(name, fn, observe, rss=layer.prefix == "symgroup.tables")

    def _observer(self, key: str, ratio: Callable, dedupe: bool = True) -> Callable:
        """Adds (useful, attempted) of each distinct call to two counters."""
        seen: set = set()
        counters = self.counters
        counters[f"{key}.useful"] = counters[f"{key}.attempted"] = 0

        def observe(args: tuple, result: object) -> None:
            if dedupe:
                if args in seen:
                    return
                seen.add(args)
            useful, attempted = ratio(args, result)
            counters[f"{key}.useful"] += useful
            counters[f"{key}.attempted"] += attempted

        return observe

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, observe: Callable | None = None, rss: bool = False) -> Callable:
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        read_rss = self._rss if rss else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            frame = [0.0, 0.0, sid]
            outermost = read_rss is not None and self._table_depth == 0
            if read_rss is not None:
                self._table_depth += 1
            if outermost:
                rss_before = read_rss()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                spans.append((sid, parent[2], name, start, end, frame[1]))
                if read_rss is not None:
                    self._table_depth -= 1
                if outermost:
                    self.counters["symgroup.tables.rss_bytes"] += read_rss() - rss_before
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter
        stat = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                parent[1] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]

        return wrapper

    # -- output -----------------------------------------------------------

    def payload(self) -> dict:
        """Everything recorded so far, as plain JSON-ready data."""
        caches = {}
        for name, (fn, hits, misses) in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits - hits, info.misses - misses, info.currsize]
        return {
            "spans": [list(span) for span in self.spans],
            "leaves": self.leaves,
            "counters": self.counters,
            "caches": caches,
            "absent": self.absent,
        }


# -- offline analysis -------------------------------------------------------


def self_times(spans: Iterable[tuple[int, int, str, float, float, float]]) -> dict[int, float]:
    """Self time per span id: duration minus the part of the span's interval
    that its child spans cover, minus its direct leaf time.

    >>> self_times([(1, 0, "a", 0.0, 10.0, 1.0), (2, 1, "b", 2.0, 5.0, 0.0), (3, 1, "c", 4.0, 6.0, 0.0)])
    {1: 5.0, 2: 3.0, 3: 2.0}
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, leaf in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered - leaf
    return out


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0


def layer_metrics(processes: list[dict], overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics summed over traced processes.

    Each item of ``processes`` is a tracer payload plus ``wall_s`` (spawn to
    exit) and ``outside_s`` (time the child spent tracing outside ``main``).
    Returns the metrics and the sorted names the package did not have.
    """
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    counters: dict[str, float] = {}
    caches: dict[str, list[int]] = {}
    absent: set[str] = set()
    process_overhead = 0.0
    for proc in processes:
        selfs = self_times(proc["spans"])
        main_s = 0.0
        for sid, _, name, start, end, _ in proc["spans"]:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[sid]
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            if name == "cli.main":
                main_s += end - start
        for name, (count, seconds) in proc["leaves"].items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + seconds
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for name, (hits, misses, size) in proc["caches"].items():
            total = caches.setdefault(name, [0, 0, 0])
            total[0] += hits
            total[1] += misses
            total[2] += size
        absent.update(proc["absent"])
        process_overhead += proc["wall_s"] - main_s - proc["outside_s"]

    def group(layer: Layer, table: dict[str, float]) -> float:
        return sum(table.get(f"{layer.module}.{fname}", 0) for fname in layer.names)

    out: dict[str, float] = {}
    for layer in LAYERS:
        p = layer.prefix
        cached = [caches[f"{layer.module}.{fname}"] for fname in layer.names if f"{layer.module}.{fname}" in caches]
        out[f"{p}.calls"] = group(layer, calls)
        out[f"{p}.self_s"] = group(layer, self_s)
        out[f"{p}.s"] = group(layer, inclusive)
        out[f"{p}.entries"] = sum(c[2] for c in cached)
        out[f"{p}.hit_ratio"] = _ratio(sum(c[0] for c in cached), sum(c[0] + c[1] for c in cached))
        out[f"{p}.yield"] = _ratio(counters.get(f"{p}.useful", 0), counters.get(f"{p}.attempted", 0))
    out["symgroup.tables.rss_delta_mb"] = counters.get("symgroup.tables.rss_bytes", 0) / 2**20
    out["nilpotent.fiber_yield"] = _ratio(counters.get("nilpotent.fiber.useful", 0), counters.get("nilpotent.fiber.attempted", 0))
    for check_id in CHECK_IDS:
        out[f"harness.check.{check_id}.s"] = inclusive.get(f"harness.check.{check_id}", 0.0)
    out["cli.process_overhead_s"] = process_overhead
    out["trace.overhead_s"] = overhead_s
    units = metric_units()
    return {name: out[name] for name in units}, sorted(absent)

