"""In-memory span tracing of the compiler's layers, from outside the program.

:class:`Tracer` replaces each layer's public functions with a recording
wrapper.  A function is replaced everywhere its callers look it up: in
its defining module and in every ``repro`` module that bound it by name
at import (``bs_sa`` binds ``opt_for_part_many`` that way).  Each call
records ``(layer, start, end, parent, items)``; spans stay in memory
until :meth:`Tracer.write` and :func:`reduce_spans` turn them into a
per-layer table of self time (span duration minus the time its direct
child spans cover).

Only the calling process is traced: spawned campaign workers and the
serve daemon's pool are out of reach, so the benchmark replays their
work in-process where it needs layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: ``(layer, module, attribute names)`` wrapped for that layer.  The
#: ``harness`` (``run_table2``) and ``compile`` (``compile_one``) layers
#: root the traced work, so that the layers' self times add up to its
#: wall time.
LAYERS: Sequence[Tuple[str, str, Sequence[str]]] = (
    ("harness", "repro.experiments.table2", ("run_table2",)),
    ("compile", "repro.compile_api", ("compile_one",)),
    ("engine", "repro.experiments.engine", ("Engine.run",)),
    ("search", "repro.core.bs_sa", ("run_bssa",)),
    ("search", "repro.core.dalta", ("run_dalta",)),
    ("partition", "repro.boolean.partition", ("random_partition",)),
    (
        "cost",
        "repro.core.cost",
        ("cost_vectors_fixed", "cost_vectors_predictive", "cost_vectors_accurate_lsb"),
    ),
    (
        "opt_for_part",
        "repro.core.opt_for_part",
        ("opt_for_part", "opt_for_part_many", "opt_for_part_grouped", "opt_for_part_bto"),
    ),
    (
        "nondisjoint",
        "repro.core.nondisjoint",
        ("optimize_nondisjoint", "optimize_nondisjoint_shared", "optimize_multi_shared"),
    ),
    # the BTO/ND selection rules; ``select_mode`` itself only dispatches
    # on the architecture and returns the normal setting unchanged for
    # the plain ``normal`` search, so it stays part of search control
    ("modes", "repro.core.modes", ("select_mode_bto_normal", "select_mode_bto_normal_nd")),
    ("hardware", "repro.hardware.architectures", ("build_architecture",)),
    ("hardware", "repro.hardware.verilog", ("emit_design", "emit_memory_images", "emit_testbench")),
    ("artifact", "repro.compile_api", ("artifact_from_result", "canonical_json")),
)

#: fields of one span record
SPAN_FIELDS = ("name", "start", "end", "parent", "items")


def _items(attribute: str, args: tuple, kwargs: dict) -> int:
    """Work items one OptForPart entry call evaluates."""
    if attribute == "opt_for_part_many":
        partitions = kwargs.get("partitions", args[2] if len(args) > 2 else ())
        return len(partitions)
    if attribute == "opt_for_part_grouped":
        requests = kwargs.get("requests", args[0] if args else ())
        return sum(len(request.partitions) for request in requests)
    return 1


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``spans`` holds ``[layer, start, end, parent_index, items]`` lists
    in start order.  Cache counters of :mod:`repro.caching` are summed
    across every ``clear_caches`` call while tracing (each search run
    resets them) and left in ``cache_totals``.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.cache_totals: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._cache_base: Dict[str, Dict[str, float]] = {}

    # -- wrappers --------------------------------------------------------
    def _wrap(self, layer: str, attribute: str, function: Callable) -> Callable:
        spans = self.spans
        local = self._local
        lock = self._lock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [
                layer,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else -1,
                _items(attribute, args, kwargs),
            ]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        import importlib

        from repro import caching

        for layer, module_name, attributes in LAYERS:
            module = importlib.import_module(module_name)
            for attribute in attributes:
                if "." in attribute:  # a method: patch the class
                    class_name, method = attribute.split(".")
                    owner = getattr(module, class_name)
                    original = getattr(owner, method)
                    self._patch(owner, method, self._wrap(layer, method, original))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(layer, attribute, original)
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if not name.startswith("repro"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
        self._cache_base = caching.cache_stats()
        original_clear = caching.clear_caches

        def clear_caches() -> None:
            self._accumulate_caches()
            original_clear()
            self._cache_base = caching.cache_stats()

        self._patch(caching, "clear_caches", clear_caches)
        return self

    def _accumulate_caches(self) -> None:
        from repro import caching

        for name, stats in caching.cache_stats().items():
            base = self._cache_base.get(name, {})
            total = self.cache_totals.setdefault(
                name, {"hits": 0, "misses": 0, "evictions": 0}
            )
            for key in total:
                total[key] += stats[key] - base.get(key, 0)

    def uninstall(self) -> None:
        self._accumulate_caches()
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines of :data:`SPAN_FIELDS`."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def reduce_spans(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``calls`` and ``items``.

    ``calls`` and ``items`` count only a layer's outermost entries, so a
    public entry point that calls another of the same layer counts once.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for index, (layer, start, end, parent, items) in enumerate(spans):
        row = table.setdefault(layer, {"self_s": 0.0, "calls": 0, "items": 0})
        row["self_s"] += (end - start) - child_time[index]
        if parent < 0 or spans[parent][0] != layer:
            row["calls"] += 1
            row["items"] += items
    return table


def render_table(
    table: Dict[str, Dict[str, float]], wall_s: float, title: str
) -> str:
    """The layer table: self time, share of wall, calls and items."""
    lines = [
        title,
        f"{'layer':<14}{'self_s':>10}{'share':>8}{'calls':>10}{'items':>10}",
    ]
    order = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    for name, row in order:
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<14}{row['self_s']:>10.4f}{100 * share:>7.1f}%"
            f"{int(row['calls']):>10}{int(row['items']):>10}"
        )
    return "\n".join(lines)


def layer_value(
    table: Dict[str, Dict[str, float]], layer: str, key: str
) -> float:
    row = table.get(layer)
    return float(row[key]) if row else 0.0
