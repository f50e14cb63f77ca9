"""Per-layer tracing from outside the program.

Wraps the public functions of each layer (see :data:`LAYERS`) in a
span that records calls and *self time*: a span's duration minus the
part its child spans cover. Nothing under ``src/`` is edited; the
wrappers replace module and class attributes at run time, in the
defining module and in every loaded ``repro`` module that imported
the same function by name.

Spans are folded into per-layer totals in memory. Forked workers
inherit the wrappers; after a fork the child starts empty totals and
appends them to a per-pid file each time its outermost span closes,
so a worker killed mid-task loses only its open span, and that loss is
counted (an ``open`` line without a matching ``close``). The parent's
totals stay in memory until :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> ((module, attribute path), ...). Attribute paths with a dot
#: are methods on a class of that module.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "topology.routing": (
        ("repro.topology.routing", "RoutingSystem.routing_tree"),
    ),
    "sim.stampplan": (
        ("repro.sim.network", "build_program"),
        ("repro.sim.network", "compile_segment"),
        ("repro.sim.stampplan", "build_template"),
    ),
    "probing.prober": (
        ("repro.probing.prober", "Prober.probe_batch_rows"),
        ("repro.probing.prober", "Prober.probe_batch_ping"),
        ("repro.probing.prober", "Prober.ping"),
    ),
    "probing.validation": (
        ("repro.probing.validation", "ReplyValidator.check_batch"),
    ),
    "faults.injector": (
        ("repro.faults.injector", "FaultInjector.misbehave_pairs"),
    ),
    "probing.artifacts": (
        ("repro.probing.artifacts", "atomic_write_bytes"),
        ("repro.probing.artifacts", "atomic_write_text"),
        ("repro.probing.artifacts", "append_text_line"),
        ("repro.probing.artifacts", "embed_checksum"),
        ("repro.probing.artifacts", "canonical_json_bytes"),
    ),
    "core.survey": (
        ("repro.core.survey", "probe_vp_rr"),
        ("repro.core.survey", "save_survey"),
    ),
    "core.parallel": (
        ("repro.core.parallel", "run_pooled_tasks"),
    ),
    "faults.campaign": (
        ("repro.faults.campaign", "CampaignRunner.run"),
    ),
    "faults.supervisor": (
        ("repro.faults.supervisor", "run_vp_attempt"),
        ("repro.faults.supervisor", "WorkerWatchdog.run_tasks"),
        ("repro.faults.supervisor", "WorkerWatchdog.close"),
        ("repro.faults.supervisor", "WorkerWatchdog.journals_by_name"),
    ),
    "service.executor": (
        ("repro.service.executor", "service_unit_body"),
    ),
    "service.scheduler": (
        ("repro.service.scheduler", "CreditScheduler.plan_round"),
    ),
    "service.streams": (
        ("repro.service.streams", "TenantStream.append"),
    ),
    "service.daemon": (
        ("repro.service.daemon", "MeasurementDaemon.run"),
    ),
}

#: Functions whose payload counts as bytes written: name -> (position,
#: keyword) of the data argument. ``atomic_write_text`` is left out
#: because it writes through ``atomic_write_bytes``.
_WRITERS = {"atomic_write_bytes": (1, "data"), "append_text_line": (1, "line")}


def _import_modules() -> None:
    # ``repro.probing`` first: importing ``repro.sim`` or
    # ``repro.topology`` on its own raises a circular-import error.
    import importlib

    importlib.import_module("repro.probing")
    for entries in LAYERS.values():
        for module, _attr in entries:
            importlib.import_module(module)


class Tracer:
    """Folds wrapped calls into per-layer totals for one process."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = Path(span_dir)
        self.enabled = False
        self.worker = False
        self._stack: List[List[float]] = []
        self._self: Dict[str, float] = {}
        self._wall: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._reached: Dict[str, int] = {}
        self._bytes = 0
        self._writes = 0
        self._gc_pause = 0.0
        self._gc_count = 0
        self._gc_start: Optional[float] = None
        self._open_seq = 0

    # -- set-up -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` and hook the GC.

        Call once per process. The span stack is not thread-safe; no
        workload calls a wrapped function off its main thread.
        """
        _import_modules()
        for layer, entries in LAYERS.items():
            for module_name, path in entries:
                self._wrap(layer, module_name, path)
        gc.callbacks.append(self._on_gc)
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap(self, layer: str, module_name: str, path: str) -> None:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = self._span(layer, f"{module_name}.{path}", original)
        setattr(owner, attr, wrapper)
        if owner_name:
            return
        # Module-level functions are also bound by name in every module
        # that imported them: swap those bindings too.
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "") or ""
            if not name.startswith("repro") or other is module:
                continue
            if getattr(other, attr, None) is original:
                setattr(other, attr, wrapper)

    def _span(self, layer: str, key: str, fn: Callable) -> Callable:
        self._self.setdefault(layer, 0.0)
        self._wall.setdefault(layer, 0.0)
        self._calls.setdefault(layer, 0)
        self._reached[key] = 0
        data_arg = _WRITERS.get(fn.__name__)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if self.worker and not stack:
                self._mark_open()
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self._self[layer] += duration - frame[0]
                self._wall[layer] += duration
                self._calls[layer] += 1
                self._reached[key] += 1
                if data_arg is not None:
                    index, keyword = data_arg
                    self._count_write(
                        args[index] if len(args) > index else kwargs[keyword]
                    )
                if stack:
                    stack[-1][0] += duration
                elif self.worker:
                    self._flush()

        return wrapper

    def _count_write(self, data) -> None:
        self._writes += 1
        if isinstance(data, str):  # append_text_line adds a newline
            self._bytes += len(data.encode("utf-8")) + 1
        else:
            self._bytes += len(data)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self._gc_pause += time.perf_counter() - self._gc_start
            self._gc_count += 1
            self._gc_start = None

    # -- workers --------------------------------------------------------------

    def _after_fork(self) -> None:
        self.worker = True
        self._stack.clear()
        self._zero()

    def _zero(self) -> None:
        for layer in self._self:
            self._self[layer] = 0.0
            self._wall[layer] = 0.0
            self._calls[layer] = 0
        for key in self._reached:
            self._reached[key] = 0
        self._bytes = self._writes = self._gc_count = 0
        self._gc_pause = 0.0

    def _append(self, record: dict) -> None:
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def _mark_open(self) -> None:
        self._open_seq += 1
        self._append({"open": self._open_seq})

    def _flush(self) -> None:
        record = self._totals()
        record["close"] = self._open_seq
        self._append(record)
        self._zero()

    # -- results --------------------------------------------------------------

    def _totals(self) -> dict:
        return {
            "self_s": dict(self._self),
            "wall_s": dict(self._wall),
            "calls": dict(self._calls),
            "reached": dict(self._reached),
            "bytes_written": self._bytes,
            "writes": self._writes,
            "gc_pause_s": self._gc_pause,
            "gc_collections": self._gc_count,
        }

    def reset(self) -> None:
        """Zero the totals and drop span files of earlier runs."""
        self._zero()
        for path in self.span_dir.glob("spans-*.jsonl"):
            path.unlink()

    def collect(self) -> dict:
        """Parent totals plus every worker's flushed spans.

        ``lost_spans`` counts worker spans that opened but never
        closed: the worker was killed (or exited) inside them.
        """
        total = self._totals()
        lost = 0
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            opened = set()
            for line in path.read_text("utf-8").splitlines():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn by a kill; its span stays open
                if "open" in record:
                    opened.add(record["open"])
                    continue
                opened.discard(record["close"])
                _add_totals(total, record)
            lost += len(opened)
        total["lost_spans"] = lost
        return total


def _add_totals(total: dict, record: dict) -> None:
    for key in ("self_s", "wall_s", "calls", "reached"):
        for name, value in record[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for key in ("bytes_written", "writes", "gc_pause_s", "gc_collections"):
        total[key] += record[key]
