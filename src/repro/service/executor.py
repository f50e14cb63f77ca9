"""Unit execution: the service's bridge onto the probing substrate.

A unit task is a picklable tuple

    ``(key, label, vp_name, kind, target_offset, target_count,
       slots, pps)``

interpreted by :func:`service_unit_body` — the generic ``task_body``
the generalized :class:`~repro.faults.supervisor.WorkerWatchdog`
runs: resolve the VP and hitlist slice worker-side (both are fixed by
the scenario, so tasks stay tiny on the pipe), then run the exact
deterministic per-VP probe session the survey engine uses. ``jobs=1``
runs the same body in-process; ``jobs>=2`` keeps a persistent
supervised pool warm across scheduler rounds, which is what a
long-running daemon wants (no per-round fork storm) and brings the
watchdog's hang/crash recovery to every tenant for free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.survey import probe_vp_rr
from repro.faults.supervisor import (
    SupervisionConfig,
    WorkerWatchdog,
    run_tasks_inline,
)
from repro.probing.scheduler import ProbeOrder
from repro.scenarios.internet import Scenario
from repro.service.specs import PING_COUNT

__all__ = ["ServiceExecutor", "make_unit_task", "service_unit_body"]


def make_unit_task(
    key: int,
    label: str,
    vp_name: str,
    kind: str,
    target_offset: int,
    target_count: int,
    slots: int,
    pps: float,
) -> tuple:
    return (key, label, vp_name, kind, target_offset, target_count,
            slots, pps)


def service_unit_body(state: dict, task: tuple, heartbeat=None) -> dict:
    """Execute one unit against ``state['scenario']``; returns the
    JSON-serialisable result payload that becomes the stream record's
    body. Deterministic per (scenario, seed, task) — see streams.py."""
    scenario: Scenario = state["scenario"]
    _key, _label, vp_name, kind, offset, count, slots, pps = task
    vp = scenario.vp_by_name(vp_name)
    targets = list(scenario.hitlist)[offset : offset + count]
    if kind == "rr":
        position = {dest.addr: i for i, dest in enumerate(targets)}
        rows, inprefix, quality = probe_vp_rr(
            scenario,
            vp,
            targets,
            position,
            order=ProbeOrder.RANDOM,
            slots=slots,
            pps=pps,
            heartbeat=heartbeat,
        )
        return {
            "rows": [[index, slot] for index, slot in rows],
            "inprefix": [
                [index, list(addrs)] for index, addrs in inprefix
            ],
            "quality": {
                "checked": quality["checked"],
                "verdicts": quality["verdicts"],
                "reasons": quality["reasons"],
                "invalid_dests": quality["invalid_dests"],
                "quarantined": len(quality["quarantined"]),
                "degraded": len(quality["degraded"]),
            },
        }
    network = scenario.network
    # Ping units get their own session namespace so a tenant's ping
    # spec and an rr spec on the same VP draw independent (but each
    # deterministic) loss streams.
    network.begin_vp_session(f"{vp.name}/service-ping")
    try:
        results = scenario.prober.probe_batch_ping(
            vp, targets, count=PING_COUNT, pps=pps, heartbeat=heartbeat
        )
    finally:
        network.end_vp_session()
    return {
        "rows": [
            [index, bool(result.responded)]
            for index, result in enumerate(results)
        ],
    }


class ServiceExecutor:
    """Runs one round's unit tasks, serially or on the watchdog pool."""

    def __init__(
        self,
        scenario: Scenario,
        jobs: int = 1,
        supervision: Optional[SupervisionConfig] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be positive: {jobs}")
        self.scenario = scenario
        self.jobs = int(jobs)
        self.supervision = supervision or SupervisionConfig()
        self._watchdog: Optional[WorkerWatchdog] = None

    # -- plumbing ----------------------------------------------------------

    def _pool(self) -> WorkerWatchdog:
        if self._watchdog is None:
            self._watchdog = WorkerWatchdog(
                self.scenario,
                {"task_body": service_unit_body},
                self.jobs,
                self.supervision,
            )
        return self._watchdog

    @property
    def watchdog(self) -> Optional[WorkerWatchdog]:
        return self._watchdog

    def close(self) -> None:
        if self._watchdog is not None:
            self._watchdog.close()
            self._watchdog = None

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def run(
        self, tasks: List[tuple]
    ) -> Dict[int, Tuple[Optional[dict], str, Optional[str]]]:
        """``{task_key: (payload_or_None, kind, error)}`` with ``kind``
        in ``{ok, failed, crash, hang}`` (the watchdog's vocabulary;
        the serial path can only produce ``ok``/``failed``)."""
        if not tasks:
            return {}
        if self.jobs == 1:
            return run_tasks_inline(
                service_unit_body, {"scenario": self.scenario}, tasks
            )
        return self._pool().run_tasks(tasks)
