"""Unit execution: the service's bridge onto the probing substrate.

A unit task is a picklable tuple

    ``(key, label, vp_name, kind, target_offset, target_count,
       slots, pps)``

interpreted by :func:`service_unit_body`, one of the three task
bodies :class:`~repro.faults.supervisor.WorkerWatchdog` runs: resolve
the VP and hitlist slice where the task runs (both are fixed by the
scenario, so tasks stay tiny on the pipe), then run the exact
deterministic probe session the survey engine uses — an rr unit is
:func:`~repro.core.survey.probe_vp_rr`, a ping unit is
:func:`~repro.core.survey.ping_in_session` in session
``{vp}/service-ping``. One watchdog serves every scheduler round:
in this process for ``jobs=1`` without supervision, otherwise a
persistent pool kept warm across rounds, which is what a
long-running daemon wants (no per-round fork storm) and brings the
watchdog's hang/crash recovery to every tenant for free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.survey import ping_in_session, probe_vp_rr
from repro.faults.supervisor import SupervisionConfig, WorkerWatchdog
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
    # Ping units get their own session namespace so a tenant's ping
    # spec and an rr spec on the same VP draw independent (but each
    # deterministic) loss streams.
    results = ping_in_session(
        scenario, vp, f"{vp.name}/service-ping", targets,
        count=PING_COUNT, pps=pps, heartbeat=heartbeat,
    )
    return {
        "rows": [
            [index, bool(result.responded)]
            for index, result in enumerate(results)
        ],
    }


class ServiceExecutor:
    """Runs each round's unit tasks on one watchdog (see module doc)."""

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
        self.supervision = supervision
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
        in process only ``ok``/``failed`` occur)."""
        if not tasks:
            return {}
        return self._pool().run_tasks(tasks)
