"""Unit execution: the service's bridge onto the probing substrate.

A unit task is an RR unit of
:func:`~repro.faults.supervisor.vp_attempt_body` with the unit's kind
appended:

    ``(key, label, vp_index, start, stop, slots, pps, attempt, kind)``

It names its VP by index into the payload's ``vps`` (every VP
:meth:`~repro.scenarios.internet.Scenario.vp_by_name` resolves) and
its targets as a hitlist slice, so tasks stay tiny on the pipe.
:func:`service_unit_body` runs an rr unit through ``vp_attempt_body``,
the body the survey and the campaign run, and a ping unit through
:func:`~repro.core.survey.ping_in_session` in session
``{vp}/service-ping``. One watchdog serves every scheduler round: in
this process for ``jobs=1`` without supervision, otherwise a
persistent pool kept warm across rounds, which is what a long-running
daemon wants (no per-round fork storm). Like the survey's pool it
forks with the first round's routing trees built and keeps each
ingress AS on one worker, and it brings the watchdog's hang/crash
recovery to every tenant for free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.survey import ping_in_session
from repro.faults.supervisor import (
    SupervisionConfig,
    WorkerWatchdog,
    vp_attempt_body,
    vp_attempt_payload,
)
from repro.probing.scheduler import ProbeOrder
from repro.scenarios.internet import Scenario
from repro.service.specs import PING_COUNT

__all__ = ["ServiceExecutor", "service_unit_body"]


def service_unit_body(state: dict, task: tuple, heartbeat=None) -> dict:
    """Execute one unit; returns the JSON-serialisable result payload
    that becomes the stream record's body. Deterministic per
    (scenario, seed, task) — see streams.py."""
    _key, _label, vp_index, start, stop, _slots, pps, _attempt, kind = task
    if kind == "rr":
        rows, inprefix, quality = vp_attempt_body(state, task, heartbeat)
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
    vp = state["vps"][vp_index]
    results = ping_in_session(
        state["scenario"], vp, f"{vp.name}/service-ping",
        state["targets"][start:stop],
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
        self._vps = scenario.all_vps
        self._vp_index = {vp.name: index for index, vp in enumerate(self._vps)}
        self._watchdog: Optional[WorkerWatchdog] = None

    # -- plumbing ----------------------------------------------------------

    def _pool(self) -> WorkerWatchdog:
        if self._watchdog is None:
            payload = vp_attempt_payload(
                list(self.scenario.hitlist), self._vps, ProbeOrder.RANDOM
            )
            self._watchdog = WorkerWatchdog(
                self.scenario,
                dict(payload, task_body=service_unit_body),
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

    def tasks(self, plan: List[tuple]) -> List[tuple]:
        """One unit task per planned ``(spec_state, unit_index)``, keyed
        by its position in ``plan``."""
        tasks = []
        for key, (state, unit_index) in enumerate(plan):
            spec = state.spec
            start = spec.target_offset
            tasks.append((
                key, f"{spec.label}#{unit_index}",
                self._vp_index[state.vp_names[unit_index]],
                start, start + spec.target_count,
                spec.slots, spec.pps, 1, spec.kind,
            ))
        return tasks

    def run(
        self, tasks: List[tuple]
    ) -> Dict[int, Tuple[Optional[dict], str, Optional[str]]]:
        """``{task_key: (payload_or_None, kind, error)}`` with ``kind``
        in ``{ok, failed, crash, hang}`` (the watchdog's vocabulary;
        in process only ``ok``/``failed`` occur)."""
        if not tasks:
            return {}
        return self._pool().run_tasks(tasks)
