"""Per-VP process fan-out for the RR measurements.

The paper's headline artifact is an all-VPs × all-prefixes ping-RR
campaign (§3.1). Its parallelism structure is exactly the one real
platforms exploit (each RIPE-Atlas/M-Lab vantage point paces and
probes independently): one VP's complete probe sequence shares no
*order-sensitive* state with any other VP's, so the survey shards
cleanly across worker processes with one VP per task.

Determinism contract (enforced by ``Network.begin_vp_session`` and
tested byte-for-byte in ``tests/test_parallel_survey.py``):

* each VP probes its destinations in its own seeded order
  (``order_destinations(seed, salt=vp.name)``);
* each VP's sequence runs against **fresh token buckets** (rate-limiter
  state is per-worker by design, matching the paper's independent-VP
  pacing) and a **per-VP loss stream** seeded from ``(seed, vp.name)``;
* everything else the dataplane walk touches — router policies, hosts,
  routing trees, forward-path expansions — is value-deterministic, so
  warm caches change speed, never results.

Under those rules every placement produces the same rows, and
``save_survey`` output is byte-identical for any ``jobs``.

One runner, one RR unit. :class:`~repro.faults.supervisor.WorkerWatchdog`
runs every fan-out in the repo at every ``jobs``; ``jobs`` only picks
where the tasks run. Processes are used only for ``jobs >= 2`` or
supervision: a ``jobs=1`` watchdog with no ``SupervisionConfig`` runs
the same task bodies in the calling process, so serial and pooled
runs share one code path. Every RR measurement is one task shape, VP
× target slice × attempt, run by
:func:`~repro.faults.supervisor.vp_attempt_body`: the RR survey
submits attempt 1 of each VP over the full target list with an empty
fault plan, the campaign adds faults and retries, and the service's
:func:`~repro.service.executor.service_unit_body` calls it for rr
units (and pings in session for ping units). The origin's ping survey
is not pooled: its :data:`~repro.core.survey.PING_SHARDS` shards run
in the calling process at every ``jobs``. A pooled watchdog folds each
task's metrics snapshot, options-load delta and spans back into the
parent in key order, so ``repro stats`` totals after a parallel survey
look exactly like a serial run's. A worker that dies or hangs is
reported, never waited on forever.

Warm fork, per-worker remainder. The one cache every task reads in
full is the routing-tree LRU: a VP's walk needs the tree of every
destination AS and, for the replies, of its own AS. Just before its
first fork the watchdog calls
:func:`~repro.faults.supervisor.warm_routing_trees` on the VPs and
target slices the first round's tasks name, so forked workers inherit
those trees copy-on-write instead of each recomputing all of them;
in-process runs never warm. What stays per worker is keyed by ingress
AS: AS trunks, segment plans, FlowPrograms and round-trip stamp plans.
To compile each of those once, the watchdog groups tasks by the ASN of
the VP each names and keeps each group on one worker: an idle worker
takes the next task of the group it last ran, else claims the largest
group no other worker holds, else steals from a held group so no
worker sits idle. Under the ``spawn`` start method workers rebuild the
scenario and start cold; results are the same either way, only slower.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.supervisor import WorkerWatchdog
from repro.scenarios.internet import Scenario

__all__ = ["SurveyWorkerError", "run_pooled_tasks"]


class SurveyWorkerError(RuntimeError):
    """A worker task failed, attributed to the unit of work that owned it.

    Names the task kind (always ``"rr"``: RR survey tasks are the only
    pooled survey tasks), the task index, and the owning VP, so a
    caller can retry or report the right vantage point.

    All constructor arguments are forwarded to ``RuntimeError`` so the
    exception round-trips through pickle (``BaseException`` pickles by
    re-calling ``__init__(*args)``).
    """

    def __init__(
        self, task_kind: str, index: int, name: str, message: str
    ) -> None:
        super().__init__(task_kind, index, name, message)
        self.task_kind = task_kind
        self.index = index
        self.name = name
        self.message = message

    def __str__(self) -> str:
        return (
            f"{self.task_kind} worker task {self.index} "
            f"({self.name}) failed: {self.message}"
        )


def run_pooled_tasks(
    scenario: Scenario,
    payload: dict,
    tasks: Sequence[tuple],
    jobs: int,
) -> List:
    """Run ``(index, label, ...)`` RR unit tasks at ``jobs`` (1: in
    process).

    ``payload`` carries the ``task_body`` and the state it reads; a
    pool runs on :class:`~repro.faults.supervisor.SupervisionConfig`
    defaults.
    Returns each task's rows in index order. Raises
    :class:`SurveyWorkerError` for the first task, in index order,
    that did not end ``ok``: the body raised, or its worker died or
    hung.
    """
    tasks = list(tasks)
    with WorkerWatchdog(scenario, payload, jobs) as pool:
        outcomes = pool.run_tasks(tasks)
    results = []
    for index, label in sorted(task[:2] for task in tasks):
        rows, outcome, error = outcomes[index]
        if outcome != "ok":
            raise SurveyWorkerError("rr", index, label, error)
        results.append(rows)
    return results
