"""The process pool and its supervision.

Every pooled fan-out in the repo (the survey studies, campaign rounds,
service units) runs on :class:`WorkerWatchdog`. The campaign runner
retries *failures* — tasks that die with an exception. Real
measurement platforms face two nastier pathologies ("A Day in the
Life of RIPE Atlas"): workers that *wedge* — still alive, never
progressing — and vantage points that fail the same way every time,
burning the retry budget round after round. This module adds the
missing supervision:

* **Heartbeats** — :func:`~repro.core.survey.probe_vp_rr` calls a
  heartbeat hook once per destination; the worker stores the
  destination count in a per-worker shared slot
  (``multiprocessing.Value``) and, at the first and every
  :data:`~repro.obs.journal.JOURNAL_PROGRESS_EVERY`-th destination,
  the monotonic clock in a second slot beside it. The hot loop pays
  one 8-byte store per destination, nothing more.
* **:class:`WorkerWatchdog`** — a persistent pool of worker processes,
  one duplex pipe each. The parent multiplexes results with
  ``multiprocessing.connection.wait`` and, on every poll, scans
  heartbeat ages: a busy worker silent for longer than
  ``hang_timeout`` is killed and respawned, its task re-queued up to a
  per-task try budget. A worker that dies outright (its pipe hits EOF
  mid-task) is treated the same way. Either way the doomed attempt
  contributes *nothing* — no rows, no metrics — so the engine's
  byte-parity contract survives supervision untouched.
* **:class:`CircuitBreaker` / :class:`VpHealthTracker`** — per-VP
  health accounting in the parent. A VP whose recent attempts fail at
  ``breaker_threshold`` over a full ``breaker_window`` trips its
  breaker open; open breakers skip ``breaker_cooldown_rounds`` retry
  rounds, then half-open for one probe attempt (success → closed,
  failure → open again). A VP that hangs or crashes
  ``quarantine_after`` times is *quarantined*: dropped from the
  campaign with a machine-readable reason in the manifest instead of
  stalling it. All decisions are pure functions of the seed and the
  event order — rounds process VPs in index order — so
  ``jobs ∈ {1, 2, 4}`` byte-parity holds for every non-quarantined VP.

Fault injection hooks: :class:`~repro.faults.specs.VpHang` and
:class:`~repro.faults.specs.VpCrash` specs are realised here —
:func:`run_vp_attempt` wraps the heartbeat callback so the task
wedges (stops heartbeating, then sleeps) or raises after the
configured number of destinations. Unsupervised contexts set
``allow_hang=False`` and receive an immediate :class:`InjectedHang`
failure instead of an actual stall.

Everything observable lands in the metrics registry
(``supervisor_*`` families below) and surfaces in
``repro stats --health``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from multiprocessing.connection import wait as _mp_wait
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.survey import VPRows, probe_vp_rr
from repro.faults.injector import FaultInjector
from repro.faults.specs import FaultPlan, VpCrash, VpHang
from repro.obs.journal import (
    DEFAULT_JOURNAL_CAPACITY,
    JOURNAL_PROGRESS_EVERY,
    FlightRecorder,
)
from repro.obs.metrics import (
    CounterFamily,
    HistogramFamily,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.spans import TRACER
from repro.scenarios.internet import Scenario, build_scenario

__all__ = [
    "SupervisionConfig",
    "CircuitBreaker",
    "VpHealth",
    "VpHealthTracker",
    "WorkerWatchdog",
    "InjectedHang",
    "InjectedCrash",
    "run_tasks_inline",
    "run_vp_attempt",
    "vp_attempt_body",
    "warm_routing_trees",
    "supervisor_hang_counter",
    "supervisor_crash_counter",
    "supervisor_respawn_counter",
    "supervisor_quarantine_counter",
    "breaker_transition_counter",
    "breaker_skip_counter",
    "heartbeat_age_histogram",
]


# ---------------------------------------------------------------------------
# Metric families (idempotently registered, shared with the CLI).
# ---------------------------------------------------------------------------


def supervisor_hang_counter(registry: MetricsRegistry) -> CounterFamily:
    """``supervisor_hangs_total{net}`` — hung tasks the watchdog killed."""
    return registry.counter(
        "supervisor_hangs_total",
        "Worker tasks killed for missing their heartbeat deadline.",
        ("net",),
    )


def supervisor_crash_counter(registry: MetricsRegistry) -> CounterFamily:
    """``supervisor_worker_crashes_total{net}`` — workers that died."""
    return registry.counter(
        "supervisor_worker_crashes_total",
        "Worker processes that died mid-task (pipe EOF).",
        ("net",),
    )


def supervisor_respawn_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "supervisor_respawns_total",
        "Worker processes respawned by the watchdog.",
        ("net",),
    )


def supervisor_quarantine_counter(
    registry: MetricsRegistry,
) -> CounterFamily:
    return registry.counter(
        "supervisor_quarantines_total",
        "Vantage points quarantined as poison, by failure kind.",
        ("net", "kind"),
    )


def breaker_transition_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "supervisor_breaker_transitions_total",
        "Per-VP circuit-breaker state transitions, by destination state.",
        ("net", "to"),
    )


def breaker_skip_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "supervisor_breaker_skips_total",
        "Attempts skipped because a VP's circuit breaker was open.",
        ("net",),
    )


def heartbeat_age_histogram(registry: MetricsRegistry) -> HistogramFamily:
    """``supervisor_heartbeat_age_seconds{net}`` — observed at each
    watchdog poll for every busy worker."""
    return registry.histogram(
        "supervisor_heartbeat_age_seconds",
        "Age of busy workers' most recent heartbeat at watchdog polls.",
        ("net",),
        buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0),
    )


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisionConfig:
    """Tuning knobs for the watchdog, quarantine, and breaker.

    ``hang_timeout`` is the no-heartbeat deadline after which a busy
    worker is presumed wedged; ``task_tries`` is the per-task budget of
    watchdog-level tries (kill/respawn/re-queue cycles) before the
    task is reported hung/crashed for the round; ``quarantine_after``
    is the K of poison-VP quarantine (total hang+crash+garbage
    attempts). ``garbage_ratio`` is the fraction of a VP's validated
    replies that may be *invalid* before the whole attempt is treated
    as garbage (a RIPE-Atlas-style zombie probe) and fed to the
    breaker/quarantine machinery like a crash.
    """

    hang_timeout: float = 30.0
    poll_interval: float = 0.05
    task_tries: int = 2
    quarantine_after: int = 3
    breaker_window: int = 4
    breaker_threshold: float = 0.75
    breaker_cooldown_rounds: int = 1
    garbage_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be positive: {self.hang_timeout}"
            )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive: {self.poll_interval}"
            )
        if self.task_tries < 1:
            raise ValueError(f"task_tries must be >= 1: {self.task_tries}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1: {self.quarantine_after}"
            )
        if self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1: {self.breaker_window}"
            )
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                "breaker_threshold must be in (0, 1]: "
                f"{self.breaker_threshold}"
            )
        if self.breaker_cooldown_rounds < 1:
            raise ValueError(
                "breaker_cooldown_rounds must be >= 1: "
                f"{self.breaker_cooldown_rounds}"
            )
        if not 0.0 < self.garbage_ratio <= 1.0:
            raise ValueError(
                f"garbage_ratio must be in (0, 1]: {self.garbage_ratio}"
            )


# ---------------------------------------------------------------------------
# Injected pathologies (realised from VpHang / VpCrash specs).
# ---------------------------------------------------------------------------


class InjectedHang(RuntimeError):
    """An injected hang surfaced as a failure (unsupervised context, or
    a hang that outlived the watchdog)."""


class InjectedCrash(RuntimeError):
    """An injected worker crash (``VpCrash``): under supervision the
    worker process dies; unsupervised it is an ordinary task failure."""


class _FaultingHeartbeat:
    """Heartbeat wrapper that realises VpHang/VpCrash mid-session.

    Counts destinations; when the count reaches the spec's
    ``after_targets`` the task wedges (stops forwarding heartbeats,
    sleeps) or raises. The wedge happens *before* the inner heartbeat
    fires, so the watchdog sees the silence immediately.
    """

    __slots__ = ("inner", "hang", "crash", "allow_hang", "count")

    def __init__(
        self,
        inner: Optional[Callable[[], None]],
        hang: Optional[VpHang],
        crash: Optional[VpCrash],
        allow_hang: bool,
    ) -> None:
        self.inner = inner
        self.hang = hang
        self.crash = crash
        self.allow_hang = allow_hang
        self.count = 0

    def __call__(self) -> None:
        if self.crash is not None and self.count == self.crash.after_targets:
            raise InjectedCrash(
                f"injected crash after {self.count} destination(s)"
            )
        if self.hang is not None and self.count == self.hang.after_targets:
            if self.allow_hang:
                # Wedge: no heartbeat, no progress. The watchdog kills
                # this process long before the sleep elapses; if no
                # watchdog is listening the sleep bounds the damage and
                # the hang degrades into a failure.
                time.sleep(self.hang.hang_seconds)
            raise InjectedHang(
                f"injected hang after {self.count} destination(s)"
            )
        self.count += 1
        if self.inner is not None:
            self.inner()


def run_vp_attempt(
    scenario,
    vp,
    attempt: int,
    plan: Optional[FaultPlan],
    targets,
    position,
    order,
    slots: int,
    pps: float,
    horizon: float,
    heartbeat: Optional[Callable[[], None]] = None,
    allow_hang: bool = True,
) -> VPRows:
    """One VP campaign attempt with faults (incl. hang/crash) injected.

    What :func:`vp_attempt_body` runs, in-process or in a worker:
    attaches the fault injector for the session, arms VpHang/VpCrash
    specs that apply to ``(vp, attempt)``, and runs the full probe
    sequence. Callers own metrics isolation (registry reset/snapshot).

    ``allow_hang=False`` converts an armed hang into an immediate
    :class:`InjectedHang` — the honest stand-in for "stuck forever" in
    contexts with no watchdog to recover the worker.
    """
    network = scenario.network
    with TRACER.span(
        "vp_attempt", clock=network.clock, vp=vp.name, attempt=attempt
    ):
        injector: Optional[FaultInjector] = None
        if plan is not None and not plan.is_empty:
            injector = FaultInjector(network, plan, horizon=horizon)
            # Non-sticky misbehavior re-rolls per campaign attempt as
            # well as per intra-attempt validation round.
            injector.attempt = attempt
            network.attach_injector(injector)
        beat: Optional[Callable[[], None]] = heartbeat
        if plan is not None:
            hang = plan.hang_profile(vp.name, attempt)
            crash = plan.crash_profile(vp.name, attempt)
            if hang is not None or crash is not None:
                beat = _FaultingHeartbeat(
                    heartbeat, hang, crash, allow_hang
                )
        try:
            return probe_vp_rr(
                scenario,
                vp,
                targets,
                position,
                order=order,
                slots=slots,
                pps=pps,
                heartbeat=beat,
            )
        finally:
            if injector is not None:
                network.detach_injector()


# ---------------------------------------------------------------------------
# Circuit breaker + per-VP health.
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Per-VP failure-rate breaker: closed → open → half-open → closed.

    Pure event machine — no clocks, no randomness — so its behaviour
    is a function of the attempt-outcome sequence alone:

    * **closed**: outcomes feed a sliding window of the last
      ``window`` attempts; once the window is full and the failure
      fraction reaches ``threshold``, the breaker opens.
    * **open**: the VP is skipped; each skipped retry round burns one
      unit of ``cooldown_rounds``; at zero the breaker half-opens.
    * **half-open**: exactly one probe attempt is admitted. Success
      closes the breaker (window cleared — the VP re-earns its
      history); failure re-opens it with a fresh cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("window", "threshold", "cooldown_rounds", "state",
                 "_events", "_cooldown_left")

    def __init__(
        self, window: int, threshold: float, cooldown_rounds: int
    ) -> None:
        self.window = int(window)
        self.threshold = float(threshold)
        self.cooldown_rounds = int(cooldown_rounds)
        self.state = self.CLOSED
        self._events: deque = deque(maxlen=self.window)
        self._cooldown_left = 0

    def allows(self) -> bool:
        """May the VP attempt this round? (Open breakers say no.)"""
        return self.state != self.OPEN

    def start_round(self) -> Optional[str]:
        """Advance cooldown at a retry-round boundary.

        Returns the new state if a transition happened (``half_open``),
        else ``None``.
        """
        if self.state != self.OPEN:
            return None
        self._cooldown_left -= 1
        if self._cooldown_left > 0:
            return None
        self.state = self.HALF_OPEN
        return self.HALF_OPEN

    def record(self, success: bool) -> Optional[str]:
        """Feed one attempt outcome; returns the new state on
        transition (``open`` / ``closed``), else ``None``."""
        if self.state == self.HALF_OPEN:
            if success:
                self.state = self.CLOSED
                self._events.clear()
                return self.CLOSED
            self.state = self.OPEN
            self._cooldown_left = self.cooldown_rounds
            return self.OPEN
        self._events.append(bool(success))
        if self.state == self.CLOSED and len(self._events) == self.window:
            failures = sum(1 for ok in self._events if not ok)
            if failures / self.window >= self.threshold:
                self.state = self.OPEN
                self._cooldown_left = self.cooldown_rounds
                return self.OPEN
        return None


@dataclass
class VpHealth:
    """One VP's supervision record."""

    ok: int = 0
    failed: int = 0
    crashes: int = 0
    hangs: int = 0
    garbage: int = 0
    breaker: Optional[CircuitBreaker] = None

    @property
    def poison_events(self) -> int:
        return self.crashes + self.hangs + self.garbage


class VpHealthTracker:
    """Parent-side per-VP health: quarantine decisions + breakers.

    Deterministic by construction: the campaign feeds outcomes in VP
    index order and consults the tracker at fixed points (round start,
    pre-dispatch, post-outcome), so the set of quarantined VPs and
    every breaker state is a function of the seed and event order —
    never of worker scheduling.
    """

    def __init__(
        self,
        config: SupervisionConfig,
        net_id: str,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.net_id = net_id
        registry = REGISTRY if registry is None else registry
        self._records: Dict[str, VpHealth] = {}
        self.quarantined: Dict[str, dict] = {}
        self._quarantine_counter = supervisor_quarantine_counter(registry)
        self._transitions = breaker_transition_counter(registry)
        self._skips = breaker_skip_counter(registry).labels(net_id)

    def health(self, name: str) -> VpHealth:
        record = self._records.get(name)
        if record is None:
            record = VpHealth(
                breaker=CircuitBreaker(
                    self.config.breaker_window,
                    self.config.breaker_threshold,
                    self.config.breaker_cooldown_rounds,
                )
            )
            self._records[name] = record
        return record

    # -- round hooks -------------------------------------------------------

    def start_round(self) -> None:
        """Advance every open breaker's cooldown (retry rounds only)."""
        for name in sorted(self._records):
            transition = self._records[name].breaker.start_round()
            if transition is not None:
                self._transitions.labels(self.net_id, transition).inc()

    def allows(self, name: str) -> bool:
        """Gate one attempt; counts a breaker skip when denied."""
        if name in self.quarantined:
            return False
        if not self.health(name).breaker.allows():
            self._skips.inc()
            return False
        return True

    # -- outcomes ----------------------------------------------------------

    def record(self, name: str, kind: str) -> Optional[dict]:
        """Feed one attempt outcome (``ok``/``failed``/``crash``/
        ``hang``/``garbage``); returns a quarantine reason dict if this
        outcome pushed the VP over the threshold, else ``None``.

        ``garbage`` is the validation layer's verdict — the attempt
        completed but too many of its replies were structurally
        invalid. It is poison like a crash or a hang: it feeds the
        breaker as a failure and counts toward quarantine.
        """
        record = self.health(name)
        if kind == "ok":
            record.ok += 1
        elif kind == "failed":
            record.failed += 1
        elif kind == "crash":
            record.crashes += 1
        elif kind == "hang":
            record.hangs += 1
        elif kind == "garbage":
            record.garbage += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown outcome kind: {kind!r}")
        transition = record.breaker.record(kind == "ok")
        if transition is not None:
            self._transitions.labels(self.net_id, transition).inc()
        if (
            kind in ("crash", "hang", "garbage")
            and name not in self.quarantined
            and record.poison_events >= self.config.quarantine_after
        ):
            return self._quarantine(name, record)
        return None

    def _quarantine(self, name: str, record: VpHealth) -> dict:
        kinds = [
            label
            for label, count in (
                ("hang", record.hangs),
                ("crash", record.crashes),
                ("garbage", record.garbage),
            )
            if count
        ]
        kind = kinds[0] if len(kinds) == 1 else "mixed"
        reason = {
            "vp": name,
            "kind": kind,
            "hangs": record.hangs,
            "crashes": record.crashes,
            "garbage": record.garbage,
            "failed": record.failed,
            "threshold": self.config.quarantine_after,
            "reason": (
                f"poison VP: {record.hangs} hang(s) + "
                f"{record.crashes} crash(es) + "
                f"{record.garbage} garbage attempt(s) reached the "
                f"quarantine threshold of {self.config.quarantine_after}"
            ),
        }
        self.quarantined[name] = reason
        self._quarantine_counter.labels(self.net_id, kind).inc()
        return reason

    # -- reporting ---------------------------------------------------------

    def breaker_states(self) -> Dict[str, str]:
        """``{vp: state}`` for every breaker not in the closed state."""
        return {
            name: record.breaker.state
            for name, record in sorted(self._records.items())
            if record.breaker.state != CircuitBreaker.CLOSED
        }


# ---------------------------------------------------------------------------
# Worker-side state and the worker loop.
#
# ``_PARENT_SCENARIO`` is the fork-inheritance handoff: the parent sets
# it while it starts a worker; forked children see it and reuse the
# inherited (copy-on-write) scenario. Spawned children re-import this
# module, find it ``None``, and rebuild from the pickled params.
# ---------------------------------------------------------------------------

_PARENT_SCENARIO: Optional[Scenario] = None

#: Exit status a worker uses for an injected crash (distinguishable
#: from Python tracebacks' status 1 in logs; the parent treats any
#: death the same).
_CRASH_EXIT_STATUS = 13


def warm_routing_trees(
    scenario: Scenario, dests: Iterable, sources: Iterable
) -> None:
    """Build the routing trees a fan-out over ``dests`` will read.

    Probes from ``sources`` (VPs, or the origin) read the tree of each
    destination's AS on the way out and the tree of their own AS on
    the way back. Sources go first, so a set larger than the tree
    LRU's capacity keeps the trees every task shares. Call it before
    the pool forks; trees are value-deterministic, so warming changes
    speed, never results.
    """
    asns = dict.fromkeys(source.asn for source in sources)
    asns.update(dict.fromkeys(dest.asn for dest in dests))
    routing = scenario.network.routing
    for asn in islice(asns, routing.cache_size):
        routing.routing_tree(asn)


def _init_worker(payload: dict) -> dict:
    """The state every task body reads: ``payload`` plus the scenario."""
    scenario = _PARENT_SCENARIO
    if scenario is None:
        scenario = build_scenario(payload["params"])
    # Span tracing follows the parent's setting explicitly: forked
    # workers inherit the parent tracer's flag, spawned workers start
    # disabled — the payload key makes both behave the same.
    TRACER.configure(bool(payload["spans"]))
    # The batched-dataplane switch rides along the same way, so a
    # legacy-mode parent benchmarks legacy workers (and parity runs
    # compare like against like). Workers compile their own plans.
    scenario.prober.batching = bool(payload["batch"])
    return dict(payload, scenario=scenario)


def _compact_snapshot(snapshot: Dict[str, dict]) -> Dict[str, dict]:
    """Prune a worker snapshot before shipping it to the parent.

    Zero-valued series carry no information; gauges are process-local
    levels (cache sizes of a throwaway worker) whose last-write-wins
    merge semantics would stomp the parent's own values, so workers
    never ship them.
    """
    out: Dict[str, dict] = {}
    for name, family in snapshot.items():
        if family["type"] == "gauge":
            continue
        if family["type"] == "histogram":
            series = [s for s in family["series"] if s["count"]]
        else:
            series = [s for s in family["series"] if s["value"]]
        if series:
            out[name] = dict(family, series=series)
    return out


def vp_attempt_body(
    state: dict, task: tuple, heartbeat: Optional[Callable[[], None]] = None
) -> VPRows:
    """The campaign's task body: one attempt of one VP.

    ``task`` is ``(vp_index, vp_name, attempt)``. Under supervision
    (``state['supervised']``) an injected hang really wedges and an
    injected crash really kills the worker: it does not get to report
    its own death, the pipe EOF *is* the report, exactly as for a real
    segfault. Unsupervised, both are ordinary failures
    (``allow_hang=False``), which the campaign retries.
    """
    vp_index, _label, attempt = task
    supervised = state["supervised"]
    try:
        return run_vp_attempt(
            state["scenario"],
            state["vps"][vp_index],
            attempt,
            state["plan"],
            state["targets"],
            state["position"],
            state["order"],
            state["slots"],
            state["pps"],
            state["horizon"],
            heartbeat=heartbeat,
            allow_hang=supervised,
        )
    except InjectedCrash:
        if not supervised:
            raise
        os._exit(_CRASH_EXIT_STATUS)


def run_tasks_inline(
    body: Callable, state: dict, tasks: List[tuple]
) -> Dict[object, Tuple[object, str, Optional[str]]]:
    """Run ``tasks`` through ``body`` in this process.

    The in-process counterpart of :meth:`WorkerWatchdog.run_tasks`,
    with the same ``{key: (rows_or_None, kind, error_or_None)}``
    result; ``kind`` can only be ``ok`` or ``failed`` here. Telemetry
    lands in the parent registry directly.
    """
    outcomes: Dict[object, Tuple[object, str, Optional[str]]] = {}
    for task in tasks:
        try:
            outcomes[task[0]] = (body(state, task), "ok", None)
        except Exception as exc:  # noqa: BLE001 — the caller retries
            outcomes[task[0]] = (
                None, "failed", f"{type(exc).__name__}: {exc}"
            )
    return outcomes


def _worker_main(payload, conn, heartbeat_value, progress_value) -> None:
    """Long-lived worker loop: recv task, run the body, send result.

    Every task is a tuple ``(key, label, ...)`` that the payload's
    ``task_body(state, task, heartbeat) -> rows`` interprets; every
    result is ``(key, rows, snapshot, options_load, error, spans,
    journal)``.

    The heartbeat slot is bumped when a task is picked up, at the
    first and every :data:`~repro.obs.journal.JOURNAL_PROGRESS_EVERY`-th
    destination during the probe (via the body's heartbeat hook), and
    once more just before the (potentially large) result send — so a
    worker blocked handing bytes to a busy parent is never mistaken
    for a hung one. The progress slot beside it holds the task's
    destination count, updated per destination, so the parent knows
    how far a worker got even when it has to kill it.

    Flight recording: task start, first destination, every
    :data:`~repro.obs.journal.JOURNAL_PROGRESS_EVERY`-th destination,
    and task end are journalled into a :class:`FlightRecorder`. Task
    start and first destination are flushed at once as tagged
    ``("journal", key, events)`` messages, so the parent holds them
    before a worker can wedge; the rest ride home with the result and
    never wake the parent mid-task.
    """
    state = _init_worker(payload)
    scenario = state["scenario"]
    body = state["task_body"]
    recorder = FlightRecorder()
    flushed_seq = 0
    clock = time.monotonic

    def flush_journal(key) -> None:
        nonlocal flushed_seq
        try:
            conn.send(("journal", key, recorder.since(flushed_seq)))
        except OSError:  # pragma: no cover - parent gone
            return  # the recv below will notice
        flushed_seq = recorder.last_seq

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        if task is None:  # orderly shutdown
            conn.close()
            return
        key, label = task[0], str(task[1])
        heartbeat_value.value = clock()
        progress_value.value = 0
        REGISTRY.reset()
        TRACER.reset()
        scenario.network.options_load.clear()
        recorder.record("task_start", vp=label, vp_index=key)
        flush_journal(key)
        destinations = 0

        def task_beat() -> None:
            nonlocal destinations
            destinations += 1
            progress_value.value = destinations
            if destinations == 1:
                recorder.record("first_destination", vp=label)
                flush_journal(key)
            elif destinations % JOURNAL_PROGRESS_EVERY:
                return
            else:
                recorder.record(
                    "progress", vp=label, destinations=destinations
                )
            # The clock is read with each journal event, not per
            # destination: a read per destination costs a measurable
            # share of a warm replay.
            heartbeat_value.value = clock()

        error: Optional[str] = None
        rows = None
        try:
            rows = body(state, task, task_beat)
        except Exception as exc:  # noqa: BLE001 — shipped to the parent
            error = f"{type(exc).__name__}: {exc}"
        recorder.record(
            "task_end",
            vp=label,
            status="failed" if error else "ok",
            error=error,
            destinations=destinations,
        )
        heartbeat_value.value = clock()  # about to block in send
        conn.send(
            (
                key,
                rows,
                _compact_snapshot(REGISTRY.snapshot()),
                dict(scenario.network.options_load),
                error,
                TRACER.snapshot(),
                recorder.since(flushed_seq),
            )
        )
        flushed_seq = recorder.last_seq


class _WorkerHandle:
    """Parent-side bookkeeping for one supervised worker process."""

    __slots__ = ("process", "conn", "heartbeat", "progress", "task",
                 "tries", "group")

    def __init__(self, process, conn, heartbeat, progress) -> None:
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.progress = progress  # destinations done in current task
        self.task: Optional[tuple] = None  # (key, label, ...)
        self.tries = 0  # watchdog-level tries consumed by current task
        self.group: object = None  # affinity group of the last task


class _AffinityQueue:
    """Queued tasks, grouped by affinity, each group in submission order.

    ``affinity`` maps a task key to its group (the pooled surveys and
    the campaign use the VP's ASN, the key of the per-worker plan
    caches); a key it does not map is a group of its own, which makes
    the queue plain FIFO.
    """

    def __init__(self, tasks: List[tuple], affinity: Dict) -> None:
        self._affinity = affinity
        self._groups: Dict[object, deque] = {}
        for task in tasks:
            self._groups.setdefault(self._group_of(task), deque()).append(
                task
            )

    def __bool__(self) -> bool:
        return bool(self._groups)

    def _group_of(self, task: tuple) -> object:
        return self._affinity.get(task[0], task[0])

    def pop(self, last: object, held: set) -> Tuple[tuple, object]:
        """``(task, group)`` for a worker that last ran group ``last``
        while other workers hold the groups in ``held``.

        The worker stays on ``last`` while it has queued tasks, else
        claims the largest group nobody holds (ties go to the earliest
        submitted), else steals from the largest held group, so no
        worker sits idle while tasks are queued.
        """
        groups = self._groups
        if last not in groups:
            free = [group for group in groups if group not in held]
            last = max(free or groups, key=lambda group: len(groups[group]))
        queue = groups[last]
        task = queue.popleft()
        if not queue:
            del groups[last]
        return task, last

    def push_front(self, task: tuple) -> None:
        """Put back a task that could not be sent."""
        self._groups.setdefault(self._group_of(task), deque()).appendleft(
            task
        )


class WorkerWatchdog:
    """The process pool: heartbeat monitoring, kill/respawn, re-queue.

    One instance persists across a caller's rounds (workers stay
    warm); :meth:`run_tasks` executes one round of ``(key, label,
    ...)`` tasks through the payload's ``task_body`` and reports
    ``{key: (rows_or_None, kind, error_or_None)}`` with ``kind`` one of
    ``ok`` / ``failed`` / ``crash`` / ``hang``.

    Dispatch follows ``payload["affinity"]`` (task key → group, see
    :class:`_AffinityQueue`): each worker keeps to one group while it
    has queued tasks, so per-worker caches keyed by the group are
    built once. Without the map, tasks go out in submission order.

    Telemetry (metrics snapshots, per-AS options load, spans) from
    *successful and failed* attempts is merged into the parent in key
    order, independent of completion order. Killed attempts ship
    nothing.
    """

    def __init__(
        self,
        scenario,
        payload: dict,
        jobs: int,
        config: SupervisionConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        import multiprocessing

        if jobs < 1:
            raise ValueError(f"jobs must be positive: {jobs}")
        self.scenario = scenario
        self.payload = dict(
            payload,
            params=scenario.params,
            spans=TRACER.enabled,
            batch=scenario.prober.batching,
        )
        self.jobs = int(jobs)
        self.config = config
        self._ctx = multiprocessing.get_context()
        registry = REGISTRY if registry is None else registry
        self._registry = registry
        net_id = scenario.network.net_id
        self._hangs = supervisor_hang_counter(registry).labels(net_id)
        self._crashes = supervisor_crash_counter(registry).labels(net_id)
        self._respawns = supervisor_respawn_counter(registry).labels(net_id)
        self._hb_ages = heartbeat_age_histogram(registry).labels(net_id)
        self._workers: List[_WorkerHandle] = []
        self.hangs_detected = 0
        self.workers_respawned = 0
        #: Per-task flight-recorder mirror: the last
        #: :data:`~repro.obs.journal.DEFAULT_JOURNAL_CAPACITY` journal
        #: events each task key's workers sent home, plus synthetic
        #: ``watchdog_kill`` entries the parent adds when it kills a
        #: worker. Survives :meth:`close` — quarantine manifests read
        #: it after the pool is gone.
        self.journals: Dict[object, deque] = {}
        #: Task key → display label (``task[1]``), recorded as tasks
        #: are submitted.
        self._labels: Dict[object, str] = {}
        #: Optional per-poll observer ``callback(watchdog)`` — the
        #: campaign's live status publisher hooks in here.
        self.on_poll: Optional[Callable[["WorkerWatchdog"], None]] = None

    # -- lifecycle ---------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        global _PARENT_SCENARIO
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", time.monotonic(), lock=False)
        progress = self._ctx.Value("q", 0, lock=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.payload, child_conn, heartbeat, progress),
            daemon=True,
        )
        _PARENT_SCENARIO = self.scenario
        try:
            process.start()
        finally:
            _PARENT_SCENARIO = None
        child_conn.close()  # our copy; the worker holds the live end
        return _WorkerHandle(process, parent_conn, heartbeat, progress)

    def _kill_worker(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(timeout=5.0)
        else:
            process.join(timeout=5.0)

    def _respawn(self, handle: _WorkerHandle) -> _WorkerHandle:
        self._kill_worker(handle)
        fresh = self._spawn_worker()
        index = self._workers.index(handle)
        self._workers[index] = fresh
        self._respawns.inc()
        self.workers_respawned += 1
        return fresh

    def close(self) -> None:
        """Orderly shutdown: ask politely, then terminate stragglers."""
        for handle in self._workers:
            try:
                handle.conn.send(None)
            except OSError:
                pass
        for handle in self._workers:
            handle.process.join(timeout=2.0)
            self._kill_worker(handle)
        self._workers = []

    def __enter__(self) -> "WorkerWatchdog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- flight recorder / liveness views ----------------------------------

    def _store_journal(self, key, events: List[dict]) -> None:
        store = self.journals.get(key)
        if store is None:
            store = deque(maxlen=DEFAULT_JOURNAL_CAPACITY)
            self.journals[key] = store
        store.extend(events)

    def journal_tail(self, key, n: Optional[int] = None) -> List[dict]:
        """The last ``n`` (default all kept) journal events for a task
        key — what the quarantine manifest embeds as the post-mortem."""
        store = self.journals.get(key)
        if not store:
            return []
        events = list(store)
        if n is not None:
            events = events[-n:]
        return [dict(event) for event in events]

    def journals_by_name(self) -> Dict[str, List[dict]]:
        """``{task_label: events}`` for every task with journal history
        (VP names for campaign tasks)."""
        return {
            self._labels.get(key, str(key)): [
                dict(event) for event in store
            ]
            for key, store in sorted(self.journals.items())
            if store
        }

    def heartbeat_ages(self) -> Dict[str, float]:
        """``{task_label: seconds}`` since each busy worker's last beat."""
        now = time.monotonic()
        return {
            self._labels.get(
                handle.task[0], str(handle.task[0])
            ): max(now - handle.heartbeat.value, 0.0)
            for handle in self._workers
            if handle.task is not None
        }

    # -- execution ---------------------------------------------------------

    def run_tasks(
        self, tasks: List[tuple]
    ) -> Dict[object, Tuple[object, str, Optional[str]]]:
        """Execute one round of ``(key, label, ...)`` tasks."""
        outcomes: Dict[object, Tuple[object, str, Optional[str]]] = {}
        if not tasks:
            return outcomes
        for task in tasks:
            self._labels[task[0]] = str(task[1])
        want = max(1, min(self.jobs, len(tasks)))
        while len(self._workers) < want:
            self._workers.append(self._spawn_worker())

        queue = _AffinityQueue(tasks, self.payload.get("affinity", {}))
        raw_results: List[tuple] = []
        in_flight = 0

        def dispatch() -> None:
            nonlocal in_flight
            for handle in self._workers:
                if not queue:
                    return
                if handle.task is not None:
                    continue
                held = {
                    other.group
                    for other in self._workers
                    if other is not handle
                }
                task, handle.group = queue.pop(handle.group, held)
                handle.task = task
                handle.tries += 1
                handle.heartbeat.value = time.monotonic()
                try:
                    handle.conn.send(task)
                except OSError:
                    # Died between tasks; revive and retry dispatch.
                    handle.task = None
                    handle.tries = 0
                    queue.push_front(task)
                    self._respawn(handle)
                    return
                in_flight += 1

        def fail_task(
            handle: _WorkerHandle, kind: str, detail: str
        ) -> None:
            """Task's worker hung/died: re-queue within budget, else
            report the poison outcome for this round."""
            nonlocal in_flight
            task = handle.task
            assert task is not None
            # The kill itself becomes the journal's final entry — the
            # parent-side epilogue to whatever the worker last sent,
            # with the destination count the worker last published.
            self._store_journal(
                task[0],
                [
                    {
                        "seq": None,
                        "wall": time.time(),
                        "kind": "watchdog_kill",
                        "reason": kind,
                        "detail": detail,
                        "destinations": handle.progress.value,
                    }
                ],
            )
            tries = handle.tries
            handle.task = None
            in_flight -= 1
            fresh = self._respawn(handle)
            if tries < self.config.task_tries:
                fresh.tries = tries + 1  # budget follows the task
                fresh.group = handle.group
                fresh.task = task
                fresh.heartbeat.value = time.monotonic()
                try:
                    fresh.conn.send(task)
                    in_flight += 1
                    return
                except OSError:  # pragma: no cover
                    fresh.task = None
                    fresh.tries = 0
            outcomes[task[0]] = (None, kind, detail)

        dispatch()
        while in_flight or queue:
            if not in_flight:
                # A worker died at dispatch; the queue still holds its
                # task and a fresh worker is up — try again.
                dispatch()
                continue
            busy = {
                handle.conn: handle
                for handle in self._workers
                if handle.task is not None
            }
            ready = _mp_wait(
                list(busy), timeout=self.config.poll_interval
            )
            now = time.monotonic()
            for conn in ready:
                handle = busy[conn]
                if handle.task is None:  # pragma: no cover - raced
                    continue
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task: a crash.
                    self._crashes.inc()
                    fail_task(
                        handle,
                        "crash",
                        "worker process died mid-task "
                        f"(exitcode {handle.process.exitcode})",
                    )
                    continue
                if message[0] == "journal":
                    # Eager flight-recorder flush; not a result.
                    self._store_journal(message[1], message[2])
                    continue
                key, rows, _snap, _load, error, _spans, journal = message
                raw_results.append(message)
                self._store_journal(key, journal)
                outcomes[key] = (
                    rows, "ok" if error is None else "failed", error
                )
                handle.task = None
                handle.tries = 0
                in_flight -= 1
            # Hang scan: every busy worker's heartbeat age.
            for handle in list(self._workers):
                if handle.task is None:
                    continue
                age = now - handle.heartbeat.value
                self._hb_ages.observe(max(age, 0.0))
                if age > self.config.hang_timeout:
                    self._hangs.inc()
                    self.hangs_detected += 1
                    fail_task(
                        handle,
                        "hang",
                        f"no heartbeat for {age:.2f}s "
                        f"(deadline {self.config.hang_timeout}s)",
                    )
            if self.on_poll is not None:
                self.on_poll(self)
            dispatch()

        # Merge telemetry in key order so parent totals are
        # independent of completion order. Span buffers merge under the
        # currently open span (the dispatching round).
        raw_results.sort(key=lambda item: item[0])
        options_load = self.scenario.network.options_load
        for _key, _rows, snapshot, load_delta, _err, spans, _j in raw_results:
            self._registry.merge(snapshot)
            TRACER.merge(spans)
            for asn, count in load_delta.items():
                options_load[asn] = options_load.get(asn, 0) + count
        return outcomes
