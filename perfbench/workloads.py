"""The four benchmark workloads and one repetition of each.

Every workload runs over one fixed Internet per preset, the preset's
default (``get_preset(preset)``, seed 2016), built fresh in each
repetition. ``--seed`` draws the workload's inputs on that Internet:
the destination sample of the surveys and the campaign, the fault
realisation of the campaign, and the target slices and VP sets of the
service specs. The program sees only those inputs. Drawing inputs
rather than whole Internets keeps seed-to-seed differences in
Internet size (and so in peak RSS and per-probe cost) out of the
spread between runs.

:func:`run_rep` runs one repetition in the current process and returns
plain data: set-up and timed wall seconds, CPU and peak RSS, operation
counts, the output digest and the program's own exact counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("survey_cold", "survey_pool", "campaign_hostile",
             "service_tenants")

#: Workload -> (preset, jobs). ``run.py --scale tiny`` swaps the preset
#: for the self-test and leaves everything else alone.
SHAPES = {
    "survey_cold": ("mid", 1),
    "survey_pool": ("mid", 2),
    "campaign_hostile": ("small", 2),
    "service_tenants": ("mid", 2),
}

INTERNET_SEED = 2016
SURVEY_DESTS = 1200
CAMPAIGN_DESTS = 600
ZOMBIE_SHARE = 0.25
SERVICE_TENANTS = 8
SERVICE_SPECS_PER_TENANT = 8
SERVICE_PING_EVERY = 4          # specs 3 and 7 of a tenant are ping
SERVICE_TARGETS = 150
SERVICE_VPS = 6

#: Counters that are a function of the inputs alone: they must repeat
#: exactly across repetitions of one workload and seed.
EXACT_COUNTERS = (
    "plan_compiles_total",
    "plan_replays_total",
    "routing_tree_cache_lookups_total",
    "validation_verdicts_total",
    "campaign_vp_attempts_total",
    "service_units_total",
    "probe_sent_total",
)


def _rusage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS in KiB) of this process and reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, float(max(me.ru_maxrss, kids.ru_maxrss))


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def _counter_values(snapshot: dict) -> Dict[str, float]:
    """``name{label=value,...}`` -> value for the exact counters."""
    out: Dict[str, float] = {}
    for name in EXACT_COUNTERS:
        family = snapshot.get(name)
        if family is None:
            continue
        for series in family["series"]:
            labels = ",".join(
                f"{key}={value}"
                for key, value in sorted(series["labels"].items())
                if key != "net"
            )
            key = f"{name}{{{labels}}}"
            out[key] = out.get(key, 0) + series["value"]
    return out


def family_total(snapshot: dict, name: str, **match) -> float:
    """Sum of a family's series matching ``match`` (histograms: sum)."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for series in family["series"]:
        labels = series["labels"]
        if all(labels.get(key) == value for key, value in match.items()):
            total += series.get("value", series.get("sum", 0.0))
    return total


def sample_dests(scenario, seed: int, count: int) -> list:
    """``count`` destinations drawn by ``seed``, in hitlist order."""
    dests = list(scenario.hitlist)
    picked = random.Random(seed).sample(
        range(len(dests)), min(count, len(dests))
    )
    return [dests[index] for index in sorted(picked)]


# ---------------------------------------------------------------------------
# Workload bodies. Each returns (setup, timed, check): ``setup`` builds
# the inputs and the runner, ``timed`` is the measured call, ``check``
# digests outputs after the clock stops and returns
# (digest, probe requests, operations, failed operations, facts).
# ---------------------------------------------------------------------------


def _survey(preset: str, jobs: int, seed: int, work: Path):
    from repro.core.survey import (
        run_ping_survey, run_rr_survey, save_survey,
    )
    from repro.scenarios.presets import get_preset

    state: dict = {}
    path = work / "survey.json"

    def setup() -> None:
        scenario = get_preset(preset, seed=INTERNET_SEED)
        state["scenario"] = scenario
        state["dests"] = sample_dests(scenario, seed, SURVEY_DESTS)

    def timed() -> None:
        scenario, dests = state["scenario"], state["dests"]
        state["rr"] = run_rr_survey(scenario, dests=dests, jobs=jobs)
        state["ping"] = run_ping_survey(scenario, dests=dests, jobs=jobs)
        save_survey(state["rr"], path)

    def check():
        rr, ping = state["rr"], state["ping"]
        ping_bytes = json.dumps(
            sorted(ping.responsive.items()), separators=(",", ":")
        ).encode()
        digest = _sha(path.read_bytes(), ping_bytes)
        requests = len(rr.vps) * len(rr.dests) + len(ping.responsive)
        facts = {
            "vps": len(rr.vps),
            "dests": len(rr.dests),
            "hitlist": len(state["scenario"].hitlist),
        }
        # Operations: one per VP task, plus the origin's ping task.
        return digest, requests, len(rr.vps) + 1, 0, facts

    return setup, timed, check


def hostile_plan(scenario, seed: int):
    """The ``hostile`` preset, seeded by ``seed``, with a fixed zombie count.

    The preset draws each VP into ``ZombieVp`` with probability 0.25,
    so the number of zombies, and with it the campaign's retry work,
    swings widely from seed to seed. Here the seed picks *which*
    working VPs are zombies, and their number is always a quarter of
    the fleet.
    """
    from repro.faults.specs import FaultPlan, ZombieVp
    from repro.scenarios.faults import build_fault_plan

    plan = build_fault_plan("hostile", scenario_seed=seed)
    working = sorted(vp.name for vp in scenario.working_vps)
    count = min(round(ZOMBIE_SHARE * len(scenario.vps)), len(working))
    zombies = tuple(sorted(random.Random(seed).sample(working, count)))
    return FaultPlan(seed=plan.seed, specs=tuple(
        replace(spec, vps=zombies, prob=0.0)
        if isinstance(spec, ZombieVp) else spec
        for spec in plan.specs
    ))


def _campaign(preset: str, jobs: int, seed: int, work: Path):
    from repro.core.survey import save_survey
    from repro.faults.campaign import CampaignRunner
    from repro.faults.supervisor import SupervisionConfig
    from repro.obs.metrics import REGISTRY
    from repro.probing.artifacts import verify_embedded_checksum
    from repro.scenarios.presets import get_preset

    state: dict = {}
    sidecar = work / "quarantine.json"
    merged = work / "campaign-survey.json"

    def setup() -> None:
        scenario = get_preset(preset, seed=INTERNET_SEED)
        state["dests"] = sample_dests(scenario, seed, CAMPAIGN_DESTS)
        state["runner"] = CampaignRunner(
            scenario,
            plan=hostile_plan(scenario, seed),
            jobs=jobs,
            supervision=SupervisionConfig(),
            checkpoint_path=work / "campaign.ckpt",
            quarantine_path=sidecar,
        )

    def timed() -> None:
        state["result"] = state["runner"].run(targets=state["dests"])

    def check():
        result = state["result"]
        raw = sidecar.read_bytes()
        _body, error = verify_embedded_checksum(
            json.loads(raw), kind="benchmark"
        )
        if error is not None:
            raise RuntimeError(f"quarantine sidecar: {error}")
        save_survey(result.survey, merged)
        digest = _sha(merged.read_bytes(), raw)
        survey = result.survey
        snap = REGISTRY.snapshot()
        # Quarantined replies, degraded destinations and the zombies'
        # garbage attempts are the faults working as injected; only
        # hung, crashed or raising attempts are failures.
        failed = sum(
            family_total(snap, "campaign_vp_attempts_total", outcome=kind)
            for kind in ("hung", "crashed", "failed")
        )
        facts = {
            "vps": len(survey.vps),
            "dests": len(survey.dests),
            "faults": "hostile",
            "zombie_share": ZOMBIE_SHARE,
            "retry_rounds": result.retry_rounds,
        }
        requests = len(survey.vps) * len(survey.dests)
        attempted = sum(result.attempts.values())
        return digest, requests, attempted, int(failed), facts

    return setup, timed, check


def service_records(scenario, seed: int) -> List[dict]:
    """8 tenants x 8 specs; seeded target slices and VP sets."""
    rng = random.Random(seed)
    dest_count = len(scenario.hitlist)
    targets = min(SERVICE_TARGETS, dest_count)
    working = [vp.name for vp in scenario.working_vps]
    records = []
    for index in range(SERVICE_TENANTS * SERVICE_SPECS_PER_TENANT):
        tenant, slot = divmod(index, SERVICE_SPECS_PER_TENANT)
        kind = "ping" if slot % SERVICE_PING_EVERY == 3 else "rr"
        records.append({
            "tenant": f"tenant-{tenant}",
            "name": f"{kind}-{slot}",
            "kind": kind,
            "target_count": targets,
            "target_offset": rng.randrange(dest_count - targets + 1),
            "vp_policy": "named",
            "vp_names": rng.sample(working, min(SERVICE_VPS, len(working))),
        })
    return records


def _service(preset: str, jobs: int, seed: int, work: Path):
    from repro.scenarios.presets import get_preset
    from repro.service.credits import TenantQuota
    from repro.service.daemon import MeasurementDaemon, ServiceConfig
    from repro.service.streams import load_stream

    state: dict = {}
    quota = TenantQuota(
        initial_credits=1e12,
        accrual_per_round=0.0,
        balance_cap=1e12,
        max_probes_per_spec=10**9,
        max_active_specs=SERVICE_SPECS_PER_TENANT,
    )

    def setup() -> None:
        scenario = get_preset(preset, seed=INTERNET_SEED)
        daemon = MeasurementDaemon(
            scenario,
            ServiceConfig(
                stream_dir=work / "streams", jobs=jobs, quota=quota,
                checkpoint_path=work / "service.ckpt",
            ),
        )
        for record in service_records(scenario, seed):
            response = daemon.submit(record)
            if not response.get("ok"):
                raise RuntimeError(f"spec rejected: {response}")
        state["daemon"] = daemon

    def timed() -> None:
        state["manifest"] = state["daemon"].run()

    def check():
        specs = state["manifest"]["specs"]
        parts: List[bytes] = []
        units = failed = 0
        for label in sorted(specs):
            row = specs[label]
            records, _trailer = load_stream(row["stream"])
            parts.append(label.encode())
            parts.append(json.dumps(
                records, sort_keys=True, separators=(",", ":")
            ).encode())
            units += row["units_total"]
            if row["status"] != "done":
                failed += row["units_total"] - row["units_done"]
        daemon = state["daemon"]
        requests = sum(
            spec.targets_count * len(spec.vp_names)
            for spec in daemon.scheduler.states_in_order()
        )
        facts = {
            "tenants": SERVICE_TENANTS,
            "specs": len(specs),
            "targets_per_spec": SERVICE_TARGETS,
            "vps_per_spec": SERVICE_VPS,
            "hitlist": len(daemon.scenario.hitlist),
        }
        return _sha(*parts), requests, units, failed, facts

    return setup, timed, check


BODIES: Dict[str, Callable] = {
    "survey_cold": _survey,
    "survey_pool": _survey,
    "campaign_hostile": _campaign,
    "service_tenants": _service,
}


def environment(workload: str, seed: int, preset: str, jobs: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "internet_seed": INTERNET_SEED,
        "workload": workload,
        "preset": preset,
        "jobs": jobs,
    }


def _layer_counts(snapshot: dict) -> Dict[str, float]:
    """The registry counts the per-layer metrics report."""
    def total(name: str, **match) -> float:
        return family_total(snapshot, name, **match)

    return {
        "phase_rr_survey_vp_s": total("phase_seconds", phase="rr_survey_vp"),
        "tree_misses": total("routing_tree_cache_lookups_total",
                             result="miss"),
        "compiles": total("plan_compiles_total"),
        "replays": total("plan_replays_total"),
        "checked": total("validation_verdicts_total"),
        "invalid": total("validation_verdicts_total", verdict="invalid"),
        "retries": total("campaign_retries_total"),
        "attempts_failed": sum(
            total("campaign_vp_attempts_total", outcome=kind)
            for kind in ("failed", "dark", "hung", "crashed", "garbage")
        ),
        "respawns": total("supervisor_respawns_total"),
        "probes_sent": total("probe_sent_total"),
    }


def run_rep(workload: str, seed: int, preset: str, work: Path,
            tracer=None) -> dict:
    """One repetition, in this (fresh) process."""
    from repro.obs.metrics import REGISTRY

    jobs = SHAPES[workload][1]
    work.mkdir(parents=True, exist_ok=True)
    setup, timed, check = BODIES[workload](preset, jobs, seed, work)

    start = time.perf_counter()
    setup()
    setup_s = time.perf_counter() - start

    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    cpu_before, _ = _rusage()
    start = time.perf_counter()
    timed()
    wall_s = time.perf_counter() - start
    cpu_after, rss_kib = _rusage()
    layers = None
    if tracer is not None:
        tracer.enabled = False
        layers = tracer.collect()
    # Counters are read before the output check, which touches the
    # registry itself.
    snapshot = REGISTRY.snapshot()
    digest, requests, attempted, failed, facts = check()
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": rss_kib / 1024.0,
        "requests": requests,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "counters": _counter_values(snapshot),
        "snapshot": _layer_counts(snapshot),
        "facts": dict(facts, jobs=jobs, preset=preset),
        "layers": layers,
    }
