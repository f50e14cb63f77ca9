"""Survey-scale benchmark: batched vs legacy, serial vs pooled.

The §3.1 all-VPs ping-RR campaign is the repo's dominant cost; two
mechanisms exist to pay it down and this script records both:

* ``serial``        — the in-process batched dataplane (``jobs=1``);
* ``serial_legacy`` — the same campaign with ``prober.batching`` off,
  i.e. the per-hop packet walk the stamp-plan replay engine replaces;
* ``pool_jobs1``    — the same tasks on a supervised watchdog with a
  single worker process (supervision makes it fork at ``jobs=1``; it
  builds the routing trees first, like any pool), so its gap to
  ``serial`` is the pool's own overhead: fork, IPC, snapshot merging;
* ``pool_jobsN``    — the pool at ``--jobs`` workers;
* ``ping``          — the origin's ping survey, which runs in process
  at every ``jobs``.

Each configuration probes a **fresh scenario** (cold caches) so the
comparison is fair, then the script verifies the correctness bars —
the pooled survey's ``save_survey`` bytes must equal the serial run's,
and the batched run's bytes must equal the legacy walk's — and writes
``BENCH_survey.json`` (with ``probes_total`` and per-configuration
``probes_per_sec``) so future PRs can compare numbers.

Run it directly (no pytest harness)::

    PYTHONPATH=src python benchmarks/bench_survey_scale.py --preset mid
    PYTHONPATH=src python benchmarks/bench_survey_scale.py \
        --preset tiny --quick                                 # CI smoke
    PYTHONPATH=src python benchmarks/bench_survey_scale.py \
        --profile                          # cProfile the serial leg

Numbers are recorded honestly for whatever machine runs the script
(``cpu_count`` is in the JSON); a 1-core container will show pool
overhead rather than speedup, a 4-vCPU CI runner shows the fan-out win.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.survey import run_ping_survey, run_rr_survey, save_survey
from repro.faults.supervisor import (
    SupervisionConfig,
    WorkerWatchdog,
    vp_attempt_payload,
)
from repro.obs.metrics import REGISTRY
from repro.probing.prober import DEFAULT_PPS
from repro.probing.scheduler import ProbeOrder
from repro.scenarios.internet import Scenario
from repro.scenarios.presets import get_preset

OUTPUT_DIR = Path(__file__).parent / "output"

#: --quick caps, keeping the CI smoke run under a minute.
QUICK_VPS = 6
QUICK_TARGETS = 60


def _fresh(preset: str, seed: int) -> Scenario:
    """A cold scenario: no warm path caches, no touched limiters."""
    return get_preset(preset, seed)


def _subset(scenario: Scenario, quick: bool):
    """(targets, vps) for the campaign, possibly --quick-capped."""
    targets = list(scenario.hitlist)
    vps = list(scenario.vps)
    if quick:
        targets = targets[:QUICK_TARGETS]
        vps = vps[:QUICK_VPS]
    return targets, vps


def _time_rr(
    preset: str,
    seed: int,
    jobs: int,
    quick: bool,
    repeat: int,
    force_pool: bool = False,
    batch: bool = True,
    profile_to: Optional[Path] = None,
) -> Dict[str, object]:
    """Best-of-``repeat`` wall-clock for one RR-survey configuration."""
    best: Optional[float] = None
    survey = None
    for _ in range(repeat):
        scenario = _fresh(preset, seed)
        scenario.prober.batching = batch
        targets, vps = _subset(scenario, quick)
        profiler = None
        if profile_to is not None:
            profiler = cProfile.Profile()
            profiler.enable()
        start = time.perf_counter()
        if force_pool and jobs == 1:
            # run_rr_survey runs jobs=1 in process; a supervised
            # watchdog forks one worker for the same tasks, exposing
            # the pool's fixed overhead.
            payload = vp_attempt_payload(targets, vps, ProbeOrder.RANDOM)
            tasks = [
                (i, vp.name, i, 0, len(targets), 9, DEFAULT_PPS, 1)
                for i, vp in enumerate(vps)
            ]
            with WorkerWatchdog(
                scenario, payload, 1, SupervisionConfig()
            ) as pool:
                pool.run_tasks(tasks)
        else:
            survey = run_rr_survey(scenario, dests=targets, vps=vps,
                                   jobs=jobs)
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(str(profile_to))
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(15)
            profile_to = None  # profile only the first repeat
        best = elapsed if best is None else min(best, elapsed)
    return {"seconds": best, "survey": survey}


def _time_ping(preset: str, seed: int, quick: bool, repeat: int) -> float:
    best: Optional[float] = None
    for _ in range(repeat):
        scenario = _fresh(preset, seed)
        targets, _vps = _subset(scenario, quick)
        start = time.perf_counter()
        run_ping_survey(scenario, dests=targets)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best if best is not None else 0.0


def _path_cache_stats() -> Dict[str, float]:
    """Forward-path cache hit/miss totals from the live registry."""
    totals = {"hit": 0.0, "miss": 0.0}
    family = REGISTRY.snapshot().get("path_cache_lookups_total")
    if family:
        for series in family["series"]:
            labels = dict(series["labels"])
            result = labels.get("result")
            if result in totals:
                totals[result] += series["value"]
    lookups = totals["hit"] + totals["miss"]
    totals["hit_rate"] = totals["hit"] / lookups if lookups else 0.0
    return totals


def _plan_cache_stats() -> Dict[str, float]:
    """Stamp-plan cache totals (lookups by result, replays, compiles)."""
    snapshot = REGISTRY.snapshot()
    totals = {"hit": 0.0, "miss": 0.0, "replays": 0.0, "compiles": 0.0}
    family = snapshot.get("plan_cache_lookups_total")
    if family:
        for series in family["series"]:
            result = dict(series["labels"]).get("result")
            if result in totals:
                totals[result] += series["value"]
    for key, name in (
        ("replays", "plan_replays_total"),
        ("compiles", "plan_compiles_total"),
    ):
        family = snapshot.get(name)
        if family:
            totals[key] = sum(s["value"] for s in family["series"])
    lookups = totals["hit"] + totals["miss"]
    totals["hit_rate"] = totals["hit"] / lookups if lookups else 0.0
    return totals


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Survey-scale benchmark (serial vs pooled)."
    )
    parser.add_argument(
        "--preset", default="small",
        help="scenario preset (default: small, the mid-size 2016 shape)",
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="worker count for the pooled configuration (default: 4)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="take the best of N runs per configuration (default: 1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke mode: first {QUICK_VPS} VPs x "
             f"{QUICK_TARGETS} destinations",
    )
    parser.add_argument(
        "--output", type=Path,
        default=OUTPUT_DIR / "BENCH_survey.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the serial batched leg (prints the top-15 "
             "cumulative entries, writes bench_survey_serial.prof)",
    )
    args = parser.parse_args(argv)

    scenario = _fresh(args.preset, args.seed)
    targets, vps = _subset(scenario, args.quick)
    print(
        f"bench_survey_scale: preset={args.preset} seed={args.seed} "
        f"targets={len(targets)} vps={len(vps)} jobs={args.jobs} "
        f"cpus={os.cpu_count()}",
        flush=True,
    )

    timings: Dict[str, float] = {}
    probes_total = len(targets) * len(vps)

    out_dir = args.output.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    profile_to = (
        out_dir / "bench_survey_serial.prof" if args.profile else None
    )
    serial = _time_rr(args.preset, args.seed, jobs=1, quick=args.quick,
                      repeat=args.repeat, profile_to=profile_to)
    timings["rr_serial"] = serial["seconds"]
    print(f"  rr serial        : {timings['rr_serial']:.3f}s", flush=True)

    legacy = _time_rr(args.preset, args.seed, jobs=1, quick=args.quick,
                      repeat=args.repeat, batch=False)
    timings["rr_serial_legacy"] = legacy["seconds"]
    print(f"  rr serial legacy : {timings['rr_serial_legacy']:.3f}s",
          flush=True)

    pool1 = _time_rr(args.preset, args.seed, jobs=1, quick=args.quick,
                     repeat=args.repeat, force_pool=True)
    timings["rr_pool_jobs1"] = pool1["seconds"]
    print(f"  rr pool jobs=1   : {timings['rr_pool_jobs1']:.3f}s",
          flush=True)

    pooled = _time_rr(args.preset, args.seed, jobs=args.jobs,
                      quick=args.quick, repeat=args.repeat)
    timings[f"rr_pool_jobs{args.jobs}"] = pooled["seconds"]
    print(
        f"  rr pool jobs={args.jobs}   : {pooled['seconds']:.3f}s",
        flush=True,
    )

    timings["ping"] = _time_ping(
        args.preset, args.seed, quick=args.quick, repeat=args.repeat,
    )
    print(f"  ping             : {timings['ping']:.3f}s", flush=True)

    # Correctness bars: pooled bytes == serial bytes, and the batched
    # dataplane's bytes == the legacy per-hop walk's bytes.
    def _bytes_of(survey) -> bytes:
        path = out_dir / "_bench_rr_tmp.json"
        save_survey(survey, path)
        data = path.read_bytes()
        path.unlink()
        return data

    serial_bytes = _bytes_of(serial["survey"])
    identical = serial_bytes == _bytes_of(pooled["survey"])
    print(f"  parity (serial vs jobs={args.jobs}): "
          f"{'byte-identical' if identical else 'MISMATCH'}", flush=True)
    batch_identical = serial_bytes == _bytes_of(legacy["survey"])
    print(f"  parity (batched vs legacy walk): "
          f"{'byte-identical' if batch_identical else 'MISMATCH'}",
          flush=True)

    speedup = (
        timings["rr_serial"] / pooled["seconds"]
        if pooled["seconds"] else 0.0
    )
    print(f"  speedup jobs={args.jobs} vs serial: {speedup:.2f}x",
          flush=True)
    serial_s = timings["rr_serial"]
    pool_s = timings[f"rr_pool_jobs{args.jobs}"]
    ratio = pool_s / serial_s if serial_s else 0.0
    print(
        f"  rr pool jobs={args.jobs} / serial: "
        f"{pool_s:.3f}s / {serial_s:.3f}s = {ratio:.2f}",
        flush=True,
    )
    batch_speedup = (
        timings["rr_serial_legacy"] / timings["rr_serial"]
        if timings["rr_serial"] else 0.0
    )
    probes_per_sec = {
        name: probes_total / seconds if seconds else 0.0
        for name, seconds in timings.items()
        if name.startswith("rr_")
    }
    print(
        f"  batched dataplane: "
        f"{probes_per_sec['rr_serial']:,.0f} probes/s vs "
        f"{probes_per_sec['rr_serial_legacy']:,.0f} legacy "
        f"({batch_speedup:.2f}x)",
        flush=True,
    )

    record = {
        "benchmark": "survey_scale",
        "preset": args.preset,
        "seed": args.seed,
        "quick": args.quick,
        "targets": len(targets),
        "vps": len(vps),
        "jobs": args.jobs,
        "repeat": args.repeat,
        "cpu_count": os.cpu_count(),
        "probes_total": probes_total,
        "probes_per_sec": probes_per_sec,
        "timings_seconds": timings,
        "speedup_pool_vs_serial": speedup,
        "ratio_pool_vs_serial": ratio,
        "speedup_batched_vs_legacy": batch_speedup,
        "parity_byte_identical": identical,
        "parity_batched_vs_legacy": batch_identical,
        "path_cache": _path_cache_stats(),
        "plan_cache": _plan_cache_stats(),
    }
    args.output.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    print(f"  wrote {args.output}", flush=True)
    return 0 if identical and batch_identical else 1


if __name__ == "__main__":
    sys.exit(main())
