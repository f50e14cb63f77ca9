"""Self-test of the benchmark at ``tiny`` scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload end to end on the ``tiny`` preset, traced, and
checks that:

* each run is correct and prints exactly the metrics that
  ``BENCHMARK.json`` names;
* every wrapped public function is reached at least once across the
  workloads, so a rename under ``src/`` fails here instead of leaving
  a layer silently at zero;
* ``survey_pool`` reproduces ``survey_cold``'s survey bytes;
* without the program beside it, the benchmark fails without
  printing a result.

It also reports whether ``import repro.sim`` on its own still raises
the circular-import error that makes the benchmark import
``repro.probing`` first.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORK, source_fingerprint  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    reached: dict = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = result_of(run(
                "perfbench/run.py", "--workload", workload,
                "--seed", str(SEED), "--seconds", "1", "--trace", trace,
                "--scale", "tiny",
            ))
            assert result["correct"], (workload, trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1
            names = set(result["metrics"])
            assert names == (per_layer if trace == "1" else end_to_end), (
                workload, trace, names ^ (per_layer | end_to_end))
        trace_file = WORK / f"trace-{workload}-{SEED}.json"
        for rep in json.loads(trace_file.read_text("utf-8"))["reps"]:
            for key, count in rep["reached"].items():
                reached[key] = reached.get(key, 0) + count
        print(f"{workload}: ok")

    missing = sorted(key for key, count in reached.items() if not count)
    assert not missing, f"wrapped functions never reached: {missing}"
    print(f"all {len(reached)} wrapped functions reached")

    parity = json.loads((
        WORK / "digests" / f"survey-tiny-{SEED}-{source_fingerprint()}.json"
    ).read_text("utf-8"))
    assert len(parity) == 2 and len(set(parity.values())) == 1, parity
    print("survey_pool repeats survey_cold's bytes")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("perfbench/run.py", "--workload", "survey_cold", "--seed",
               "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("fails without the program, printing no result")

    proc = subprocess.run(
        [sys.executable, "-c", "import repro.sim"], cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")}, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    state = "still raises ImportError" if proc.returncode else "imports"
    print(f"known issue: 'import repro.sim' on its own {state}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
