"""One repetition of one workload, in a fresh process.

Started by ``run.py``; writes the repetition's result as JSON to
``--out``. Run from the root of a checkout::

    python3 perfbench/rep.py --workload survey_cold --seed 1 \
        --preset mid --work .perfbench_work/x --trace 0 --out rep.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--preset", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # Importing ``repro.sim`` or ``repro.topology`` first raises a
    # circular-import error; ``repro.probing`` first works.
    import repro.probing  # noqa: F401

    from layers import Tracer
    from workloads import run_rep

    tracer = None
    if args.trace:
        span_dir = args.work / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(span_dir)
        tracer.install()
    result = run_rep(args.workload, args.seed, args.preset,
                     args.work, tracer)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
