"""Every ``repro`` subpackage imports on its own, in a fresh interpreter.

Guards against import cycles that only show when a subpackage is the
first thing a program imports (the test process itself has long since
imported everything, so an in-process import would prove nothing).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
SUBPACKAGES = sorted(
    path.name
    for path in (SRC / "repro").iterdir()
    if (path / "__init__.py").exists()
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_alone(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
