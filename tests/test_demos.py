"""Every demo script runs to completion against the sources in ``src``.

Each runs in its own process, which ``pyproject.toml``'s ``filterwarnings``
do not reach, so RuntimeWarning and DeprecationWarning are made errors there
by ``-W``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                             "-W", "error::DeprecationWarning", str(demo)], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": pythonpath},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
