"""What each entry point loads: ``import pcbitalloc`` loads no submodule,
and only the metric command imports the point-cloud modules (``cloud``,
``metrics``), scipy and the thread pool; the other commands start without
them. The package's lazy exports resolve to their modules' own objects.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from pcbitalloc.cloud import save_ply
from pcbitalloc.models import write_probe_log
from pcbitalloc.simcodec import random_spec, run_probe_schedule

from conftest import make_cloud

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

import pcbitalloc
assert modules("pcbitalloc") == ["pcbitalloc"], modules("pcbitalloc")
import pcbitalloc.cli
from pcbitalloc.cli import main

assert main(["simulate", "--spec", "sim.json", "-o", "report.json", "--csv"]) == 0
assert main(["fit", "--probes", "probes.csv", "--omega", "0.5", "-o", "model.json"]) == 0
assert main(["allocate", "--model", "model.json", "--target", "1000", "-o", "alloc.json"]) == 0
assert main(["evaluate", "--pba", "report.json", "--esa", "report.json", "-o", "eval.json"]) == 0
assert not modules("scipy"), modules("scipy")[:5]
assert not modules("concurrent"), modules("concurrent")
for name in ("pcbitalloc.cloud", "pcbitalloc.metrics"):
    assert name not in sys.modules, name
assert main(["metric", "a.ply", "a.ply", "-o", "metric.json"]) == 0
assert "scipy.spatial" in modules("scipy")
assert "concurrent.futures.thread" in modules("concurrent")
for name in ("pcbitalloc.cloud", "pcbitalloc.metrics"):
    assert name in sys.modules, name
"""

EXPORTS = """
import importlib
import sys

import pcbitalloc

exported = {}
exec("from pcbitalloc import *", exported)
assert sorted(set(exported) - {"__builtins__"}) == sorted(pcbitalloc.__all__)
for name in pcbitalloc.__all__:
    module = importlib.import_module(f"pcbitalloc.{pcbitalloc._MODULE_OF[name]}")
    assert exported[name] is getattr(pcbitalloc, name) is getattr(module, name), name
    assert name in dir(pcbitalloc), name
try:
    pcbitalloc.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown attribute resolved")
"""


def run_fresh(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_only_the_metric_command_imports_scipy(tmp_path, rng):
    config = next(block for block in re.findall(r"```json\n(.*?)```",
                                                (ROOT / "README.md").read_text(), flags=re.S)
                  if '"run_exhaustive": true' in block)
    (tmp_path / "sim.json").write_text(json.dumps(json.loads(config)))
    write_probe_log(tmp_path / "probes.csv", run_probe_schedule(random_spec(7)))
    save_ply(make_cloud(rng, 50, bit_depth=6), tmp_path / "a.ply")
    done = run_fresh(SCRIPT, tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "metric.json").exists()


def test_every_export_is_its_modules_object(tmp_path):
    done = run_fresh(EXPORTS, tmp_path)
    assert done.returncode == 0, done.stderr
