"""The README's python examples run as written, in order, in one namespace,
its CLI synopsis lists only flags the parser accepts, its model file is the
one ``fit`` writes, the evaluation keys it names are the ones ``simulate``
writes for its config, its paper table is the table demo's output, and the
error classes it names are exactly those of ``pcbitalloc.errors``."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from pcbitalloc import errors
from pcbitalloc.cli import build_parser
from pcbitalloc.cloud import PointCloud, save_ply
from pcbitalloc.models import DistortionModel, RateModel, model_to_dict
from pcbitalloc.pipeline import run_pipeline

from conftest import make_cloud

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(tmp_path, monkeypatch, rng, capsys):
    quick_start, real_clouds = re.findall(r"```python\n(.*?)```",
                                          README.read_text(), flags=re.S)
    namespace = {}
    exec(quick_start, namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "0"  # QPE against the grid

    ref = make_cloud(rng, 300)
    rec = PointCloud(np.clip(ref.positions + rng.integers(-1, 2, (300, 3)), 0, 1023),
                     ref.colors, ref.bit_depth)
    save_ply(ref, tmp_path / "reference.ply")
    save_ply(rec, tmp_path / "reconstruction.ply", binary=True)
    monkeypatch.chdir(tmp_path)
    exec(real_clouds, namespace)
    assert namespace["pair"].d_g > 0


def test_cli_synopsis_flags_exist():
    # every --flag the README's CLI block lists is one its subcommand accepts
    block = README.read_text().split("## CLI\n", 1)[1].split("```")[1]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    flags, command = {}, None
    for line in block.splitlines():
        words = line.split()
        if words and words[0] == "pcbitalloc":
            command = words[1]
        if command:
            flags.setdefault(command, set()).update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    assert set(flags) == set(subparsers)
    for command, listed in flags.items():
        assert listed <= set(subparsers[command]._option_string_actions), command


def test_model_file_block_is_the_written_layout():
    block = README.read_text().split("one model file;", 1)[1].split("```json\n")[1]
    worked = (DistortionModel(0.5, 0.25, 4.0, 0.5), RateModel(6400, -1, 3200, -1))
    assert json.loads(block.split("```")[0]) == model_to_dict(*worked)


def test_evaluation_keys_are_the_written_ones():
    text = README.read_text()
    config = json.loads(text.split("from a JSON config:", 1)[1].split("```json\n")[1]
                        .split("```")[0])
    sentence = text.split("`evaluation` holds ", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(\w+)`", sentence)) == set(run_pipeline(config)["evaluation"])


def test_error_names_exist():
    names = set(re.findall(r"`(\w+Error)`", README.read_text()))
    assert names, "the README names no error class"
    assert {name for name in names if not hasattr(errors, name)} == set()
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined - names == set(), "error classes the README does not name"


def test_paper_table_is_the_demo_output():
    root = README.parent
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(root / "demos" / "06_paper_table.py")],
                            cwd=root, env={**os.environ, "PYTHONPATH": pythonpath},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    table = README.read_text().split("## Paper table\n", 1)[1]
    assert "\n\n" + result.stdout + "\n" in table
