"""The README's python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

import numpy as np

from pcbitalloc.cloud import PointCloud, save_ply

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
