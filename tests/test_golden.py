"""Every corpus config's written report against the golden table in
``tests/golden/``: QPs and other integers exactly, floats within 1e-9
relative, BD-PSNR within 1e-6 dB. A change that moves an output rewrites
the table with ``tests/golden/corpus.py`` and says so. A slice of the
corpus is also written under two OpenBLAS kernel sets, which must give the
same bytes."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golden.corpus import ROW_FIELDS, TABLE, configs, table_of, written_report

CONFIGS = configs()
GOLDEN = json.loads(TABLE.read_text())


def same(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9)
    return type(got) is type(want) and got == want


def test_table_covers_the_corpus():
    assert GOLDEN["fields"] == list(ROW_FIELDS)
    assert {r[0] for r in GOLDEN["rows"]} == set(CONFIGS)
    assert {b[0] for b in GOLDEN["bd_psnr_db"]} == set(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_matches_the_golden_table(name):
    rows, bd = table_of(name, written_report(CONFIGS[name]))
    want_rows = [r for r in GOLDEN["rows"] if r[0] == name]
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        moved = [f for f, g, w in zip(ROW_FIELDS, got, want) if not same(g, w)]
        assert not moved, f"{name} row {want[1:3]} moved in {moved}: {got} != {want}"
    want_bd = {omega: gap for config, omega, gap in GOLDEN["bd_psnr_db"] if config == name}
    got_bd = {omega: gap for _, omega, gap in bd}
    assert got_bd.keys() == want_bd.keys()
    for omega, want in want_bd.items():
        got = got_bd[omega]
        assert (got is None) == (want is None), (omega, got, want)
        if want is not None:
            assert abs(got - want) <= 1e-6, (omega, got, want)


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels per CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that only prints its config
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# each config's report as write_report writes it, one after another
SLICE_SCRIPT = """
import sys
from golden.corpus import configs
from pcbitalloc.pipeline import json_text, run_pipeline
corpus = configs()
for name in sys.argv[1:]:
    sys.stdout.write(json_text(run_pipeline(corpus[name])))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or not openblas_dynamic_arch(),
                    reason="needs numpy on an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_reports_do_not_depend_on_the_blas_kernels():
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "tests")])
    written = [subprocess.run([sys.executable, "-c", SLICE_SCRIPT, "noisy-3", "coupled-8",
                               "clean-15"], env=dict(env, **extra), capture_output=True,
                              text=True, check=True).stdout
               for extra in ({}, {"OPENBLAS_CORETYPE": "Nehalem"})]
    assert written[0] == written[1]
