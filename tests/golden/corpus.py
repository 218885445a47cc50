"""The golden corpus: what ``simulate`` reports on a fixed set of seeded
codec configs, kept as a compact table in ``table.json`` beside this file.

Each config is a ``random_spec`` codec (noise-free, noisy at 0.02, or with a
0.002 color coupling) with four targets spread over its grid's rate range,
three omegas and the exhaustive baseline on. Each table row is one
allocation row of its report; each ``bd_psnr_db`` entry is one omega's.
``tests/test_golden.py`` runs every config, writes its report with
``write_report``, reads it back and compares it with the table. A change
that moves an output rewrites the table, and the diff names the moved rows:

    PYTHONPATH=src python tests/golden/corpus.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pcbitalloc.pipeline import run_pipeline, write_report
from pcbitalloc.simcodec import random_spec, spec_to_dict

TABLE = Path(__file__).with_name("table.json")
SEEDS = (3, 8, 15, 21)
VARIANTS = {"clean": {}, "noisy": {"noise_rel": 0.02}, "coupled": {"coupling": 0.002}}
OMEGAS = [0.25, 0.5, 0.75]
ROW_FIELDS = ("config", "omega", "target", "qp_g", "qp_c", "esa_qp_g", "esa_qp_c",
              "be_pct", "q_g", "q_c", "predicted_rate", "predicted_distortion")


def configs() -> dict[str, dict]:
    """Each corpus config by name: four targets from 1.3x the coarsest grid
    pair's rate to 0.9x the finest's, evenly spaced in log rate."""
    out = {}
    for seed in SEEDS:
        for variant, knobs in VARIANTS.items():
            spec = random_spec(seed, **knobs)
            rates = spec.grid[..., 0] + spec.grid[..., 1]
            targets = np.geomspace(1.3 * rates.min(), 0.9 * rates.max(), 4)
            out[f"{variant}-{seed}"] = {"codec": spec_to_dict(spec),
                                        "targets": [round(float(t), 3) for t in targets],
                                        "omegas": OMEGAS, "run_exhaustive": True}
    return out


def written_report(config: dict) -> dict:
    """The config's report as ``write_report`` writes it, parsed back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        write_report(run_pipeline(config), path)
        return json.loads(path.read_text())


def table_of(name: str, report: dict) -> tuple[list, list]:
    """The report's table rows, in ``ROW_FIELDS`` order, and its
    (config, omega, bd_psnr_db) entries."""
    rows = [[name, r["omega"], r["target"], r["qp_g"], r["qp_c"], r["esa"]["qp_g"],
             r["esa"]["qp_c"], r["be_pct"], r["continuous"]["q_g"], r["continuous"]["q_c"],
             r["predicted_rate"], r["predicted_distortion"]] for r in report["allocations"]]
    bd = [[name, omega, gap] for omega, gap in report["evaluation"]["bd_psnr_db"].items()]
    return rows, bd


def main() -> int:
    rows, bd = [], []
    for name, config in configs().items():
        more_rows, more_bd = table_of(name, written_report(config))
        rows += more_rows
        bd += more_bd
    lines = ",\n".join(json.dumps(r) for r in rows)
    bd_lines = ",\n".join(json.dumps(b) for b in bd)
    TABLE.write_text(f'{{"fields": {json.dumps(ROW_FIELDS)},\n"rows": [\n{lines}\n],\n'
                     f'"bd_psnr_db": [\n{bd_lines}\n]}}\n')
    print(f"wrote {len(rows)} rows and {len(bd)} BD-PSNR entries to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
