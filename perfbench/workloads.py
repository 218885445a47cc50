"""The benchmark's workloads: seeded inputs, one op, and the output check.

A workload is built in two steps. ``__init__`` generates and writes the
inputs with numpy alone; ``bind`` imports the library and builds the
library objects an op needs, so it belongs to the timed set-up. ``op``
runs one operation through ``pcbitalloc.cli.main`` and returns its exit
code; ``capture`` reads what the op wrote, outside the timed region; and
``check`` compares every capture with the independent reference after
the measured loop.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import inputs
import reference

METRIC_POINTS = 25_000
WARMUP_POINTS = 2_000
STUDY_CONFIGS = 8
STUDY_TARGETS = 32
STUDY_OMEGAS = (0.25, 0.5, 0.75)


class MetricWorkload:
    """``pcbitalloc metric`` on one generated reference/reconstruction pair."""

    def __init__(self, kind: str, seed: int, workdir: Path, n: int):
        self.kind = kind
        rng = np.random.default_rng([seed, 1 if kind == "sparse" else 2])
        make = inputs.sparse_pair if kind == "sparse" else inputs.lattice_pair
        self.ref, self.ref_col, self.rec, self.rec_col = make(rng, n)
        binary = kind == "sparse"
        suffix = "bin" if binary else "ascii"
        self.ref_path = workdir / f"{kind}_{n}_ref_{suffix}.ply"
        self.rec_path = workdir / f"{kind}_{n}_rec_{suffix}.ply"
        self.out_path = workdir / f"{kind}_{n}_metric.json"
        self.ref_bytes = inputs.write_ply(self.ref_path, self.ref, self.ref_col, binary)
        if binary:
            inputs.write_ply(self.rec_path, self.rec, self.rec_col, binary)
        self.items_per_op = 2 * n
        self.items_name = "points_per_s"

    def bind(self):
        from pcbitalloc import cloud

        self.cloud = cloud
        if self.kind == "lattice":
            self.rec_cloud = cloud.PointCloud(self.rec, self.rec_col, inputs.BIT_DEPTH)

    def op(self, i: int, main) -> int:
        if self.kind == "lattice":
            # looked up on the module at each call, so a traced op sees the span
            self.cloud.save_ply(self.rec_cloud, self.rec_path)
        return main(["metric", str(self.ref_path), str(self.rec_path),
                     "-o", str(self.out_path)])

    def capture(self, i: int):
        return self.out_path.read_bytes()

    def check(self, captures: list) -> tuple[list[list[str]], dict]:
        want = reference.expected_metric(self.ref, self.ref_col, self.rec, self.rec_col)
        verdicts = {None: ["no output"]}
        for blob in captures:
            if blob not in verdicts:
                verdicts[blob] = _errors(lambda: reference.check_metric(
                    json.loads(blob), want, len(self.ref), len(self.rec)))
        results = [verdicts[blob] for blob in captures]
        descriptor = {
            "points_ref": len(self.ref),
            "points_rec": len(self.rec),
            "ply_bytes_ref": self.ref_bytes,
            "ply_bytes_rec": self.rec_path.stat().st_size,
            "ply_format": "binary" if self.kind == "sparse" else "ascii",
            "tied_frac_rec_to_ref": want["tied_frac_rec_to_ref"],
            "tied_frac_ref_to_rec": want["tied_frac_ref_to_rec"],
            "reference_brute_force_rows": want["brute_rows"],
        }
        return results, descriptor


class StudyWorkload:
    """``pcbitalloc simulate -o … --csv`` cycling over seeded codec configs."""

    def __init__(self, exhaustive: bool, seed: int, workdir: Path,
                 n_configs: int, n_targets: int):
        rng = np.random.default_rng([seed, 3 if exhaustive else 4])
        self.configs = inputs.study_configs(rng, n_configs, n_targets,
                                            STUDY_OMEGAS, exhaustive)
        tag = "esa" if exhaustive else "pba"
        self.spec_paths, self.out_paths = [], []
        for k, config in enumerate(self.configs):
            spec = workdir / f"study_{tag}_{n_targets}_{k}.json"
            inputs.write_json(spec, config)
            self.spec_paths.append(spec)
            self.out_paths.append(spec.with_name(spec.stem + "_report.json"))
        self.items_per_op = n_targets * len(STUDY_OMEGAS)
        self.items_name = "allocs_per_s"

    def bind(self):
        pass

    def op(self, i: int, main) -> int:
        k = i % len(self.configs)
        return main(["simulate", "--spec", str(self.spec_paths[k]),
                     "-o", str(self.out_paths[k]), "--csv"])

    def capture(self, i: int):
        out = self.out_paths[i % len(self.configs)]
        return (out.read_bytes(), out.with_suffix(".allocations.csv").read_bytes())

    def check(self, captures: list) -> tuple[list[list[str]], dict]:
        from pcbitalloc.simcodec import encode, spec_from_dict

        reports: dict[int, dict] = {}

        def verdict(k: int, capture: tuple[bytes, bytes]) -> list[str]:
            config = self.configs[k]
            report = json.loads(capture[0])
            sweep = reference.grid_sweep(encode, spec_from_dict(config["codec"]))
            errors = reference.check_report(report, config, sweep, capture[1].decode())
            if not errors:
                reports.setdefault(k, report)
            return errors

        verdicts = {None: ["no output"]}
        first: dict[int, tuple] = {}
        results = []
        for i, capture in enumerate(captures):
            k = i % len(self.configs)
            if capture not in verdicts:
                verdicts[capture] = _errors(lambda: verdict(k, capture))
            errors = list(verdicts[capture])
            if capture is not None and first.setdefault(k, capture) != capture:
                errors.append(f"config {k}: report bytes differ from the first repeat")
            results.append(errors)
        qpe, be = [], []
        for report in reports.values():
            q, b = reference.study_quality(report)
            qpe += q
            be += b
        descriptor = {
            "configs": len(self.configs),
            "allocations_per_op": self.items_per_op,
            "report_encode_calls_per_op": sorted(
                {sum(r["evaluation"]["encode_calls"].values()) for r in reports.values()}),
            "qpe_mean": float(np.mean(qpe)) if qpe else None,
            "be_pct_mean": float(np.mean(be)) if be else None,
        }
        return results, descriptor


def _errors(check) -> list[str]:
    """The checker's findings, or the reason an output could not be read."""
    try:
        return check()
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def make(name: str, seed: int, workdir: Path, warmup: bool = False):
    n = WARMUP_POINTS if warmup else METRIC_POINTS
    n_configs, n_targets = (1, 4) if warmup else (STUDY_CONFIGS, STUDY_TARGETS)
    if name == "metric_sparse":
        return MetricWorkload("sparse", seed, workdir, n)
    if name == "metric_lattice":
        return MetricWorkload("lattice", seed, workdir, n)
    if name == "study_esa":
        return StudyWorkload(True, seed, workdir, n_configs, n_targets)
    if name == "study_pba":
        return StudyWorkload(False, seed, workdir, n_configs, n_targets)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("metric_sparse", "metric_lattice", "study_esa", "study_pba")
