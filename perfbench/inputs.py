"""Seeded input generators and the benchmark's own PLY writer.

Everything here uses numpy only, so the inputs of a run do not depend on
the library under test: a faster or slower ``save_ply`` shows only in the
workload whose op calls it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BIT_DEPTH = 10
_SIDE = 1 << BIT_DEPTH
_PLY_DTYPE = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                       ("red", "u1"), ("green", "u1"), ("blue", "u1")])


def write_ply(path: Path, positions: np.ndarray, colors: np.ndarray,
              binary: bool) -> int:
    """Write x,y,z as float and r,g,b as uchar, as ``save_ply`` lays them out.

    Returns the file size in bytes.
    """
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        f"ply\nformat {fmt} 1.0\ncomment bit_depth {BIT_DEPTH}\n"
        f"element vertex {len(positions)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            body = np.empty(len(positions), dtype=_PLY_DTYPE)
            for k, name in enumerate(("x", "y", "z")):
                body[name] = positions[:, k]
            for k, name in enumerate(("red", "green", "blue")):
                body[name] = colors[:, k]
            body.tofile(fh)
        else:
            np.savetxt(fh, np.hstack([positions, colors]), fmt="%d")
    return path.stat().st_size


def sparse_pair(rng: np.random.Generator, n: int):
    """Uniform 10-bit cloud and a copy jittered by up to 2 voxels per axis.

    Distinct uniform points are far apart, so almost no query row has two
    equidistant neighbours: the tie path of the metric is nearly idle.
    """
    lin = np.unique(rng.integers(0, _SIDE**3, size=n + n // 10))
    lin = rng.permutation(lin)[:n]
    ref = np.stack(np.unravel_index(lin, (_SIDE,) * 3), axis=1).astype(np.int64)
    ref_col = rng.integers(0, 256, size=(n, 3))
    rec = np.clip(ref + rng.integers(-2, 3, size=(n, 3)), 0, _SIDE - 1)
    rec_col = np.clip(ref_col + rng.integers(-12, 13, size=(n, 3)), 0, 255)
    return ref, ref_col, rec, rec_col


def lattice_pair(rng: np.random.Generator, n: int, step: int = 4):
    """Points on a bumpy sphere and a codec-like copy snapped to a coarse lattice.

    The surface holds about one point per 16 voxels of area, so a step-4
    lattice site gathers one point on average: the copy keeps every
    point, and the metric's exact tie resolution does real work on the
    sites that gather two or more. Colours are smooth over the surface
    and quantized in the copy.
    """
    radius = 4.0 * np.sqrt(n / (4 * np.pi))
    reach = int(np.ceil(1.12 * radius)) + step
    center = rng.integers(reach, _SIDE - reach, size=3)
    lobes = (3, 4)  # fixed, so the surface area and the tie load do not vary by seed
    phase = rng.uniform(0, 2 * np.pi, size=2)
    m = n + n // 5
    theta = np.arccos(rng.uniform(-1.0, 1.0, size=m))
    phi = rng.uniform(0.0, 2 * np.pi, size=m)
    r = radius * (1.0 + 0.12 * np.sin(lobes[0] * theta + phase[0])
                  * np.cos(lobes[1] * phi + phase[1]))
    xyz = np.stack([r * np.sin(theta) * np.cos(phi),
                    r * np.sin(theta) * np.sin(phi),
                    r * np.cos(theta)], axis=1)
    vox = np.unique(np.rint(xyz).astype(np.int64) + center, axis=0)
    if len(vox) < n:
        raise ValueError(f"surface has only {len(vox)} distinct voxels, {n} asked")
    ref = vox[rng.permutation(len(vox))[:n]]
    wave = np.sin((ref - center) / radius * np.array([3.0, 5.0, 7.0]))
    ref_col = np.clip(128 + 90 * wave + rng.normal(0, 6, size=(n, 3)), 0, 255)
    ref_col = np.rint(ref_col).astype(np.int64)
    rec = np.rint(ref / step).astype(np.int64) * step
    rec_col = np.clip(ref_col // 16 * 16 + 8, 0, 255)
    return ref, ref_col, rec, rec_col


def _rate(rate: dict, step: float) -> float:
    return (rate["gamma_g"] * step ** rate["theta_g"]
            + rate["gamma_c"] * step ** rate["theta_c"])


def _step(qp: int) -> float:
    return 2.0 ** ((qp - 4) / 6.0)


def _fitted_rate(codec: dict) -> dict:
    """The power laws ``simulate`` fits through the noisy (33,25) and (34,35) probes.

    Mirrors the synthetic codec's rate noise: a lognormal factor per
    stream drawn from PCG64 seeded with (seed, qp_g, qp_c).
    """
    rate, noise = codec["rate"], codec["noise_rel"]
    obs = []
    for qp_g, qp_c in ((33, 25), (34, 35)):
        z = np.random.default_rng((codec["seed"], qp_g, qp_c)).standard_normal(4)
        obs.append((_step(qp_g), rate["gamma_g"] * _step(qp_g) ** rate["theta_g"]
                    * np.exp(noise * z[0]),
                    _step(qp_c), rate["gamma_c"] * _step(qp_c) ** rate["theta_c"]
                    * np.exp(noise * z[1])))
    (qg1, rg1, qc1, rc1), (qg2, rg2, qc2, rc2) = obs
    theta_g = np.log(rg1 / rg2) / np.log(qg1 / qg2)
    theta_c = np.log(rc1 / rc2) / np.log(qc1 / qc2)
    return {"gamma_g": rg1 / qg1**theta_g, "theta_g": theta_g,
            "gamma_c": rc1 / qc1**theta_c, "theta_c": theta_c}


def study_configs(rng: np.random.Generator, n_configs: int, n_targets: int,
                  omegas, run_exhaustive: bool) -> list[dict]:
    """Noisy synthetic-codec ``simulate`` configs with feasible targets.

    Targets lie between 1.3x the rate at the solver's (80, 80) start and
    0.9x the rate at the finest grid step (8): a target below the start
    rate aborts the whole run instead of one row. The start rate is the
    larger of the noise-free one and the one the fitted model predicts,
    because two probes one QP apart fix the fitted geometry exponent
    poorly and its extrapolation to step 80 can overshoot.
    """
    configs = []
    for _ in range(n_configs):
        rate = {
            "gamma_g": float(rng.uniform(500.0, 20000.0)),
            "theta_g": float(rng.uniform(-1.8, -0.6)),
            "gamma_c": float(rng.uniform(300.0, 10000.0)),
            "theta_c": float(rng.uniform(-1.8, -0.6)),
        }
        codec = {
            # Slope floors keep the fitted slopes positive under the noise;
            # simulate refuses a model with a negative slope.
            "alpha_g": float(rng.uniform(0.05, 0.5)),
            "beta_g": float(rng.uniform(0.1, 2.0)),
            "alpha_gc": float(rng.uniform(0.02, 0.3)),
            "alpha_cc": float(rng.uniform(0.05, 1.0)),
            "beta_c": float(rng.uniform(0.5, 5.0)),
            "rate": rate,
            "noise_rel": 0.005,
            "coupling": 0.0,
            "overhead_kbpmp": 0.0,
            "seed": int(rng.integers(0, 2**31)),
        }
        start = max(_rate(rate, 80.0), _rate(_fitted_rate(codec), 80.0))
        lo, hi = 1.3 * start, 0.9 * _rate(rate, 8.0)
        targets = np.round(np.sort(rng.uniform(lo, hi, size=n_targets)), 3)
        configs.append({
            "codec": codec,
            "targets": [float(t) for t in targets],
            "omegas": list(omegas),
            "run_exhaustive": run_exhaustive,
            # The default cap of 100 Newton steps aborted 3 of 2,400 noisy
            # configs (see README.md); a solve that converges within 100 steps
            # returns the same result under the higher cap.
            "solver": {"max_newton_iters": 1000},
        })
    return configs


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
