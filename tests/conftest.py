"""Shared fixtures: random clouds, brute-force metric oracles, solver
instances, codecs whose grid leaves its range, values that are not grid
QPs, a counter of codec grid builds."""

import math
from functools import cached_property

import numpy as np
import pytest

from pcbitalloc.cloud import LUMA_SCALE, PointCloud, luma_scaled
from pcbitalloc.simcodec import SyntheticCodecSpec, random_spec


def make_cloud(rng, n, bit_depth=10):
    hi = 1 << bit_depth
    return PointCloud(
        rng.integers(0, hi, (n, 3)),
        rng.integers(0, 256, (n, 3)),
        bit_depth,
    )


def brute_force_nn(points, queries, chunk=256):
    """O(n*m) exact nearest neighbors: (indices, squared distances) in int64.

    np.argmin returns the first minimum, which is the smallest point index.
    """
    pts = np.asarray(points, dtype=np.int64)
    qs = np.asarray(queries, dtype=np.int64)
    idx = np.empty(len(qs), dtype=np.int64)
    d2 = np.empty(len(qs), dtype=np.int64)
    for i in range(0, len(qs), chunk):
        blk = qs[i:i + chunk]
        diff = blk[:, None, :] - pts[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)
        best = np.argmin(dist, axis=1)
        idx[i:i + chunk] = best
        d2[i:i + chunk] = dist[np.arange(len(blk)), best]
    return idx, d2


def brute_directed_errors(b, a, luma_weights="bt709"):
    """Directed geometry and color errors of b against a, exact arithmetic."""
    nn, d2 = brute_force_nn(a.positions, b.positions)
    e_g = int(d2.astype(object).sum()) / len(b)
    dy = luma_scaled(b.colors, luma_weights) - luma_scaled(a.colors, luma_weights)[nn]
    e_c = int((dy * dy).astype(object).sum()) / (len(b) * LUMA_SCALE * LUMA_SCALE)
    return e_g, e_c


def brute_symmetric(a, b, luma_weights="bt709"):
    eg1, ec1 = brute_directed_errors(b, a, luma_weights)
    eg2, ec2 = brute_directed_errors(a, b, luma_weights)
    return max(eg1, eg2), max(ec1, ec2)


def well_posed_instance(seed):
    """Random codec-plausible allocation instance with a feasible coarse start.

    The budget is the true rate at a uniformly drawn interior step pair,
    above the rate at steps (80, 80) by more than 0.1%, so every instance
    is solvable from the coarsest grid pair, strictly inside the budget.
    """
    rng = np.random.default_rng((77, seed))
    attempt = 0
    while True:
        spec = random_spec(seed=int(rng.integers(0, 2**31)))
        omega = 0.5 if (seed + attempt) % 2 == 0 else 0.25
        rm = spec.rate
        qg_t, qc_t = rng.uniform(8.0, 80.0, 2)
        r_target = rm.gamma_g * qg_t**rm.theta_g + rm.gamma_c * qc_t**rm.theta_c
        r_start = rm.gamma_g * 80.0**rm.theta_g + rm.gamma_c * 80.0**rm.theta_c
        if r_target > r_start * 1.001:
            return spec, omega, r_target
        attempt += 1


# Codec fields that take a grid stream out of its range, with the refusal
# that names them. On the tests' base specs, noisy or not: alpha_g
# overflows d_g from qp_g 41 or 42 on, alpha_gc d_c from qp_g 29 or 30 on
# (two of the three probes), and coupling d_c where qp_g and qp_c are both
# 31 or more; theta_g -180 underflows r_g to 0 from qp_g 40 on, and
# gamma_c 5e-324 underflows r_c to 0 in every cell.
_RATE, _DISTORTION = "underflow to 0 or overflow", "overflow or turn negative"
GRID_REFUSALS = [
    ("alpha_g", 2.5e306, f"codec alpha_g, beta_g make the geometry distortion "
                         f"{_DISTORTION} on the QP grid"),
    ("alpha_gc", 1e307, f"codec alpha_gc, alpha_cc, beta_c, coupling make the color "
                        f"distortion {_DISTORTION} on the QP grid"),
    ("coupling", 1e305, f"codec alpha_gc, alpha_cc, beta_c, coupling make the color "
                        f"distortion {_DISTORTION} on the QP grid"),
    ("rate.theta_g", -180.0, f"codec rate.gamma_g, rate.theta_g make the geometry rate "
                             f"{_RATE} on the QP grid"),
    ("rate.gamma_c", 5e-324, f"codec rate.gamma_c, rate.theta_c make the color rate "
                             f"{_RATE} on the QP grid"),
]


# Values that are not grid QPs though some compare or convert like one;
# every boundary that takes a QP refuses each as a validation error.
NOT_QPS = [True, 22.0, 22.5, "22", None, math.nan, math.inf]
NOT_QP_IDS = ["bool", "integral-float", "float", "string", "none", "nan", "inf"]


def with_field(codec: dict, field: str, value) -> dict:
    """A copy of a ``spec_to_dict`` tree with one field set; "rate.<name>"
    names a field of the rate model."""
    codec = dict(codec, rate=dict(codec["rate"]))
    owner, _, name = field.rpartition(".")
    (codec["rate"] if owner else codec)[name] = value
    return codec


def count_grid_builds(monkeypatch) -> list:
    """Wrap ``SyntheticCodecSpec.grid``; returns the specs whose grid was built."""
    built = []
    real = SyntheticCodecSpec.grid.func

    def counted(spec):
        built.append(spec)
        return real(spec)

    grid = cached_property(counted)
    grid.__set_name__(SyntheticCodecSpec, "grid")
    monkeypatch.setattr(SyntheticCodecSpec, "grid", grid)
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
