"""Synthetic codec: ground-truth models plus seeded noise.

Stands in for a real geometry+color encoder during studies. Geometry
distortion is affine in the geometry step; color distortion is additive
in the two steps (optionally with an injected cross-coupling term to
stress that assumption); each bitstream follows a power law in its own
step. Observations can carry seeded noise: multiplicative
lognormal on rates, additive Gaussian scaled by the clean value on
distortions. Encoding is a pure function of (spec, qp): each spec
builds its ``grid``, the (r_g, r_c, d_g, d_c) of all 441 QP pairs as one
read-only 21x21x4 array, when it is built. Its one cell rule refuses it
unless every cell has finite, positive rates and finite, non-negative
distortions, the noise-free ones under a noisy grid's clamp at 0 included.
An encode reads the cell at ``QpPair.cell`` into the ``ProbeRecord`` a
probe log row holds, so it cannot fail for a spec that exists; an
exhaustive baseline and a report's rows read the array itself. A noisy spec's grid takes one
21x21x4 table of standard normals, drawn from PCG64 seeded with
(spec.seed, 1), so replays are bit-identical.

A spec comes from a config's ``codec`` object through ``spec_from_dict``,
the inverse of ``spec_to_dict``; a variant of a spec is
``dataclasses.replace(spec, ...)``, which re-runs its checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .metrics import FitQuality, fit_quality
from .models import (
    QP_MAX,
    QP_MIN,
    DistortionModel,
    ProbeRecord,
    QpPair,
    RateModel,
    _read_only,
    finite_number,
    step_grid,
    weighted_distortion_model,
)

# Constant simulated wall time per encode call, so complexity quotients
# reduce to call-count ratios.
ENCODE_TIME_MS = 1000.0

# The grid's streams, the spec fields each is computed from, and how its
# cells can leave their range; ``_LEAST`` is the least finite value a cell
# of each may hold: rates are positive, distortions non-negative.
_STREAMS = (("geometry rate", "rate.gamma_g, rate.theta_g", "underflow to 0 or overflow"),
            ("color rate", "rate.gamma_c, rate.theta_c", "underflow to 0 or overflow"),
            ("geometry distortion", "alpha_g, beta_g", "overflow or turn negative"),
            ("color distortion", "alpha_gc, alpha_cc, beta_c, coupling",
             "overflow or turn negative"))
_LEAST = np.array([math.ulp(0.0), math.ulp(0.0), 0.0, 0.0])


@dataclass(frozen=True)
class SyntheticCodecSpec:
    alpha_g: float
    beta_g: float
    alpha_gc: float
    alpha_cc: float
    beta_c: float
    rate: RateModel
    noise_rel: float = 0.0
    coupling: float = 0.0
    overhead_kbpmp: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (
                self.alpha_g, self.beta_g, self.alpha_gc, self.alpha_cc, self.beta_c,
                self.noise_rel, self.coupling, self.overhead_kbpmp))):
            raise ValidationError("codec spec values must be finite")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError("codec seed must be a non-negative integer")
        if min(self.alpha_g, self.alpha_gc, self.alpha_cc,
               self.noise_rel, self.overhead_kbpmp) < 0:
            raise ValidationError("codec slopes, noise and overhead must be non-negative")
        if self.noise_rel > 1:
            # a larger lognormal sigma can overflow math.exp in ``grid``
            raise ValidationError("codec noise_rel must not exceed 1")
        bad = ~(np.isfinite(self.grid) & (self.grid >= _LEAST))
        # noise clamps the grid's distortions at 0, so a negative noise-free
        # distortion shows only in the planes under it
        q = np.array(step_grid())
        with np.errstate(over="ignore", invalid="ignore"):
            d_g, d_c = self.distortions(q[:, None], q)
        bad[..., 2] |= d_g < 0
        bad[..., 3] |= d_c < 0
        if bad.any():
            raise ValidationError("; ".join(
                f"codec {inputs} make the {stream} {rule} on the QP grid"
                for (stream, inputs, rule), failed in zip(_STREAMS, bad.any(axis=(0, 1)))
                if failed))

    def distortions(self, q_g: float, q_c: float) -> tuple[float, float]:
        """Noise-free (geometry, color) distortion at a step pair, or
        elementwise over broadcast step arrays."""
        d_g = self.alpha_g * q_g + self.beta_g
        d_c = (self.alpha_gc * q_g + self.alpha_cc * q_c + self.beta_c
               + self.coupling * q_g * q_c)
        return d_g, d_c

    @cached_property
    def noise_table(self) -> np.ndarray:
        """Four standard normals per grid cell, indexed by ``QpPair.cell``:
        the (r_g, r_c, d_g, d_c) draws of that cell's encode."""
        # SeedSequence drops trailing zero words, so (seed, 0) would replay
        # the stream random_spec(seed) draws the codec's parameters from
        rng = np.random.default_rng((self.seed, 1))
        n = QP_MAX - QP_MIN + 1
        return _read_only(rng.standard_normal((n, n, 4)))

    @cached_property
    def grid(self) -> np.ndarray:
        """(r_g, r_c, d_g, d_c) of every grid cell, indexed by ``QpPair.cell``,
        read-only: what ``encode`` reads. Rates follow the power laws and
        distortions ``distortions``; a noisy spec scales each rate by
        exp(noise_rel * z) and each distortion by 1 + noise_rel * z, z its
        cell's ``noise_table`` draws, and clamps the distortions at 0.

        Each cell equals a per-pair loop in Python floats bit for bit, as the
        same operations run in the same order: Python ``**`` and
        ``math.exp``, whose numpy counterparts can differ in the last bit;
        the clamp ``max(0.0, x)`` written ``where(x > 0.0, x, 0.0)``, which
        maps -0.0 and NaN to 0.0 as it does; and overflow to inf or NaN
        passes without a warning, as it does in Python float arithmetic.
        """
        steps = step_grid()
        q = np.array(steps)
        n, rate, noise = len(steps), self.rate, self.noise_rel
        grid = np.empty((n, n, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            grid[..., 0] = rate.gamma_g * np.array([s**rate.theta_g for s in steps])[:, None]
            grid[..., 1] = rate.gamma_c * np.array([s**rate.theta_c for s in steps])
            grid[..., 2], grid[..., 3] = self.distortions(q[:, None], q)
            if noise > 0:
                z = self.noise_table
                exps = map(math.exp, (noise * z[..., :2]).ravel().tolist())
                grid[..., :2] *= np.fromiter(exps, float, 2 * n * n).reshape(n, n, 2)
                noisy = grid[..., 2:] * (1.0 + noise * z[..., 2:])
                grid[..., 2:] = np.where(noisy > 0.0, noisy, 0.0)
        return _read_only(grid)

    def distortion_model(self, omega: float) -> DistortionModel:
        """Ground-truth combined distortion plane at a weighting factor."""
        return weighted_distortion_model(omega, (self.alpha_g, self.beta_g),
                                         (self.alpha_gc, self.alpha_cc, self.beta_c))


def encode(spec: SyntheticCodecSpec, qp: QpPair) -> ProbeRecord:
    """Simulate one encoding at a QP pair, a pure function of its inputs:
    the pair's cell of ``spec.grid``."""
    return ProbeRecord(qp, *spec.grid[qp.cell].tolist())


def probe_schedule() -> tuple[QpPair, QpPair, QpPair]:
    """The three (geometry, color) QP pairs used for model fitting."""
    return (QpPair(33, 25), QpPair(34, 35), QpPair(24, 33))


def run_probe_schedule(spec: SyntheticCodecSpec) -> list[ProbeRecord]:
    return [encode(spec, qp) for qp in probe_schedule()]


@dataclass(frozen=True)
class SeparabilityReport:
    residual_fraction: float
    scc: float
    rmse: float
    grid_shape: tuple[int, int]


def validate_separability(spec: SyntheticCodecSpec,
                          qp_g_values: Sequence[int],
                          qp_c_values: Sequence[int]) -> SeparabilityReport:
    """Check that measured color distortion is additive in the two steps.

    Reads the color distortion of the product of the QP values, each a
    grid QP as ``QpPair`` takes it and repeats folded, from the spec's
    grid, least-squares fits the additive surface f_g(Qg) + f_c(Qc)
    (row/column means on a complete grid), and reports the residual
    cross-term energy as a fraction of the total variance plus the squared
    correlation of the additive fit.
    """
    rows = sorted({QpPair(qp, QP_MIN).cell[0] for qp in qp_g_values})
    columns = sorted({QpPair(QP_MIN, qp).cell[1] for qp in qp_c_values})
    if len(rows) < 4 or len(columns) < 4:
        raise ValidationError("separability grid must span at least 4x4 QP pairs")
    dc = spec.grid[..., 3][np.ix_(rows, columns)]
    grand = dc.mean()
    fit = dc.mean(axis=1, keepdims=True) + dc.mean(axis=0, keepdims=True) - grand
    ss_total = float(((dc - grand) ** 2).sum())
    ss_resid = float(((dc - fit) ** 2).sum())
    rmse = math.sqrt(ss_resid / dc.size)
    if ss_total == 0.0:
        return SeparabilityReport(0.0, 1.0, rmse, dc.shape)
    quality: FitQuality = fit_quality(dc.ravel(), fit.ravel())
    return SeparabilityReport(ss_resid / ss_total, quality.scc, rmse, dc.shape)


def random_spec(seed: int, noise_rel: float = 0.0,
                coupling: float = 0.0) -> SyntheticCodecSpec:
    """Draw a well-posed synthetic codec from seeded, codec-plausible ranges."""
    rng = np.random.default_rng(seed)
    rate = RateModel(
        gamma_g=float(rng.uniform(500.0, 20000.0)),
        theta_g=float(rng.uniform(-1.8, -0.6)),
        gamma_c=float(rng.uniform(300.0, 10000.0)),
        theta_c=float(rng.uniform(-1.8, -0.6)),
    )
    return SyntheticCodecSpec(
        alpha_g=float(rng.uniform(0.01, 0.5)),
        beta_g=float(rng.uniform(0.1, 2.0)),
        alpha_gc=float(rng.uniform(0.0, 0.3)),
        alpha_cc=float(rng.uniform(0.05, 1.0)),
        beta_c=float(rng.uniform(0.5, 5.0)),
        rate=rate,
        noise_rel=noise_rel,
        coupling=coupling,
        seed=seed,
    )


_FLOAT_FIELDS = {f.name for f in fields(SyntheticCodecSpec) if f.type == "float"}


def spec_to_dict(spec: SyntheticCodecSpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> SyntheticCodecSpec:
    """Inverse of ``spec_to_dict``; every float field, the rate model's
    included, must be a finite JSON number."""
    try:
        rate = RateModel(**{k: finite_number(f"rate.{k}", v, "codec")
                            for k, v in d["rate"].items()})
        values = {k: finite_number(k, v, "codec") if k in _FLOAT_FIELDS else v
                  for k, v in d.items() if k != "rate"}
        return SyntheticCodecSpec(rate=rate, **values)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"bad codec spec: {exc}") from exc
