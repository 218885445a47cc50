"""Allocator-vs-baseline evaluation: BE, QPE, CQ and BD-PSNR, plus two
quality statistics: the PSNR of a weighted distortion and the fit quality
(SCC, RMSE, NRMSE) of modeled against actual values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .models import QpPair


def compute_be(actual: float, target: float) -> float:
    """Bitrate error as a percentage of the target."""
    if target <= 0:
        raise ValidationError("target bitrate must be positive")
    return abs(actual - target) / target * 100.0


def compute_qpe(pba: QpPair, esa: QpPair) -> int:
    """Summed absolute QP deviation between the two allocations."""
    return abs(pba.qp_g - esa.qp_g) + abs(pba.qp_c - esa.qp_c)


def compute_cq(pba_encodes: float, esa_encodes: float) -> float:
    """Encoding-cost ratio in percent: the allocator's encode calls over the baseline's."""
    if esa_encodes <= 0:
        raise ValidationError("baseline encode count must be positive")
    if pba_encodes < 0:
        raise ValidationError("encode count must be non-negative")
    return pba_encodes / esa_encodes * 100.0


def _check_curve(curve, label: str) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(curve, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise ValidationError(f"{label} needs at least 4 (rate, psnr) points")
    if not np.isfinite(pts).all():
        # a lossless point has psnr +inf, which no cubic fit can take
        raise ValidationError(f"{label} needs finite rates and PSNRs")
    rates, quality = pts[:, 0], pts[:, 1]
    if rates.min() <= 0:
        raise ValidationError(f"{label} rates must be positive")
    if np.any(np.diff(rates) <= 0):
        raise ValidationError(f"{label} must be sorted by strictly increasing rate")
    return rates, quality


def bd_psnr(curve_a: Sequence, curve_b: Sequence) -> float:
    """Average PSNR gap of curve_b over curve_a across their shared rates.

    Classic formulation: each curve's PSNR is fitted with a cubic
    polynomial in log10(rate) and the fits are integrated analytically
    over the overlapping log-rate interval. Positive means curve_b sits
    above curve_a.
    """
    ra, qa = _check_curve(curve_a, "curve_a")
    rb, qb = _check_curve(curve_b, "curve_b")
    la, lb = np.log10(ra), np.log10(rb)
    lo = max(la.min(), lb.min())
    hi = min(la.max(), lb.max())
    if hi <= lo:
        raise ValidationError("curves do not overlap in rate")
    pa = np.polyfit(la, qa, 3)
    pb = np.polyfit(lb, qb, 3)
    ia = np.polyint(pa)
    ib = np.polyint(pb)
    int_a = np.polyval(ia, hi) - np.polyval(ia, lo)
    int_b = np.polyval(ib, hi) - np.polyval(ib, lo)
    return float((int_b - int_a) / (hi - lo))


@dataclass(frozen=True)
class FitQuality:
    scc: float
    rmse: float
    nrmse: float


def psnr(d_g: float, d_c: float, omega: float,
         geometry_peak: float, color_peak: float) -> float:
    """PSNR in dB of the weighted normalized MSE; +inf when lossless."""
    # chained comparisons are false for NaN, so they refuse it too
    if not (0 < geometry_peak < math.inf and 0 < color_peak < math.inf):
        raise ValidationError("peaks must be positive and finite")
    if not 0.0 <= omega <= 1.0:
        raise ValidationError("omega must lie in [0, 1]")
    if not (0 <= d_g < math.inf and 0 <= d_c < math.inf):
        raise ValidationError("distortions must be non-negative and finite")
    nmse = omega * d_g / geometry_peak**2 + (1.0 - omega) * d_c / color_peak**2
    if nmse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / nmse)


def fit_quality(actual, fitted) -> FitQuality:
    """Squared correlation, RMSE, and RMSE normalized by the largest observation."""
    x = np.asarray(actual, dtype=np.float64)
    y = np.asarray(fitted, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("actual and fitted must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ValidationError("need at least two observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValidationError("correlation undefined for a constant reference")
    syy = float(yc @ yc)
    if syy == 0.0:
        scc = 0.0
    else:
        r = float(xc @ yc) / math.sqrt(sxx * syy)
        scc = min(r * r, 1.0)
    rmse = float(np.sqrt(np.mean((x - y) ** 2)))
    xmax = float(x.max())
    nrmse = rmse / xmax if xmax > 0 else math.nan
    return FitQuality(scc, rmse, nrmse)
