"""Allocator-vs-baseline evaluation: BE, QPE, CQ, and BD-PSNR."""

from __future__ import annotations

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


def compute_cq(t_pba: float, t_esa: float) -> float:
    """Encoding-time ratio in percent (both durations in the same unit)."""
    if t_esa <= 0:
        raise ValidationError("baseline duration must be positive")
    if t_pba < 0:
        raise ValidationError("duration must be non-negative")
    return t_pba / t_esa * 100.0


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
