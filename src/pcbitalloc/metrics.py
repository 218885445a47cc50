"""Point-to-point distortion metrics and fit-quality statistics.

The geometry error of cloud B against cloud A is the mean squared
Euclidean distance from each point of B to its nearest neighbor in A;
the color error applies the same neighbor assignment to the luma values.
Both are symmetrized by taking the max over the two directions (the D1
point-to-point metric of MPEG's ``pc_error``). The neighbor of a query
is exact: it minimizes the integer squared distance, and ties go to the
smallest point index.

``NnIndex`` gets there without a per-point loop. It dedupes the cloud
once at build time, keeping the smallest original index of each site,
and builds a kd-tree over the distinct sites. A query asks the tree for
a few candidate sites per row, re-ranks them in int64 and takes the
smallest original index among the candidates at the best distance. Only
a row whose last candidate still ties the best can have more tied sites
than were returned; those rows alone are re-queried by radius.

Squared distances are integers (voxel coordinates are integers, luma is
scaled to an integer grid), so the means are exact integer sums divided
once at the end: int64 while the sum cannot overflow, arbitrary-precision
integers beyond that. Results are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import LUMA_SCALE, PointCloud, luma_scaled
from .errors import SccUndefinedError, ValidationError
from .models import weighted


@dataclass(frozen=True)
class DistortionPair:
    d_g: float
    d_c: float

    def __post_init__(self):
        if self.d_g < 0 or self.d_c < 0:
            raise ValidationError("distortions must be non-negative")


@dataclass(frozen=True)
class FitQuality:
    scc: float
    rmse: float
    nrmse: float


# kd candidates per query row; a row whose last candidate still ties the
# best is re-queried by radius.
_CANDIDATES = 2
_NO_INDEX = np.iinfo(np.int64).max
# Below 2^25 per axis a squared distance stays below 3 * 2^50, exact in
# float64, so the kd-tree's float ranking is exact and int64 cannot overflow.
_EXACT_LIMIT = 1 << 25


def _check_exact_range(points: np.ndarray) -> None:
    if points.size and (points.min() < 0 or points.max() >= _EXACT_LIMIT):
        raise ValidationError(
            "exact nearest neighbors need coordinates in [0, 2^25)")


class NnIndex:
    """Exact nearest-neighbor index over one cloud's integer positions.

    Duplicate positions are merged at build time into one site that
    carries the smallest original index, so every tie left at query time
    is between distinct sites. Coordinates of sites and queries must lie
    in [0, 2^25), where the kd-tree's float ranking is exact.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) < 1:
            raise ValidationError("cannot index an empty cloud")
        pts = cloud.positions
        _check_exact_range(pts)
        # Stable sort: within a run of equal positions, original order.
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
        ordered = pts[order]
        first = np.ones(len(pts), dtype=bool)
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        self._sites = ordered[first]
        self._site_index = order[first]
        self._tree = cKDTree(self._sites.astype(np.float64), balanced_tree=True)

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbors of integer query points.

        Returns (indices, squared_distances), both int64, one entry per
        query row; the index is the smallest original point index among
        the points at the minimal squared distance.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.int64))
        _check_exact_range(q)
        k = min(_CANDIDATES, len(self._sites))
        _, cand = self._tree.query(q.astype(np.float64), k=k)
        cand = cand.reshape(len(q), k)
        diff = self._sites[cand]
        diff -= q[:, None, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = d2.min(axis=1)
        tied = d2 == best[:, None]
        idx = np.where(tied, self._site_index[cand], _NO_INDEX).min(axis=1)
        if k < len(self._sites):
            # Only these rows can have more tied sites than candidates.
            rows = np.flatnonzero(tied[:, -1])
            if len(rows):
                idx[rows] = self._smallest_tied(q[rows], best[rows])
        return idx, best

    def _smallest_tied(self, q, best) -> np.ndarray:
        """Smallest original index among all sites at squared distance best."""
        # Inflate the radius past sqrt rounding; the exact test follows in ints.
        radius = np.sqrt(best) * (1.0 + 1e-9) + 1e-9
        hits = self._tree.query_ball_point(q.astype(np.float64), radius)
        counts = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
        sites = np.fromiter(itertools.chain.from_iterable(hits),
                            dtype=np.int64, count=int(counts.sum()))
        row = np.repeat(np.arange(len(q)), counts)
        diff = self._sites[sites] - q[row]
        d2 = np.einsum("ij,ij->i", diff, diff)
        index = np.where(d2 == best[row], self._site_index[sites], _NO_INDEX)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.minimum.reduceat(index, starts)


def build_index(cloud: PointCloud) -> NnIndex:
    return NnIndex(cloud)


def _exact_mean(int_values: np.ndarray, denom: int) -> float:
    """Exact sum of non-negative int64 values over denom, rounded once."""
    v = np.asarray(int_values, dtype=np.int64)
    if len(v) * int(v.max()) < 1 << 63:
        total = int(v.sum())
    else:
        total = int(v.astype(object).sum())
    return total / denom


def geometry_error(b: PointCloud, a: PointCloud) -> float:
    """Directed geometry MSE of cloud b against reference a."""
    _, d2 = build_index(a).query(b.positions)
    return _exact_mean(d2, len(b))


def _directed_errors(b: PointCloud, a: PointCloud, index_a: NnIndex,
                     luma_weights: str) -> tuple[float, float]:
    nn, d2 = index_a.query(b.positions)
    e_g = _exact_mean(d2, len(b))
    yb = luma_scaled(b.colors, luma_weights)
    ya = luma_scaled(a.colors, luma_weights)[nn]
    dy = yb - ya
    e_c = _exact_mean(dy * dy, len(b) * LUMA_SCALE * LUMA_SCALE)
    return e_g, e_c


def symmetric_distortion(a: PointCloud, b: PointCloud,
                         luma_weights: str = "bt709") -> DistortionPair:
    """Symmetric point-to-point distortion: max over the two directions.

    The color error reuses the geometry neighbor assignment and compares
    luma values only.
    """
    idx_a = build_index(a)
    idx_b = build_index(b)
    eg_ba, ec_ba = _directed_errors(b, a, idx_a, luma_weights)
    eg_ab, ec_ab = _directed_errors(a, b, idx_b, luma_weights)
    return DistortionPair(max(eg_ba, eg_ab), max(ec_ba, ec_ab))


def combined_distortion(pair: DistortionPair, omega: float) -> float:
    """Weighted sum omega*d_g + (1-omega)*d_c."""
    return weighted(omega, pair.d_g, pair.d_c)


def psnr(d_g: float, d_c: float, omega: float,
         geometry_peak: float, color_peak: float) -> float:
    """PSNR in dB of the weighted normalized MSE; +inf when lossless."""
    if geometry_peak <= 0 or color_peak <= 0:
        raise ValidationError("peaks must be positive")
    if not 0.0 <= omega <= 1.0:
        raise ValidationError("omega must lie in [0, 1]")
    if d_g < 0 or d_c < 0:
        raise ValidationError("distortions must be non-negative")
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
        raise SccUndefinedError("correlation undefined for a constant reference")
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
