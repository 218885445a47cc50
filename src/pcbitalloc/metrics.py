"""Point-to-point distortion: the exact nearest-neighbor index and D1.

The geometry error of cloud B against cloud A is the mean squared
Euclidean distance from each point of B to its nearest neighbor in A;
the color error applies the same neighbor assignment to the luma values.
Both are symmetrized by taking the max over the two directions (the D1
point-to-point metric of MPEG's ``pc_error``); ``models.weighted`` combines
the two. One directed error is the mean of the squared distances that
``NnIndex(a).query(b.positions)`` returns. The neighbor of a query
is exact: it minimizes the integer squared distance, and ties go to the
smallest point index.

``NnIndex`` gets there without a per-point loop. Coordinates must lie
in [0, 2^21); others are refused. One Morton (z-order) key per point,
its three 21-bit coordinates interleaved into 63 bits, groups every
batch of points the same way: sorted by it, equal keys are equal
positions and form one run. At build time each run becomes a site
that keeps the smallest original index, and the sites are stored once,
in key order, as the float64 array the kd-tree is built on; each input
row records its site in an int32 map. A query batch is grouped the same
way: each distinct query point is answered once, in key order, so
neighboring queries walk neighboring tree nodes, and every row takes its
point's answer. The distinct points are answered in chunks of at most
2^16, so the loop's temporaries have the size of a chunk, not of the
cloud. An index passed as the query brings its sites and row records
along, so ``symmetric_distortion`` keys and sorts no cloud twice.

One loop finds the answers. Each round asks the tree for k candidate
sites per query, k = 2 at first, with their distances, and ranks them by
those distances alone. Below 2^21 per axis a squared distance D is below
2^44: the tree sums it exactly in float64 and returns the correctly
rounded sqrt(D), so sites at distinct D come back at distinct distances,
tied sites at one, and rint(d * d) gives D back. The smallest original
index among the candidates at the best distance wins. Tied sites come
first, and only a query whose last candidate ties its best can have
more tied sites than were returned. Those queries alone go round again
with twice as many candidates, within a bound just past the largest of
their best distances, until the count covers every site.

The first round is bounded too. The nearest sites of a sample, every
64th distinct query point in key order, set its bound just past the
farthest of them, once per query, so the tree does not search far for a
second candidate that cannot matter. A query whose first candidate
comes back missing has no site within the bound and is asked again, in
the same round, without one. The results stay exact: tied sites share
one float distance, so they are inside the bound together or outside it
together, and a missing candidate comes back at distance inf, which
ties nothing.

``symmetric_distortion`` runs in two phases, each split over two
threads, one worker and the caller: first the two indexes are built,
then the two directions are computed. The directions share no mutable
state, each only reads the other's index, and the kd-tree build and
query and the large numpy operations release the GIL, so the halves
overlap and the results are the same bits as one after the other. Wall
time drops only when a second core is free; CPU time does not drop.

scipy is imported inside ``NnIndex`` when the first index is built, and
the thread pool inside ``symmetric_distortion``, so importing this
module, or any command that does not build an index, loads neither.

Squared distances are integers (voxel coordinates are integers, luma is
scaled to an integer grid), so the means are exact integer sums divided
once at the end: int64 while the sum cannot overflow, arbitrary-precision
integers beyond that. Results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import LUMA_SCALE, PointCloud, as_integers, luma_scaled
from .errors import ValidationError


@dataclass(frozen=True)
class DistortionPair:
    d_g: float
    d_c: float

    def __post_init__(self):
        if self.d_g < 0 or self.d_c < 0:
            raise ValidationError("distortions must be non-negative")


# kd candidates per query row in the first round; a row whose last
# candidate ties its best goes round again with twice as many.
_CANDIDATES = 2
# The first round's bound comes from the nearest sites of every this-many-th
# distinct query point, in key order.
_SAMPLE_STRIDE = 64
# Distinct query points answered per pass of the candidate loop, so its
# temporaries stay this size whatever the cloud's.
_CHUNK = 1 << 16
# Site maps are int32: an index or a query takes fewer than 2^31 rows.
_ROW_LIMIT = 1 << 31
_NO_INDEX = np.iinfo(np.int32).max
# Below 2^21 per axis a Morton key interleaves the three coordinates into
# 63 bits of an int64, and a squared distance D stays below 2^44: the kd-tree
# sums D exactly in float64 and returns the correctly rounded sqrt(D), so
# distinct D get distinct distances, tied sites equal ones, and rint(d * d) is D.
_COORD_LIMIT = 1 << 21
# Shift-and-mask steps that spread 21 bits to every third bit position.
_SPREAD = ((32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF),
           (8, 0x100F00F00F00F00F), (4, 0x10C30C30C30C30C3),
           (2, 0x1249249249249249))


def _past(distance):
    """A kd bound just past a distance, inflated past sqrt rounding."""
    return distance * (1.0 + 1e-9) + 1e-9


def _morton_key(points: np.ndarray) -> np.ndarray:
    """The z-order key of each row of coordinates in [0, 2^21)."""
    key = np.zeros(len(points), dtype=np.int64)
    for axis in range(3):
        bits = points[:, axis].copy()
        for shift, mask in _SPREAD:
            bits |= bits << shift
            bits &= mask
        key |= bits << (2 - axis)
    return key


def _distinct(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows: (first, row_site), both int32.

    The rows are sorted by Morton key, so equal rows form adjacent runs;
    ``first`` is the smallest input row of each run, in sorted order, and
    ``row_site`` the run of each input row. Coordinates outside
    [0, 2^21) are refused.
    """
    if len(points) >= _ROW_LIMIT:
        raise ValidationError("exact nearest neighbors take fewer than 2^31 points")
    if points.size and (points.min() < 0 or points.max() >= _COORD_LIMIT):
        raise ValidationError("exact nearest neighbors need coordinates in [0, 2^21)")
    key = _morton_key(points)
    order = np.argsort(key)
    ordered = key[order]
    new_site = np.ones(len(points), dtype=bool)
    new_site[1:] = ordered[1:] != ordered[:-1]
    row_site = np.empty(len(points), dtype=np.int32)
    row_site[order] = np.cumsum(new_site, dtype=np.int32) - 1
    # the sort need not be stable: take each run's smallest input row
    first = np.minimum.reduceat(order, np.flatnonzero(new_site)).astype(np.int32)
    return first, row_site


class NnIndex:
    """Exact nearest-neighbor index over one cloud's integer positions.

    Duplicate positions are merged at build time into one site that
    carries the smallest original index, so every tie left at query time
    is between distinct sites; ``len`` of an index is its site count.
    Sites are kept once, in Morton order, as the float64 array the
    kd-tree is built on; ``_row_site`` maps each input row to its site and
    ``_site_index`` each site to its smallest original index, both as
    int32, so an index takes fewer than 2^31 points. A query is grouped
    the same way: each distinct query point is answered once, in that
    order and in chunks of at most ``_CHUNK`` points, and the answers are
    gathered back to rows. Another index can be the query, which
    supplies its sites and row map as they are. Coordinates of sites and
    queries must lie in [0, 2^21), where the tree's float distances rank
    candidates exactly and give back each squared distance. The first kd
    round is bounded by a radius taken from a sample of the queries; a
    query with no site inside it is asked again without a bound.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) < 1:
            raise ValidationError("cannot index an empty cloud")
        pts = cloud.positions
        self._site_index, self._row_site = _distinct(pts)
        self._sites = pts[self._site_index].astype(np.float64)
        # imported here, not at module level, so only the metric path pays for scipy
        from scipy.spatial import cKDTree

        # sliding midpoint: results do not depend on the tree's shape; the
        # tree keeps the contiguous float64 sites as its data, uncopied
        self._tree = cKDTree(self._sites, balanced_tree=False)

    def __len__(self) -> int:
        return len(self._sites)

    def query(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbors of integer query points.

        Returns (indices, squared_distances), both int64, one entry per
        query row; the index is the smallest original point index among
        the points at the minimal squared distance. When ``queries`` is
        another ``NnIndex``, the rows are the rows of its cloud; otherwise
        they must be finite integers, which are never rounded. The first
        kd round is bounded by the sampled radius of the module docstring,
        and rows beyond it are asked again without a bound.
        """
        if isinstance(queries, NnIndex):
            q, row_site = queries._sites, queries._row_site
        else:
            q = np.atleast_2d(as_integers(queries, np.int64, "queries"))
            if q.ndim != 2 or q.shape[1] != 3:
                raise ValidationError(f"queries must have shape (n, 3), got {q.shape}")
            first, row_site = _distinct(q)
            q = q[first].astype(np.float64)
        # the first round's bound: the farthest nearest site of a sample
        sample = q[::_SAMPLE_STRIDE]
        bound = _past(max((self._tree.query(sample[i:i + _CHUNK], k=1)[0].max()
                           for i in range(0, len(sample), _CHUNK)), default=0.0))
        nearest = np.empty(len(q), dtype=np.int64)
        best = np.empty(len(q), dtype=np.int64)
        for i in range(0, len(q), _CHUNK):
            chunk = slice(i, i + _CHUNK)
            nearest[chunk], best[chunk] = self._nearest(q[chunk], bound)
        return nearest[row_site], best[row_site]

    def _nearest(self, q: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """(nearest index, squared distance) of each distinct point of one chunk.

        The candidate loop of the module docstring; ``bound`` is the query's
        sampled first-round bound.
        """
        n_sites = len(self._sites)
        k = min(_CANDIDATES, n_sites)
        dist, cand = self._candidates(q, k, bound)
        # rows whose nearest site lies beyond the bound: unbounded
        far = np.flatnonzero(cand[0] == n_sites)
        if len(far):
            dist[:, far], cand[:, far] = self._candidates(q[far], k, np.inf)
        # every row has its best candidate now, and it comes first; a missing
        # last candidate is at distance inf and ties nothing
        best = dist[0]
        nearest = self._site_index[cand[0]]
        rows = np.flatnonzero(dist[-1] == best)
        nearest[rows] = np.minimum(nearest[rows], self._site_index[cand[-1, rows]])
        # rows whose last candidate ties their best go round again
        while len(rows) and k < n_sites:
            k = min(2 * k, n_sites)
            dist, cand = self._candidates(q[rows], k, _past(best[rows].max()))
            tied = dist == best[rows]
            index = self._site_index[np.where(tied, cand, 0)]
            index[~tied] = _NO_INDEX
            nearest[rows] = index.min(axis=0)
            rows = rows[tied[-1]]
        return nearest, np.rint(best * best).astype(np.int64)

    def _candidates(self, q: np.ndarray, k: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """The tree's k nearest sites of each row within bound, as (distances,
        sites) with candidate j of every row in row j; a missing one is
        (inf, the site count)."""
        dist, cand = self._tree.query(q, k=k, distance_upper_bound=bound)
        return dist.reshape(-1, k).T, cand.reshape(-1, k).T


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


def _directed_errors(index_b: NnIndex, index_a: NnIndex, luma_b: np.ndarray,
                     luma_a: np.ndarray) -> tuple[float, float]:
    """Errors of b's rows against a; each of b's sites is queried once."""
    nn, d2 = index_a.query(index_b)
    n = len(luma_b)
    e_g = _exact_mean(d2, n)
    dy = luma_b - luma_a[nn]
    e_c = _exact_mean(dy * dy, n * LUMA_SCALE * LUMA_SCALE)
    return e_g, e_c


def symmetric_distortion(a: PointCloud, b: PointCloud,
                         luma_weights: str = "bt709") -> DistortionPair:
    """Symmetric point-to-point distortion: max over the two directions.

    The color error reuses the geometry neighbor assignment and compares
    luma values only; unknown ``luma_weights`` are refused before any
    index is built. The two indexes are built, and then the two
    directions computed, on two threads: one worker and the caller.
    """
    # imported here, as cKDTree is, so only the metric path pays for it
    from concurrent.futures import ThreadPoolExecutor

    # first, so that unknown weights are refused before any index is built
    luma_a = luma_scaled(a.colors, luma_weights)
    luma_b = luma_scaled(b.colors, luma_weights)
    with ThreadPoolExecutor(max_workers=1) as worker:
        future = worker.submit(build_index, a)
        idx_b = build_index(b)
        idx_a = future.result()
        future = worker.submit(_directed_errors, idx_b, idx_a, luma_b, luma_a)
        eg_ab, ec_ab = _directed_errors(idx_a, idx_b, luma_a, luma_b)
        eg_ba, ec_ba = future.result()
    return DistortionPair(max(eg_ba, eg_ab), max(ec_ba, ec_ab))

