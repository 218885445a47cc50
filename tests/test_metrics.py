import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcbitalloc import metrics
from pcbitalloc.cli import main
from pcbitalloc.cloud import PointCloud, luma_scaled, save_ply
from pcbitalloc.errors import ValidationError
from pcbitalloc.evaluate import fit_quality, psnr
from pcbitalloc.metrics import (
    DistortionPair,
    NnIndex,
    _directed_errors,
    _distinct,
    _exact_mean,
    build_index,
    symmetric_distortion,
)
from pcbitalloc.models import weighted

from conftest import brute_force_nn, brute_symmetric, make_cloud


def directed_geometry_mse(b: PointCloud, a: PointCloud) -> float:
    """Directed geometry MSE of cloud b against reference a, the metric's way."""
    _, d2 = NnIndex(a).query(b.positions)
    return _exact_mean(d2, len(b))


class TestNnIndex:
    def test_single_point(self):
        c = PointCloud([[3, 3, 3]], [[0, 0, 0]], 2)
        idx, d2 = build_index(c).query([[0, 0, 0], [3, 3, 3]])
        assert idx.tolist() == [0, 0]
        assert d2.tolist() == [27, 0]

    def test_duplicate_tie_goes_to_smallest_index(self):
        pos = [[0, 0, 0], [5, 5, 5], [9, 9, 9], [1, 1, 1],
               [7, 7, 7], [2, 2, 2], [8, 8, 8], [1, 1, 1]]
        c = PointCloud(pos, np.zeros((8, 3)), 4)
        idx, d2 = build_index(c).query([[1, 1, 1]])
        assert idx.tolist() == [3]
        assert d2.tolist() == [0]

    def test_coordinates_beyond_exact_range_rejected(self):
        # 2^21 is one past the Morton key's 21 bits; at 2^31 - 1 per axis the
        # squared distance would overflow int64
        near = PointCloud([[0, 0, 0]], [[0, 0, 0]], 31)
        for hi in (2**21, 2**31 - 1):
            far = PointCloud([[0, 0, 0], [0, hi, 0]], np.zeros((2, 3)), 31)
            with pytest.raises(ValidationError, match="\\[0, 2\\^21\\)"):
                build_index(far)
            with pytest.raises(ValidationError, match="\\[0, 2\\^21\\)"):
                build_index(near).query(far.positions)
        with pytest.raises(ValidationError, match="\\[0, 2\\^21\\)"):
            build_index(near).query([[-1, 0, 0]])

    @pytest.mark.parametrize("queries, message", [
        ([[1.6, 0, 0]], "finite integers"), ([[np.nan, 0, 0]], "finite integers"),
        ([[np.inf, 0, 0]], "finite integers"), ([[2.0**64, 0, 0]], "must lie in"),
    ], ids=["fractional", "nan", "inf", "beyond-int64"])
    def test_non_integer_queries_refused(self, queries, message):
        # 1.6 used to be truncated to 1 and answered with the site at 1
        index = build_index(PointCloud([[1, 0, 0], [2, 0, 0]], np.zeros((2, 3)), 2))
        with pytest.raises(ValidationError, match=message):
            index.query(queries)
        idx, d2 = index.query(np.array([[2.0, 0, 0]]))
        assert idx.tolist() == [1] and d2.tolist() == [0]

    @pytest.mark.parametrize("queries", [[], [[1, 2]], np.zeros((2, 3, 1))],
                             ids=["empty-list", "two-columns", "three-dims"])
    def test_query_shape_checked(self, queries):
        index = build_index(PointCloud([[1, 2, 3]], [[0, 0, 0]], 4))
        with pytest.raises(ValidationError, match="shape"):
            index.query(queries)
        idx, d2 = index.query(np.zeros((0, 3), dtype=np.int64))
        assert idx.shape == d2.shape == (0,)

    def test_equidistant_tie(self):
        # (0,0,0) and (2,0,0) are both at distance 1 from (1,0,0)
        c = PointCloud([[2, 0, 0], [0, 0, 0]], np.zeros((2, 3)), 2)
        idx, d2 = build_index(c).query([[1, 0, 0]])
        assert idx.tolist() == [0]
        assert d2.tolist() == [1]

    def test_matches_linear_scan_2000(self, rng):
        cloud = make_cloud(rng, 2000, bit_depth=9)
        queries = rng.integers(0, 512, (2000, 3))
        idx, d2 = build_index(cloud).query(queries)
        want_idx, want_d2 = brute_force_nn(cloud.positions, queries)
        assert (idx == want_idx).all()
        assert (d2 == want_d2).all()

    def test_matches_linear_scan_5000(self, rng):
        cloud = make_cloud(rng, 5000, bit_depth=12)
        queries = rng.integers(0, 4096, (5000, 3))
        idx, d2 = build_index(cloud).query(queries)
        want_idx, want_d2 = brute_force_nn(cloud.positions, queries)
        assert (idx == want_idx).all()
        assert (d2 == want_d2).all()

    def test_matches_linear_scan_with_duplicates(self, rng):
        base = rng.integers(0, 64, (300, 3))
        pos = np.vstack([base, base[rng.integers(0, 300, 200)]])
        cloud = PointCloud(pos, rng.integers(0, 256, (500, 3)), 6)
        uniform = rng.integers(0, 64, (500, 3))
        # each distinct query point is answered once and gathered back to its rows
        repeated = np.vstack([uniform[:40], pos[:40]])[rng.integers(0, 80, 600)]
        for queries in (uniform, repeated[rng.permutation(600)]):
            idx, d2 = build_index(cloud).query(queries)
            want_idx, want_d2 = brute_force_nn(cloud.positions, queries)
            assert (idx == want_idx).all()
            assert (d2 == want_d2).all()

    def test_more_ties_than_candidates(self, rng):
        # (1,1,1) is at squared distance 3 from all 8 corners of the cube
        corners = np.array([[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)])
        pos = np.vstack([corners, corners[rng.integers(0, 8, 12)]])[rng.permutation(20)]
        index = build_index(PointCloud(pos, np.zeros((20, 3)), 2))
        queries = [[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 0, 0], [3, 3, 3], [1, 2, 1]]
        tree, rounds = index._tree, {}

        class CountingTree:
            def query(self, q, k, **kwargs):
                rounds[k] = q.tolist()
                return tree.query(q, k=k, **kwargs)

        index._tree = CountingTree()
        idx, d2 = index.query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        # the sample's k = 1 call, then the doubling
        assert list(rounds) == [1, 2, 4, 8]
        assert [1, 1, 1] in rounds[4]
        assert (idx == want_idx).all()
        assert (d2 == want_d2).all()

    @pytest.mark.parametrize("offsets, ks", [
        # the six face neighbors at squared distance 4
        ([(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)], [4, 8]),
        # the twelve cuboctahedron vertices at squared distance 2
        ([(a, b, 0) for a in (-1, 1) for b in (-1, 1)]
         + [(a, 0, b) for a in (-1, 1) for b in (-1, 1)]
         + [(0, a, b) for a in (-1, 1) for b in (-1, 1)], [4, 8, 16]),
    ], ids=["6-tied", "12-tied"])
    def test_tie_loop_doubles_candidates(self, rng, offsets, ks):
        center = np.array([8, 8, 8])
        tied = center + np.array(offsets)
        far = rng.integers(20, 32, (30, 3))
        pos = np.vstack([far, tied, tied[rng.permutation(len(tied))]])
        pos = pos[rng.permutation(len(pos))]
        index = build_index(PointCloud(pos, np.zeros((len(pos), 3)), 5))
        tree, asked = index._tree, []

        class CountingTree:
            def query(self, q, k, **kwargs):
                asked.append(k)
                return tree.query(q, k=k, **kwargs)

        index._tree = CountingTree()
        idx, d2 = index.query([center])
        want_idx, want_d2 = brute_force_nn(pos, [center])
        assert asked == [1, 2] + ks
        assert idx.tolist() == want_idx.tolist() and d2.tolist() == want_d2.tolist()

    def test_rows_beyond_the_sampled_bound_are_asked_again(self, rng):
        # 641 distinct near queries come first in key order, so the sample
        # (every 64th) takes positions 0, 64, ..., 640 and misses the far five;
        # the near queries are sites, so the sampled bound is just past 0
        near = np.stack(np.unravel_index(rng.choice(32**3, 641, replace=False),
                                         (32,) * 3), axis=1)
        far = 900 + np.array([[0, 0, 0], [3, 1, 4], [1, 5, 9], [2, 6, 5], [7, 7, 7]])
        queries = np.vstack([near, far, far[::-1], near[:50]])
        queries = queries[rng.permutation(len(queries))]
        pos = np.vstack([near, near[rng.integers(0, 641, 100)]])
        pos = pos[rng.permutation(len(pos))]
        index = build_index(PointCloud(pos, np.zeros((len(pos), 3)), 10))
        tree, calls = index._tree, []

        class RecordingTree:
            def query(self, q, k, distance_upper_bound=np.inf):
                calls.append((k, distance_upper_bound, q.tolist()))
                return tree.query(q, k=k, distance_upper_bound=distance_upper_bound)

        index._tree = RecordingTree()
        idx, d2 = index.query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (idx == want_idx).all() and (d2 == want_d2).all()
        (k0, bound0, sample), (k1, bound1, _) = calls[:2]
        assert (k0, bound0, len(sample), k1) == (1, np.inf, 11, 2) and bound1 < 1
        unbounded = [rows for k, bound, rows in calls[1:] if bound == np.inf]
        assert len(unbounded) == 1
        assert sorted(unbounded[0]) == sorted(far.tolist())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 400),
           st.integers(16, 2**12))
    def test_shifted_subset_with_duplicates_matches_linear_scan(
            self, seed, n_sites, n_queries, shift):
        # a shifted subset of the queries lies beyond the sampled bound
        r = np.random.default_rng(seed)
        pos = r.integers(0, 16, (n_sites, 3))
        pos[r.random(n_sites) < 0.1] += shift
        pos = np.vstack([pos, pos[r.integers(0, n_sites, n_sites // 3)]])
        queries = r.integers(0, 16, (n_queries, 3))
        queries[r.random(n_queries) < 0.05] += r.integers(0, shift, 3)
        queries = np.vstack([queries, queries[r.integers(0, n_queries, n_queries // 2)]])
        cloud = PointCloud(pos, np.zeros((len(pos), 3)), 13)
        idx, d2 = build_index(cloud).query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (idx == want_idx).all() and (d2 == want_d2).all()

    @pytest.mark.parametrize("sites", [[[5, 5, 5]], [[6, 5, 5], [4, 5, 5]]],
                             ids=["one-site", "two-tied"])
    @pytest.mark.parametrize("queries", [
        [[5, 5, 5]], [[1000, 1000, 1000]],
        [[5, 5, 6]] * 70 + [[1000, 1000, 1000]] + [[x, 0, 0] for x in range(100)],
    ], ids=["one-near-row", "one-far-row", "far-row-between-strides"])
    def test_one_or_two_sites_and_one_row(self, sites, queries):
        pos = np.array(sites + sites[::-1])
        index = build_index(PointCloud(pos, np.zeros((len(pos), 3)), 3))
        idx, d2 = index.query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (idx == want_idx).all() and (d2 == want_d2).all()

    @pytest.mark.parametrize("sites", [
        [[0, 0, 0]],
        [[2, 0, 0], [0, 0, 0]],
        [[2, 0, 0], [0, 0, 0], [1, 3, 0]],
        [[0, 1, 1], [2, 1, 1], [1, 0, 1]],
    ], ids=["one-site", "two-tied", "three-sites-two-tied", "three-tied"])
    def test_fewer_sites_than_candidates(self, sites):
        pos = np.array(sites + sites[::-1])
        queries = [[1, 0, 0], [1, 1, 1], [0, 0, 0], [3, 3, 3]]
        idx, d2 = build_index(PointCloud(pos, np.zeros((len(pos), 3)), 2)).query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (idx == want_idx).all() and (d2 == want_d2).all()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=60),
           st.lists(st.tuples(*[st.integers(0, 15)] * 3), min_size=1, max_size=40))
    def test_step4_lattice_with_duplicates_matches_linear_scan(self, sites, queries):
        cloud = PointCloud(np.array(sites) * 4, np.zeros((len(sites), 3)), 4)
        idx, d2 = build_index(cloud).query(queries)
        want_idx, want_d2 = brute_force_nn(cloud.positions, queries)
        assert (idx == want_idx).all()
        assert (d2 == want_d2).all()

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(*[st.integers(0, 2**21 - 8)] * 3),
           st.lists(st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=50),
           st.lists(st.tuples(*[st.integers(-2, 9)] * 3), min_size=1, max_size=30),
           st.data())
    def test_clusters_below_2_21_match_and_beyond_are_refused(
            self, origin, sites, queries, data):
        # clustered sites hold duplicates and equidistant ties anywhere below
        # 2^21; shifting the cloud or its queries by 2^21 leaves the Morton key
        pos = np.array(origin) + np.array(sites)
        q = np.clip(np.array(origin) + np.array(queries), 0, 2**21 - 1)
        colors = np.zeros((len(pos), 3))
        index = build_index(PointCloud(pos, colors, 21))
        idx, d2 = index.query(q)
        want_idx, want_d2 = brute_force_nn(pos, q)
        assert (idx == want_idx).all() and (d2 == want_d2).all()
        with pytest.raises(ValidationError, match="2\\^21"):
            build_index(PointCloud(pos + 2**21, colors, 22))
        with pytest.raises(ValidationError, match="2\\^21"):
            index.query(q + 2**21)
        perm = np.array(data.draw(st.permutations(range(len(q)))))
        perm_idx, perm_d2 = index.query(q[perm])
        assert (perm_idx == idx[perm]).all() and (perm_d2 == d2[perm]).all()

    @pytest.mark.parametrize("top", [2**21 - 1, 2**21])
    def test_coordinates_at_morton_key_limit(self, rng, top):
        # the largest coordinate the key holds is answered exactly; one past it is refused
        pos = rng.integers(top - 3, top + 1, (40, 3))
        pos[0] = top
        queries = np.minimum(rng.integers(top - 5, top + 3, (80, 3)), 2**21 - 1)
        cloud = PointCloud(pos, np.zeros((40, 3)), 22)
        if top >= 2**21:
            with pytest.raises(ValidationError, match="2\\^21"):
                build_index(cloud)
            return
        idx, d2 = build_index(cloud).query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (idx == want_idx).all()
        assert (d2 == want_d2).all()

    def test_kd_distances_are_exact_square_roots_below_2_21(self, rng):
        # the premise of ranking on the tree's own distances: for integer
        # coordinates below 2^21 it returns the correctly rounded sqrt of
        # the exact squared distance D, in the order of D, so equal
        # distances are equal D and rint(d * d) is D; every site is a
        # candidate of every query, from 0 up to the largest D
        from scipy.spatial import cKDTree

        top = 2**21 - 1
        corners = [[0, 0, 0], [top, top, top]]
        sites = np.vstack([top - rng.integers(0, 16, (250, 3)),
                           rng.integers(0, top + 1, (48, 3)), corners])
        queries = np.vstack([top - rng.integers(0, 16, (250, 3)),
                             rng.integers(0, top + 1, (48, 3)), corners])
        dist, cand = cKDTree(sites.astype(np.float64)).query(queries.astype(np.float64),
                                                            k=len(sites))
        diff = sites[cand] - queries[:, None, :]
        exact = (diff * diff).sum(axis=2)
        assert exact.max() == 3 * top**2
        assert (dist == np.sqrt(exact)).all()
        assert (np.rint(dist * dist).astype(np.int64) == exact).all()
        assert (exact[:, 1:] >= exact[:, :-1]).all()
        assert ((dist[:, 1:] == dist[:, :-1]) == (exact[:, 1:] == exact[:, :-1])).all()
        assert (exact[:, 1:] == exact[:, :-1]).sum() > 1000

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 7]),
           st.integers(1, 40), st.integers(1, 60))
    def test_chunked_query_matches_unchunked_and_linear_scan(
            self, seed, chunk, n_sites, n_queries):
        # even sites on a step-2 lattice: a query with odd coordinates ties
        # up to eight sites; duplicated sites and query rows, and a fifth of
        # the queries moved beyond the sampled bound, fall on both sides of
        # the chunk edges
        r = np.random.default_rng(seed)
        pos = r.integers(0, 4, (n_sites, 3)) * 2
        pos = np.vstack([pos, pos[r.integers(0, n_sites, n_sites // 2 + 1)]])
        queries = r.integers(0, 8, (n_queries, 3))
        queries[r.random(n_queries) < 0.2] += 40
        queries = np.vstack([queries, queries[r.integers(0, n_queries, n_queries // 2 + 1)]])
        queries = queries[r.permutation(len(queries))]
        index = build_index(PointCloud(pos, np.zeros((len(pos), 3)), 6))
        query_index = build_index(PointCloud(queries, np.zeros((len(queries), 3)), 6))
        whole = index.query(queries)
        with mock.patch.object(metrics, "_CHUNK", chunk):
            for got in (index.query(queries), index.query(query_index)):
                assert (got[0] == whole[0]).all() and (got[1] == whole[1]).all()
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (whole[0] == want_idx).all() and (whole[1] == want_d2).all()

    def test_no_kd_call_asks_for_more_than_a_chunk(self, rng):
        # 1000 distinct queries and a chunk of 7: the 16-row sample and every
        # round of the candidate loop go to the tree at most 7 rows at a time
        lattice = np.stack(np.unravel_index(rng.choice(16**3, 1000, replace=False),
                                            (16,) * 3), axis=1)
        queries = lattice + np.array([0, 0, 300]) * (rng.random((1000, 1)) < 0.01)
        pos = 2 * lattice[:300] + 1
        index = build_index(PointCloud(pos, np.zeros((300, 3)), 9))
        tree, rows = index._tree, []

        class RecordingTree:
            def query(self, q, k, **kwargs):
                rows.append(len(q))
                return tree.query(q, k=k, **kwargs)

        index._tree = RecordingTree()
        with mock.patch.object(metrics, "_CHUNK", 7):
            idx, d2 = index.query(queries)
        want_idx, want_d2 = brute_force_nn(pos, queries)
        assert (idx == want_idx).all() and (d2 == want_d2).all()
        assert max(rows) == 7 and sum(rows) >= 1000 + 16

    def test_2_31_points_refused_before_any_work(self):
        # a zero-stride view: 2^31 rows with no memory behind them
        huge = np.broadcast_to(np.zeros(3, dtype=np.int64), (2**31, 3))
        cloud = object.__new__(PointCloud)  # skips the checks, which would scan it
        object.__setattr__(cloud, "positions", huge)
        with pytest.raises(ValidationError, match="fewer than 2\\^31 points"):
            build_index(cloud)
        with pytest.raises(ValidationError, match="fewer than 2\\^31 points"):
            _distinct(huge)


class TestExactMean:
    # below 2^21 per axis one squared distance can reach 3 * (2^21 - 1)^2,
    # about 3 * 2^42, so 699051 of them still fit in int64 and 699052 do not
    D2_MAX = 3 * (2**21 - 1) ** 2
    FITS = 699051

    @pytest.mark.parametrize("n", [1, FITS, FITS + 1, 750000])
    def test_matches_python_int_sum(self, rng, n):
        values = self.D2_MAX - rng.integers(0, 1000, n)
        values[0] = self.D2_MAX
        denom = 7 * n
        assert _exact_mean(values, denom) == sum(int(v) for v in values) / denom

    def test_int64_sum_would_wrap(self):
        n = self.FITS + 1
        values = np.full(n, self.D2_MAX, dtype=np.int64)
        exact = n * self.D2_MAX
        assert exact >= 2**63 > self.FITS * self.D2_MAX
        assert _exact_mean(values, n) == exact / n
        assert int(values.sum()) != exact

    def test_bit_depth_21_directed_error(self):
        far, n = 2**21 - 1, self.FITS + 1
        a = PointCloud([[0, 0, 0]], [[0, 0, 0]], 21)
        b = PointCloud(np.full((n, 3), far), np.zeros((n, 3)), 21)
        assert directed_geometry_mse(b, a) == self.D2_MAX


class TestGeometryError:
    def test_identity_is_zero(self, rng):
        c = make_cloud(rng, 100)
        assert directed_geometry_mse(c, c) == 0.0

    def test_hand_case(self):
        a = PointCloud([[0, 0, 0]], [[0, 0, 0]], 3)
        b = PointCloud([[1, 0, 0], [0, 2, 0]], [[0, 0, 0], [0, 0, 0]], 3)
        assert directed_geometry_mse(b, a) == pytest.approx(2.5)

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            a = make_cloud(rng, 500, bit_depth=8)
            b = make_cloud(rng, 500, bit_depth=8)
            _, d2 = brute_force_nn(a.positions, b.positions)
            want = int(d2.astype(object).sum()) / len(b)
            assert directed_geometry_mse(b, a) == want

    def test_permutation_invariant(self, rng):
        a = make_cloud(rng, 200)
        b = make_cloud(rng, 300)
        perm_a = rng.permutation(len(a))
        perm_b = rng.permutation(len(b))
        a2 = PointCloud(a.positions[perm_a], a.colors[perm_a], a.bit_depth)
        b2 = PointCloud(b.positions[perm_b], b.colors[perm_b], b.bit_depth)
        assert directed_geometry_mse(b, a) == directed_geometry_mse(b2, a2)


class TestSymmetricDistortion:
    def test_identity(self, rng):
        c = make_cloud(rng, 50)
        pair = symmetric_distortion(c, c)
        assert pair.d_g == 0.0 and pair.d_c == 0.0

    def test_single_gray_pair(self):
        # luma 100 against luma 110 at the same voxel
        a = PointCloud([[0, 0, 0]], [[100, 100, 100]], 1)
        b = PointCloud([[0, 0, 0]], [[110, 110, 110]], 1)
        pair = symmetric_distortion(a, b)
        assert pair.d_g == 0.0
        assert pair.d_c == pytest.approx(100.0)

    def test_unknown_luma_weights_refused_before_any_index(self, rng):
        c = make_cloud(rng, 20)
        with mock.patch.object(metrics, "build_index", side_effect=AssertionError):
            with pytest.raises(ValidationError, match="bt709, bt601"):
                symmetric_distortion(c, c, luma_weights="foo")

    def test_matches_brute_force(self, rng):
        for _ in range(3):
            a = make_cloud(rng, 300, bit_depth=7)
            b = make_cloud(rng, 250, bit_depth=7)
            got = symmetric_distortion(a, b)
            want_g, want_c = brute_symmetric(a, b)
            assert got.d_g == want_g
            assert got.d_c == want_c

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 15)] * 3), min_size=1, max_size=80),
           st.data())
    def test_duplicate_heavy_lattice_pair_matches_brute_force(self, points, data):
        # the reconstruction snaps the reference to a step-4 lattice, as a
        # codec does, so its rows repeat positions and the references tie
        ref = np.array(points)
        rec = ref // 4 * 4
        rows = data.draw(st.lists(st.integers(0, len(ref) - 1), min_size=1, max_size=120))
        rec = rec[rows]
        colors = data.draw(st.lists(st.tuples(*[st.integers(0, 255)] * 3),
                                    min_size=len(ref) + len(rec),
                                    max_size=len(ref) + len(rec)))
        a = PointCloud(ref, colors[:len(ref)], 4)
        b = PointCloud(rec, colors[len(ref):], 4)
        got = symmetric_distortion(a, b)
        assert (got.d_g, got.d_c) == brute_symmetric(a, b)

    def test_symmetric_in_arguments(self, rng):
        a = make_cloud(rng, 120)
        b = make_cloud(rng, 80)
        ab = symmetric_distortion(a, b)
        ba = symmetric_distortion(b, a)
        assert ab == ba

    def test_bt601_option(self, rng):
        a = make_cloud(rng, 60)
        b = make_cloud(rng, 60)
        got = symmetric_distortion(a, b, luma_weights="bt601")
        want_g, want_c = brute_symmetric(a, b, luma_weights="bt601")
        assert got.d_g == want_g and got.d_c == want_c


def seeded_pair(kind, seed):
    """A (reference, reconstruction) pair of one of the metric's input shapes."""
    rng = np.random.default_rng((kind, seed))
    if kind == 0:  # sparse: distinct points jittered by up to 2 voxels
        a = make_cloud(rng, 600, bit_depth=10)
        jittered = np.clip(a.positions + rng.integers(-2, 3, a.positions.shape), 0, 1023)
        return a, PointCloud(jittered, rng.integers(0, 256, (600, 3)), 10)
    if kind == 1:  # duplicate-heavy: 600 and 500 rows on 512 voxels
        return make_cloud(rng, 600, bit_depth=3), make_cloud(rng, 500, bit_depth=3)
    # step-4 lattice: the reconstruction snaps reference rows, repeating some
    a = make_cloud(rng, 500, bit_depth=6)
    rows = rng.integers(0, len(a), 700)
    return a, PointCloud(a.positions[rows] // 4 * 4, rng.integers(0, 256, (700, 3)), 6)


class TestConcurrentDirections:
    @pytest.mark.parametrize("seed", [3, 5])
    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["sparse", "duplicates", "lattice"])
    def test_equals_sequential_directions_and_oracle(self, kind, seed):
        a, b = seeded_pair(kind, seed)
        idx_a, idx_b = build_index(a), build_index(b)
        luma_a, luma_b = luma_scaled(a.colors, "bt709"), luma_scaled(b.colors, "bt709")
        eg_ba, ec_ba = _directed_errors(idx_b, idx_a, luma_b, luma_a)
        eg_ab, ec_ab = _directed_errors(idx_a, idx_b, luma_a, luma_b)
        got = symmetric_distortion(a, b)
        assert (got.d_g, got.d_c) == (max(eg_ba, eg_ab), max(ec_ba, ec_ab))
        # an index as the query answers its cloud's rows as the array query does
        for index, other, cloud in ((idx_a, idx_b, b), (idx_b, idx_a, a)):
            (nn, d2), (want_nn, want_d2) = index.query(other), index.query(cloud.positions)
            assert nn.tolist() == want_nn.tolist() and d2.tolist() == want_d2.tolist()
        assert (got.d_g, got.d_c) == brute_symmetric(a, b)

    def test_concurrent_callers_under_fast_switching(self):
        pairs = [seeded_pair(kind, 7) for kind in range(3)] * 2
        want = [DistortionPair(*brute_symmetric(a, b)) for a, b in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(pairs)) as callers:
                futures = [callers.submit(symmetric_distortion, a, b) for a, b in pairs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    # the worker builds the reference's index and the caller the reconstruction's
    @pytest.mark.parametrize("far_ref, far_rec", [(True, False), (False, True), (True, True)],
                             ids=["worker", "caller", "both"])
    def test_out_of_range_coordinate_raises_and_leaves_no_thread(
            self, tmp_path, capsys, far_ref, far_rec):
        threads = threading.active_count()
        near = PointCloud([[0, 0, 0], [5, 5, 5]], [[0, 0, 0], [9, 9, 9]], 22)
        far = PointCloud([[0, 0, 0], [1 << 21, 0, 0]], [[0, 0, 0], [9, 9, 9]], 22)
        assert symmetric_distortion(near, near).d_g == 0.0
        assert threading.active_count() == threads
        ref, rec = far if far_ref else near, far if far_rec else near
        with pytest.raises(ValidationError, match="2\\^21"):
            symmetric_distortion(ref, rec)
        assert threading.active_count() == threads
        save_ply(ref, tmp_path / "ref.ply")
        save_ply(rec, tmp_path / "rec.ply")
        assert main(["metric", str(tmp_path / "ref.ply"), str(tmp_path / "rec.ply")]) == 2
        assert capsys.readouterr().err.startswith("error [validation]: exact nearest")
        assert threading.active_count() == threads


class TestCombinedDistortion:
    """``models.weighted``, which combines the metric's (d_g, d_c) pair."""

    def test_half(self):
        assert weighted(0.5, 4, 2) == 3.0

    def test_pure_geometry(self):
        assert weighted(1.0, 4, 2) == 4.0

    def test_hand_case(self):
        assert weighted(0.25, 1.2, 3.6) == pytest.approx(3.0)

    def test_omega_out_of_range(self):
        with pytest.raises(ValidationError):
            weighted(1.5, 1, 1)

    @settings(max_examples=50)
    @given(st.floats(0, 100), st.floats(0, 100),
           st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_linear_in_omega(self, d_g, d_c, w1, w2, lam):
        mid = lam * w1 + (1 - lam) * w2
        direct = weighted(mid, d_g, d_c)
        blended = lam * weighted(w1, d_g, d_c) + (1 - lam) * weighted(w2, d_g, d_c)
        assert direct == pytest.approx(blended, abs=1e-9)


class TestPsnr:
    def test_20db(self):
        # weighted NMSE 0.01: d_g/peak^2 = 0.01 with omega 1
        assert psnr(0.01, 0.0, 1.0, 1.0, 1.0) == pytest.approx(20.0)

    def test_0db(self):
        assert psnr(1.0, 1.0, 0.5, 1.0, 1.0) == pytest.approx(0.0)

    def test_lossless_infinite(self):
        assert psnr(0.0, 0.0, 0.5, 1023.0, 255.0) == math.inf

    def test_bad_peak(self):
        with pytest.raises(ValidationError):
            psnr(1.0, 1.0, 0.5, 0.0, 255.0)

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 0.5, math.nan, 255.0),
        (1.0, 1.0, 0.5, 1023.0, math.inf),
        (math.nan, 1.0, 0.5, 1023.0, 255.0),
        (1.0, math.inf, 0.5, 1023.0, 255.0),
    ], ids=["nan-geometry-peak", "inf-color-peak", "nan-d_g", "inf-d_c"])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValidationError, match="finite"):
            psnr(*args)

    def test_strictly_decreasing_in_each_distortion(self, rng):
        for _ in range(20):
            d_g, d_c = rng.uniform(0.01, 50, 2)
            base = psnr(d_g, d_c, 0.5, 1023, 255)
            assert psnr(d_g * 1.01, d_c, 0.5, 1023, 255) < base
            assert psnr(d_g, d_c * 1.01, 0.5, 1023, 255) < base


class TestFitQuality:
    def test_perfect_fit(self):
        fq = fit_quality([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        assert fq.scc == pytest.approx(1.0)
        assert fq.rmse == 0.0

    def test_constant_offset(self):
        fq = fit_quality([0, 1, 2, 3], [0.1, 1.1, 2.1, 3.1])
        assert fq.scc == pytest.approx(1.0)
        assert fq.rmse == pytest.approx(0.1)
        assert fq.nrmse == pytest.approx(0.1 / 3)

    def test_squared_correlation_never_exceeds_one(self):
        # an exact linear fit whose r*r rounds to 1 + 4.4e-16
        fq = fit_quality([0.41, 0.17], [1.41, 1.17])
        assert fq.scc == 1.0

    def test_constant_actual_rejected(self):
        with pytest.raises(ValidationError, match="^correlation undefined for a constant"):
            fit_quality([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_noisy_regression_rmse(self):
        # sigma-0.5 residuals around a least-squares line: rmse near 0.5
        gen = np.random.default_rng(424242)
        x = np.linspace(0, 10, 1000)
        y = 3.0 * x + 1.0 + gen.normal(0, 0.5, 1000)
        coeffs = np.polyfit(x, y, 1)
        fitted = np.polyval(coeffs, x)
        fq = fit_quality(y, fitted)
        assert 0.3 <= fq.rmse <= 0.7
        assert fq.scc > 0.99
