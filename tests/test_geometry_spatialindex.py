"""Tests for the uniform-grid spatial index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.spatialindex import DynamicGridIndex, GridIndex

coords = st.floats(0, 10, allow_nan=False)
point_sets = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)), elements=coords)


def brute_radius(pts: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
    d = pts - center
    return np.sort(np.nonzero(d[:, 0] ** 2 + d[:, 1] ** 2 <= r * r + 1e-12)[0])


class TestQueryRadius:
    def test_empty_set(self):
        idx = GridIndex(np.empty((0, 2)), cell=1.0)
        assert len(idx.query_radius([0, 0], 1.0)) == 0

    def test_simple_hit(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        idx = GridIndex(pts, cell=1.0)
        assert idx.query_radius([0, 0], 1.0).tolist() == [0, 1]

    def test_exclude_self(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        idx = GridIndex(pts, cell=1.0)
        assert idx.query_radius(pts[0], 1.0, exclude=0).tolist() == [1]

    def test_inclusive_boundary(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = GridIndex(pts, cell=1.0)
        assert 1 in idx.query_radius([0, 0], 1.0)

    def test_radius_larger_than_cell(self):
        """Query radius may exceed the grid cell size."""
        pts = np.random.default_rng(0).uniform(0, 10, (100, 2))
        idx = GridIndex(pts, cell=0.5)
        got = idx.query_radius([5.0, 5.0], 3.0)
        assert np.array_equal(got, brute_radius(pts, np.array([5.0, 5.0]), 3.0))

    @given(point_sets, st.floats(0.1, 5.0), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, pts, r, qi):
        idx = GridIndex(pts, cell=max(r, 0.25))
        center = pts[qi % len(pts)]
        got = idx.query_radius(center, r)
        assert np.array_equal(got, brute_radius(pts, center, r))

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((1, 2)), cell=0.0)

    def test_points_readonly(self):
        idx = GridIndex(np.zeros((2, 2)), cell=1.0)
        with pytest.raises(ValueError):
            idx.points[0, 0] = 5.0


class TestAllPairs:
    def test_known_pairs(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
        idx = GridIndex(pts, cell=1.0)
        pairs = idx.all_pairs_within(1.0)
        assert pairs.tolist() == [[0, 1]]

    def test_canonical_order(self):
        pts = np.random.default_rng(2).uniform(0, 3, (30, 2))
        pairs = GridIndex(pts, cell=0.7).all_pairs_within(0.7)
        assert (pairs[:, 0] < pairs[:, 1]).all()

    @given(point_sets, st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_pairs_match_bruteforce(self, pts, r):
        idx = GridIndex(pts, cell=r)
        got = {tuple(p) for p in idx.all_pairs_within(r)}
        want = set()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.hypot(*(pts[i] - pts[j])) <= r + 1e-12:
                    want.add((i, j))
        assert got == want

    def test_empty_result_shape(self):
        pts = np.array([[0.0, 0.0], [9.0, 9.0]])
        pairs = GridIndex(pts, cell=1.0).all_pairs_within(1.0)
        assert pairs.shape == (0, 2)


class TestQueryRadiusMany:
    def test_matches_single_queries(self):
        pts = np.random.default_rng(5).uniform(0, 10, (120, 2))
        idx = GridIndex(pts, cell=1.0)
        centers = pts[::7]
        indptr, indices = idx.query_radius_many(centers, 1.7)
        assert len(indptr) == len(centers) + 1
        for q, c in enumerate(centers):
            got = indices[indptr[q] : indptr[q + 1]]
            assert np.array_equal(got, idx.query_radius(c, 1.7))

    def test_off_grid_centers(self):
        pts = np.random.default_rng(6).uniform(0, 4, (50, 2))
        idx = GridIndex(pts, cell=0.5)
        centers = np.array([[-3.0, -3.0], [2.0, 2.0], [99.0, 99.0]])
        indptr, indices = idx.query_radius_many(centers, 0.9)
        assert np.array_equal(
            indices[indptr[1] : indptr[2]], idx.query_radius(centers[1], 0.9)
        )
        assert indptr[1] - indptr[0] == 0  # far outside the grid
        assert indptr[3] - indptr[2] == 0

    def test_empty_centers(self):
        idx = GridIndex(np.zeros((3, 2)), cell=1.0)
        indptr, indices = idx.query_radius_many(np.empty((0, 2)), 1.0)
        assert indptr.tolist() == [0]
        assert len(indices) == 0

    def test_empty_index(self):
        idx = GridIndex(np.empty((0, 2)), cell=1.0)
        indptr, indices = idx.query_radius_many(np.array([[0.0, 0.0]]), 1.0)
        assert indptr.tolist() == [0, 0]
        assert len(indices) == 0

    def test_radius_exceeds_cell(self):
        pts = np.random.default_rng(7).uniform(0, 10, (100, 2))
        idx = GridIndex(pts, cell=0.4)
        centers = pts[:10]
        indptr, indices = idx.query_radius_many(centers, 2.5)
        for q, c in enumerate(centers):
            got = indices[indptr[q] : indptr[q + 1]]
            assert np.array_equal(got, idx.query_radius(c, 2.5))


class TestStaticMatchesDynamic:
    @pytest.mark.parametrize("origin", [(0.0, 0.0), (0.3, -1.7), (-5.25, 2.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_hits_on_a_jittered_half_cell_lattice(self, origin, seed):
        # Neighbours at exactly the radius, ±1e-13 off it, and pairs in
        # the (r, √(r² + 1e-12)] slack band: both indexes place cells at
        # multiples of the cell size, so they read the same cell block.
        gen = np.random.default_rng(seed)
        r = 1.0
        pts = gen.integers(-4, 5, (60, 2)) * (r / 2) + np.array(origin)
        pts = pts + gen.choice([-1e-13, 0.0, 1e-13], pts.shape)
        static, dynamic = GridIndex(pts, cell=r), DynamicGridIndex(pts, cell=r)
        for p in pts:
            assert static.query_radius(p, r).tolist() == dynamic.query_radius(p, r).tolist()
        indptr, hits = static.query_radius_many(pts, r)
        want_indptr, want_hits = dynamic.query_radius_many(pts, r)
        assert indptr.tolist() == want_indptr.tolist()
        assert hits.tolist() == want_hits.tolist()
