"""Tests for :mod:`repro.utils` — union-find, RNG plumbing, validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.arrays import CodeSet, sorted_unique, unique_inverse
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.unionfind import UnionFind
from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestUnionFind:
    def test_initial_components(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert len(uf) == 5

    def test_union_reduces_components(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.n_components == 3

    def test_redundant_union_returns_false(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 3

    def test_connected_transitivity(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)

    def test_find_is_canonical(self):
        uf = UnionFind(6)
        uf.union(2, 3)
        uf.union(3, 4)
        assert uf.find(2) == uf.find(4)

    def test_component_labels(self):
        uf = UnionFind(4)
        uf.union(0, 3)
        labels = uf.component_labels()
        assert labels[0] == labels[3]
        assert labels[1] != labels[0]
        assert labels[1] != labels[2]

    def test_zero_elements(self):
        uf = UnionFind(0)
        assert uf.n_components == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    def test_matches_naive_partition(self, pairs):
        """Property: components match a naive BFS partition."""
        n = 20
        uf = UnionFind(n)
        adj = {i: set() for i in range(n)}
        for a, b in pairs:
            uf.union(a, b)
            adj[a].add(b)
            adj[b].add(a)
        # Naive component count by BFS.
        seen: set[int] = set()
        comps = 0
        for s in range(n):
            if s in seen:
                continue
            comps += 1
            stack = [s]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v] - seen)
        assert uf.n_components == comps


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_seed_sequence_accepted(self):
        g = as_rng(np.random.SeedSequence(1))
        assert isinstance(g, np.random.Generator)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_rng("not a seed")

    def test_spawn_count(self):
        children = spawn_rngs(0, 4)
        assert len(children) == 4

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(7, 2)
        a2, _ = spawn_rngs(7, 2)
        assert np.array_equal(a1.random(5), a2.random(5))

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            check_positive("x", bad)

    def test_check_nonnegative_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0.0

    def test_check_nonnegative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -0.001)

    def test_check_in_range_inclusive_default(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_check_in_range_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=(False, True))

    def test_check_in_range_message_names_variable(self):
        with pytest.raises(ValueError, match="theta"):
            check_in_range("theta", 5.0, 0.0, 1.0)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)


class TestUniqueHelpers:
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=60))
    def test_match_np_unique(self, values):
        x = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(sorted_unique(x), np.unique(x))
        uniq, inverse = unique_inverse(x)
        want_uniq, want_inverse = np.unique(x, return_inverse=True)
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(inverse, want_inverse)
        assert inverse.dtype == np.intp


def _code(i):
    """Codes (v << 32) | u for v, u < 8."""
    return ((i >> 3) << 32) | (i & 7)


class TestCodeSet:
    @given(
        start=st.sets(st.integers(0, 63), max_size=30),
        edits=st.lists(st.sets(st.integers(0, 63), max_size=12), max_size=16),
        fold_min=st.sampled_from([0, 1, 2, 1024]),
        fold_ratio=st.sampled_from([2, 3, 8]),
        fold_fraction=st.sampled_from([1 / 16, 1 / 2, 1e9]),
        ids=st.lists(st.integers(0, 9), max_size=6, unique=True),
    )
    def test_matches_a_python_set(self, start, edits, fold_min, fold_ratio, fold_fraction, ids):
        cs = CodeSet(np.array(sorted(_code(i) for i in start), dtype=np.int64))
        cs.fold_min, cs.fold_ratio, cs.fold_fraction = fold_min, fold_ratio, fold_fraction
        want = {_code(i) for i in start}
        for edit in edits:
            flip = {_code(i) for i in edit}
            cs.toggle(
                np.array(sorted(flip & want), dtype=np.int64),
                np.array(sorted(flip - want), dtype=np.int64),
            )
            want ^= flip
            assert len(cs) == len(want)
            assert cs.nbytes == 8 * (len(cs.main) + sum(map(len, cs.logs)))
            # Each log within its cap; a log past the last cap has folded.
            caps = cs.caps()
            assert caps[-1] == max(fold_min, fold_fraction * len(cs.main))
            assert len(cs.logs) <= len(caps)
            for log, cap in zip(cs.logs, caps):
                assert len(log) <= cap
            # The runs of ids in any order, across every live log.
            codes, owner = cs.runs(ids)
            assert list(zip(codes.tolist(), owner.tolist())) == [
                (c, ids.index(c >> 32)) for c in sorted(want) if c >> 32 in ids
            ]
        assert cs.array().tolist() == sorted(want)
        assert cs.logs == []
        assert len(cs) == len(want)

    def test_ladder_holds_several_logs_and_cascades_into_main(self):
        cs = CodeSet(np.array([_code(i) for i in range(0, 64, 2)], dtype=np.int64))
        cs.fold_min, cs.fold_ratio, cs.fold_fraction = 1, 2, 1 / 4
        assert cs.caps() == [1, 2, 8]
        want = set(cs.main.tolist())
        for i in (1, 3, 5, 7):
            cs.toggle(np.empty(0, dtype=np.int64), np.array([_code(i)], dtype=np.int64))
            want.add(_code(i))
        # 4 one-code edits: log 0 passes its cap and cascades up.
        assert [len(log) for log in cs.logs] == [0, 0, 4]
        cs.toggle(np.array([_code(0)], dtype=np.int64), np.array([_code(9)], dtype=np.int64))
        want ^= {_code(0), _code(9)}
        assert [len(log) for log in cs.logs] == [0, 2, 4]
        # A code present in main and dropped in one log reads as absent.
        codes, owner = cs.runs([1, 0])
        assert codes.tolist() == sorted(c for c in want if c >> 32 < 2)
        assert owner.tolist() == [1] * 7 + [0] * 5
        # An edit of 3 codes goes straight to log 2.
        add = np.array([_code(i) for i in (11, 13, 15)], dtype=np.int64)
        cs.toggle(np.empty(0, dtype=np.int64), add)
        want.update(add.tolist())
        assert [len(log) for log in cs.logs] == [0, 2, 7]
        # An edit past the last cap folds every log into main.
        add = np.array([_code(i) for i in range(17, 35, 2)], dtype=np.int64)
        cs.toggle(np.empty(0, dtype=np.int64), add)
        want.update(add.tolist())
        assert cs.logs == []
        assert cs.main.tolist() == sorted(want)
        assert len(cs) == len(want)
