"""Ragged-array primitives shared by the vectorized kernels.

The hot-path kernels (grid index, interference sets, ΘALG grouping)
all reduce to the same two CSR-style operations: materializing the
concatenation of ``arange(start, start+count)`` runs, and locating the
boundaries of equal-key runs in a sorted key sequence.  Keeping them
here means each kernel is a short composition of audited pieces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ragged_arange", "run_starts", "sorted_unique", "unique_counts", "unique_inverse"]


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each ``(s, c)`` pair.

    Equivalent to ``np.concatenate([np.arange(s, s + c) for s, c in
    zip(starts, counts)])`` without the Python loop.  ``counts`` must be
    non-negative; zero-count runs contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Offset a global arange so each run restarts at its own start.
    run_first = np.cumsum(counts) - counts  # position where each run begins
    out = np.arange(total, dtype=np.intp)
    out -= np.repeat(run_first, counts)
    out += np.repeat(starts, counts)
    return out


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each equal-key run.

    ``keys`` are equal-length arrays already sorted so that equal
    composite keys are contiguous; element ``i`` starts a run when any
    key differs from element ``i - 1``.
    """
    if not keys:
        raise ValueError("at least one key array is required")
    n = len(keys[0])
    first = np.ones(n, dtype=bool)
    if n > 1:
        change = np.zeros(n - 1, dtype=bool)
        for key in keys:
            change |= key[1:] != key[:-1]
        first[1:] = change
    return first


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` for a 1-D integer array, via one plain sort.

    numpy 2.x answers ``np.unique`` on integers through a hash table and
    then sorts; on the small arrays of a local repair that is several
    times slower than sorting once and masking run starts.
    """
    xs = np.sort(x)
    return xs[run_starts(xs)]


def unique_counts(x: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``np.unique(x, return_counts=True)`` for a 1-D integer array.

    One plain sort: ``uniq`` sorted ascending, ``counts[i]`` the number
    of occurrences of ``uniq[i]``.
    """
    xs = np.sort(x)
    starts = np.flatnonzero(run_starts(xs))
    counts = np.empty(len(starts), dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = len(xs) - starts[-1:]
    return xs[starts], counts


def unique_inverse(x: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``np.unique(x, return_inverse=True)`` for a 1-D integer array.

    One argsort: ``uniq[inverse] == x``, ``uniq`` sorted ascending.
    """
    order = np.argsort(x)
    xs = x[order]
    first = run_starts(xs)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return xs[first], inverse
