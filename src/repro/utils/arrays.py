"""Ragged-array primitives shared by the vectorized kernels.

The hot-path kernels (grid index, interference sets, ΘALG grouping)
all reduce to the same two CSR-style operations: materializing the
concatenation of ``arange(start, start+count)`` runs, and locating the
boundaries of equal-key runs in a sorted key sequence.  Keeping them
here means each kernel is a short composition of audited pieces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CodeSet",
    "member",
    "merge_sorted",
    "ragged_arange",
    "run_starts",
    "sorted_unique",
    "toggle_sorted",
    "unique_counts",
    "unique_inverse",
]


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each ``(s, c)`` pair.

    Equivalent to ``np.concatenate([np.arange(s, s + c) for s, c in
    zip(starts, counts)])`` without the Python loop.  ``counts`` must be
    non-negative; zero-count runs contribute nothing.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Offset a global arange so each run restarts at its own start:
    # run r begins at position ends[r] - counts[r] of the output.
    out = (np.asarray(starts, dtype=np.intp) - ends + counts).repeat(counts)
    out += np.arange(total, dtype=np.intp)
    return out


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each equal-key run.

    ``keys`` are equal-length arrays already sorted so that equal
    composite keys are contiguous; element ``i`` starts a run when any
    key differs from element ``i - 1``.
    """
    if not keys:
        raise ValueError("at least one key array is required")
    first = np.empty(len(keys[0]), dtype=bool)
    if len(first):
        first[0] = True
        np.not_equal(keys[0][1:], keys[0][:-1], out=first[1:])
        for key in keys[1:]:
            first[1:] |= key[1:] != key[:-1]
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


def member(x: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``x`` present in the sorted array ``sorted_arr``."""
    if len(sorted_arr) == 0 or len(x) == 0:
        return np.zeros(len(x), dtype=bool)
    pos = sorted_arr.searchsorted(x)
    np.minimum(pos, len(sorted_arr) - 1, out=pos)
    return sorted_arr[pos] == x


def merge_sorted(*runs: np.ndarray) -> np.ndarray:
    """The sorted concatenation of sorted arrays.

    A stable sort of the concatenation is a run-merging timsort: a
    linear merge of the runs, faster in numpy than ``np.insert``.
    """
    out = np.concatenate(runs)
    out.sort(kind="stable")
    return out


def toggle_sorted(keys: np.ndarray, *runs: np.ndarray) -> np.ndarray:
    """Symmetric difference of sorted arrays of distinct keys.

    ``keys`` and each run are sorted and hold distinct keys; a key found
    in two of them drops out (the runs must not share keys).
    """
    out = merge_sorted(keys, *runs)
    if len(out) < 2:
        return out
    dup = out[1:] == out[:-1]
    if not dup.any():
        return out
    keep = np.ones(len(out), dtype=bool)
    keep[1:] &= ~dup
    keep[:-1] &= ~dup
    return out[keep]


class CodeSet:
    """A sorted set of distinct int64 codes that takes small edits cheaply.

    Two sorted arrays: ``main`` and a toggle ``log``; the set holds the
    codes found in exactly one of them.  :meth:`toggle` merges an edit
    into the log (one :func:`toggle_sorted`); the log folds into
    ``main`` the same way once it outgrows ``max(fold_min, len(main) >>
    4)`` codes, so an edit of k codes costs O(k + log n) amortized
    instead of a copy of the whole array.  :meth:`array` folds and
    returns ``main``; :meth:`runs` reads the codes in ``[id << 32, (id +
    1) << 32)`` for each id without folding.
    """

    #: Log size below which the log never folds on an edit.
    fold_min = 1024

    def __init__(self, codes: "np.ndarray | None" = None) -> None:
        self.main = np.empty(0, dtype=np.int64) if codes is None else codes
        self.log = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.main) + len(self.log) - 2 * int(member(self.log, self.main).sum())

    def toggle(self, drop: np.ndarray, add: np.ndarray) -> None:
        """Remove the sorted ``drop`` (all present) and insert the sorted
        ``add`` (all absent); the two share no code."""
        self.log = toggle_sorted(self.log, drop, add)
        if len(self.log) > max(self.fold_min, len(self.main) >> 4):
            self.fold()

    def fold(self) -> None:
        """Merge the log into ``main``."""
        if len(self.log):
            self.main = toggle_sorted(self.main, self.log)
            self.log = np.empty(0, dtype=np.int64)

    def array(self) -> np.ndarray:
        """Every code, sorted (folds the log first)."""
        self.fold()
        return self.main

    def runs(self, ids) -> "tuple[np.ndarray, np.ndarray]":
        """``(codes, owner)``: the codes whose high 32 bits are ``ids[owner]``.

        Codes of one id come in two sorted runs (from ``main``, then
        from the log), not one.
        """
        ids = np.asarray(ids, dtype=np.int64)
        codes, owner = self._runs(self.main, ids)
        if len(self.log):
            more, more_owner = self._runs(self.log, ids)
            keep = ~member(codes, self.log)
            fresh = ~member(more, self.main)
            codes = np.concatenate([codes[keep], more[fresh]])
            owner = np.concatenate([owner[keep], more_owner[fresh]])
        return codes, owner

    @staticmethod
    def _runs(arr: np.ndarray, ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        lo = arr.searchsorted(ids << 32)
        counts = arr.searchsorted((ids + 1) << 32) - lo
        return arr[ragged_arange(lo, counts)], np.repeat(np.arange(len(ids)), counts)
