"""Ragged-array primitives shared by the vectorized kernels.

The hot-path kernels (grid index, interference sets, ΘALG grouping)
all reduce to the same two CSR-style operations: materializing the
concatenation of ``arange(start, start+count)`` runs, and locating the
boundaries of equal-key runs in a sorted key sequence.  Keeping them
here means each kernel is a short composition of audited pieces.
"""

from __future__ import annotations

import numpy as np

_LOW = (1 << 32) - 1
_NO_CODES = np.empty(0, dtype=np.int64)
_NO_CODES.flags.writeable = False

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
    """A sorted set of distinct int64 codes that takes edits cheaply.

    A sorted ``main`` array and a ladder of sorted toggle ``logs``; the
    set holds the codes found in an odd number of them.  Log ``i`` holds
    up to ``fold_min * fold_ratio**i`` codes while that is under half of
    ``limit = max(fold_min, fold_fraction * len(main))``, and the last
    log up to ``limit``; with ``len(main) <= 2 * fold_min /
    fold_fraction`` there is one log.  :meth:`toggle` merges an edit of
    k codes into the smallest log that holds k (one
    :func:`toggle_sorted`); a log past its cap folds into the next one,
    and the last into ``main`` together with every other log.  So an
    edit costs O(k + cap) plus amortized folds instead of a copy of the
    whole array, and ``main`` is copied once per ``limit`` codes
    edited.  :meth:`array` folds and returns ``main``; :meth:`runs`
    reads the codes in ``[id << 32, (id + 1) << 32)`` for each id
    without folding.
    """

    #: Cap of the smallest log.
    fold_min = 1024
    #: Each log's cap is this multiple of the one before.
    fold_ratio = 8
    #: The last log folds into ``main`` at this fraction of its length.
    fold_fraction = 1 / 8

    def __init__(self, codes: "np.ndarray | None" = None) -> None:
        self.main = _NO_CODES if codes is None else codes
        self.logs: "list[np.ndarray]" = []
        self._len = len(self.main)

    def __len__(self) -> int:
        return self._len

    @property
    def nbytes(self) -> int:
        return self.main.nbytes + sum(log.nbytes for log in self.logs)

    def caps(self) -> "list[float]":
        """The cap of each log, smallest first."""
        limit = max(self.fold_min, self.fold_fraction * len(self.main))
        caps, cap = [], self.fold_min
        while 2 * cap < limit:
            caps.append(cap)
            cap = max(cap, 1) * self.fold_ratio
        return caps + [limit]

    def toggle(self, drop: np.ndarray, add: np.ndarray) -> None:
        """Remove the sorted ``drop`` (all present) and insert the sorted
        ``add`` (all absent); the two share no code."""
        k = len(drop) + len(add)
        if k == 0:
            return
        self._len += len(add) - len(drop)
        caps = self.caps()
        i = next((i for i, cap in enumerate(caps) if cap >= k), len(caps) - 1)
        logs = self.logs
        logs.extend([_NO_CODES] * (i + 1 - len(logs)))
        logs[i] = toggle_sorted(logs[i], drop, add)
        while len(logs[i]) > caps[i]:
            if i + 1 == len(caps):
                self.fold()
                return
            if i + 1 == len(logs):
                logs.append(_NO_CODES)
            logs[i + 1] = toggle_sorted(logs[i + 1], logs[i])
            logs[i] = _NO_CODES
            i += 1

    def fold(self) -> None:
        """Merge every log into ``main``."""
        folded = _NO_CODES
        for log in self.logs:
            if len(log):
                folded = toggle_sorted(folded, log) if len(folded) else log
        if len(folded):
            self.main = toggle_sorted(self.main, folded)
        self.logs = []

    def array(self) -> np.ndarray:
        """Every code, sorted (folds the logs first)."""
        self.fold()
        return self.main

    def runs(self, ids) -> "tuple[np.ndarray, np.ndarray]":
        """``(codes, owner)``: the sorted codes whose high 32 bits are
        ``ids[owner]``, for distinct ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        order = np.argsort(ids)
        lo = ids[order] << 32
        hi = lo + (1 << 32)
        codes = _NO_CODES
        for arr in (self.main, *self.logs):
            if len(arr):
                start = arr.searchsorted(lo)
                found = arr[ragged_arange(start, arr.searchsorted(hi) - start)]
                if len(found):
                    codes = toggle_sorted(codes, found) if len(codes) else found
        return codes, order.repeat(codes.searchsorted(hi) - codes.searchsorted(lo))
