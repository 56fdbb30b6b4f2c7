"""Guard-zone interference primitives.

Definitions (paper §2.4, protocol model of Gupta-Kumar):

* ``IR(X, Y) = C(X, (1+Δ)|XY|) ∪ C(Y, (1+Δ)|XY|)`` with ``C`` the *open*
  disk — the interference region of the (bidirectional) exchange X ↔ Y;
* an edge ``e'`` *interferes with* ``e`` when IR(e') contains at least
  one endpoint of ``e``;
* simultaneous transmissions on e and e' both succeed only when neither
  interferes with the other.

Δ > 0 is the protocol guard-zone parameter.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import as_points
from repro.utils.arrays import unique_inverse
from repro.utils.validation import check_nonnegative

__all__ = [
    "InterferenceModel",
    "interference_radius",
    "edges_interfere",
    "successful_transmissions",
]


def interference_radius(length: "float | np.ndarray", delta: float) -> "float | np.ndarray":
    """Radius ``(1+Δ)·length`` of the guard disks of a transmission."""
    return (1.0 + delta) * length


class InterferenceModel:
    """Pairwise guard-zone interference with parameter Δ.

    Parameters
    ----------
    delta:
        Guard zone parameter Δ ≥ 0.  Δ = 0 degenerates to "an endpoint
        strictly inside the transmission disk interferes"; the paper
        assumes Δ > 0 but the implementation tolerates 0 for ablations.
    """

    def __init__(self, delta: float = 0.5) -> None:
        self.delta = check_nonnegative("delta", delta)

    def __repr__(self) -> str:
        return f"InterferenceModel(delta={self.delta:g})"

    # ------------------------------------------------------------------
    def region_contains(
        self,
        points: np.ndarray,
        edge: tuple[int, int],
        query: np.ndarray,
    ) -> np.ndarray:
        """Whether each ``query`` point lies in IR(edge) (open disks).

        Parameters
        ----------
        points:
            Node coordinate array the edge indexes into.
        edge:
            ``(x, y)`` node indices of the transmitting pair.
        query:
            ``(k, 2)`` array of positions to test.
        """
        pts = as_points(points)
        q = as_points(np.atleast_2d(query))
        x, y = pts[edge[0]], pts[edge[1]]
        r = interference_radius(float(np.hypot(*(x - y))), self.delta)
        dx = np.hypot(q[:, 0] - x[0], q[:, 1] - x[1])
        dy = np.hypot(q[:, 0] - y[0], q[:, 1] - y[1])
        return (dx < r) | (dy < r)

    def pair_interferes(
        self,
        points: np.ndarray,
        e1: tuple[int, int],
        e2: tuple[int, int],
    ) -> bool:
        """Whether e1 interferes with e2 **or** vice versa (symmetric)."""
        pts = as_points(points)
        a = self.region_contains(pts, e1, pts[list(e2)]).any()
        b = self.region_contains(pts, e2, pts[list(e1)]).any()
        return bool(a or b)

    # ------------------------------------------------------------------
    def interference_matrix(self, points: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Dense boolean ``(m, m)`` matrix: entry (i, j) ⇔ edge j's region
        touches an endpoint of edge i (directional relation; symmetrize
        with ``M | M.T`` for the paper's I(e)).

        Intended for small m (tests, single schedule steps).  For whole
        topologies use :func:`repro.interference.conflict.interference_sets`,
        which is output-sensitive.
        """
        pts = as_points(points)
        e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        m = len(e)
        if m == 0:
            return np.zeros((0, 0), dtype=bool)
        # Endpoints stacked as [first endpoints; second endpoints], and
        # every endpoint-to-endpoint distance in one (2m, 2m) block.
        x, y = pts[e.T.reshape(-1)].T
        d = np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y))
        # |xy| of edge i is the distance between its two endpoints.
        radii = interference_radius(d[np.arange(m), np.arange(m, 2 * m)], self.delta)
        # out[i, j]: an endpoint of edge i inside a guard disk of edge j.
        dmin = np.minimum(d[:m], d[m:])
        out = np.minimum(dmin[:, :m], dmin[:, m:]) < radii
        np.fill_diagonal(out, False)
        return out

    def resolve_codes(self, points: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """§3.3 resolve of one step's attempts, given as packed edge codes.

        ``codes[i]`` is attempt i's undirected edge ``(lo << 32) | hi``.
        Attempts on one edge (its two directions) form one bidirectional
        exchange and never kill each other; an attempt succeeds iff no
        *other* attempted edge's guard region touches an endpoint of its
        edge.  Returns the per-attempt success mask.
        """
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        if len(codes) == 0:
            return np.ones(0, dtype=bool)
        uniq, inverse = unique_inverse(codes)
        edges = np.column_stack([uniq >> 32, uniq & 0xFFFFFFFF])
        edge_ok = ~self.interference_matrix(points, edges).any(axis=1)
        return edge_ok[inverse]

    def successful_mask(self, points: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Success of each simultaneous transmission among ``edges``.

        Transmission i succeeds iff no other transmission's region
        contains an endpoint of i (§2.4's success condition).
        """
        mat = self.interference_matrix(points, edges)
        if mat.size == 0:
            return np.ones(0, dtype=bool)
        return ~mat.any(axis=1)


def edges_interfere(
    points: np.ndarray,
    e1: tuple[int, int],
    e2: tuple[int, int],
    delta: float,
) -> bool:
    """Convenience wrapper for :meth:`InterferenceModel.pair_interferes`."""
    return InterferenceModel(delta).pair_interferes(points, e1, e2)


def successful_transmissions(
    points: np.ndarray,
    edges: np.ndarray,
    delta: float,
) -> np.ndarray:
    """Convenience wrapper for :meth:`InterferenceModel.successful_mask`."""
    return InterferenceModel(delta).successful_mask(points, edges)
