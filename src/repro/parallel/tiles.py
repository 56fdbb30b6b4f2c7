"""Plane decomposition into worker-owned tiles.

The paper's locality results make domain decomposition sound: a churn
event's repair region is bounded by 2D (E23), conflict rows reach
(1+Δ)D (E24), and repairs whose dirty regions are ≥ 2(4+Δ)D apart are
independent (the union–find radius of :mod:`repro.dynamic.batching`).
A :class:`TileGrid` carves the bounding box of the node set into an
``nx × ny`` grid of axis-aligned tiles at least that wide, so

* every node belongs to exactly one tile (its **owner**), and
* per-tile work only ever needs state within a fixed-width **halo**
  band around the tile — the rest of the plane is invisible to it.

Ownership is pure arithmetic on coordinates (``floor((x - x0)/w)``
clamped to the grid), identical in parent and workers, so no ownership
table is ever exchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TileGrid"]


@dataclass(frozen=True)
class TileGrid:
    """An ``nx × ny`` decomposition of ``[x0, x0+nx·w] × [y0, y0+ny·h]``.

    Tiles are indexed ``t = tx * ny + ty`` (column-major).  Points
    outside the box are clamped to the border tiles, so the outermost
    tiles own the half-open overhang as well — every point in the plane
    has exactly one owner.
    """

    x0: float
    y0: float
    tile_w: float
    tile_h: float
    nx: int
    ny: int

    @classmethod
    def cover(
        cls,
        bounds: "tuple[float, float, float, float]",
        *,
        tiles: "int | None" = None,
        min_width: "float | None" = None,
        shape: "tuple[int, int] | None" = None,
    ) -> "TileGrid":
        """A grid of roughly ``tiles`` near-square tiles over ``bounds``.

        ``min_width`` is the independence radius 2(4+Δ)D: no tile side
        ever drops below it (the tile count shrinks instead), so work
        on distinct non-adjacent tiles can never interact.

        ``shape=(nx, ny)`` pins the grid shape exactly instead (each
        axis still collapses to 1 over a degenerate zero extent).  The
        construction halos stay exact for *any* tile size — the
        min-width clamp only matters for independence-based routing —
        so a pinned shape skips it; ``min_width`` may then be omitted.
        """
        x0, y0, x1, y1 = (float(v) for v in bounds)
        if not (x1 >= x0 and y1 >= y0):
            raise ValueError(f"invalid bounds {bounds}")
        w, h = x1 - x0, y1 - y0
        if shape is not None:
            nx, ny = (int(v) for v in shape)
            if nx < 1 or ny < 1:
                raise ValueError(f"shape must be >= (1, 1), got {shape}")
            nx = nx if w > 0 else 1
            ny = ny if h > 0 else 1
        else:
            if tiles is None:
                raise ValueError("pass either tiles= or shape=")
            if min_width is None or min_width <= 0:
                raise ValueError("min_width must be positive")
            tiles = max(1, int(tiles))
            max_nx = max(1, int(math.floor(w / min_width)))
            max_ny = max(1, int(math.floor(h / min_width)))
            # Aim for near-square tiles: split the target count in
            # proportion to the box aspect ratio, then clamp to the
            # min-width limits.
            if w <= 0 or h <= 0:
                nx = min(tiles if h <= 0 else 1, max_nx)
                ny = min(tiles if w <= 0 else 1, max_ny)
            else:
                nx = int(round(math.sqrt(tiles * w / h))) or 1
                nx = min(max(1, nx), max_nx)
                ny = min(max(1, int(math.ceil(tiles / nx))), max_ny)
        fallback = max(min_width or 0.0, 1.0)
        return cls(
            x0=x0,
            y0=y0,
            tile_w=(w / nx) if w > 0 else fallback,
            tile_h=(h / ny) if h > 0 else fallback,
            nx=nx,
            ny=ny,
        )

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def shape(self) -> "tuple[int, int]":
        return (self.nx, self.ny)

    # -- ownership ---------------------------------------------------------
    def tile_of_many(self, pts: np.ndarray) -> np.ndarray:
        """Owner tile id per point (vectorized, clamped to the grid)."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        tx = np.floor((pts[:, 0] - self.x0) / self.tile_w).astype(np.int64)
        ty = np.floor((pts[:, 1] - self.y0) / self.tile_h).astype(np.int64)
        np.clip(tx, 0, self.nx - 1, out=tx)
        np.clip(ty, 0, self.ny - 1, out=ty)
        return tx * self.ny + ty

    def tile_of(self, p: np.ndarray) -> int:
        """Owner tile id of one point."""
        return int(self.tile_of_many(np.asarray(p, dtype=np.float64).reshape(1, 2))[0])

    # -- geometry ----------------------------------------------------------
    def rect(self, t: int) -> "tuple[float, float, float, float]":
        """The closed rectangle ``(x0, y0, x1, y1)`` of tile ``t``."""
        if not 0 <= t < self.n_tiles:
            raise IndexError(f"tile {t} out of range for {self.n_tiles} tiles")
        tx, ty = divmod(int(t), self.ny)
        return (
            self.x0 + tx * self.tile_w,
            self.y0 + ty * self.tile_h,
            self.x0 + (tx + 1) * self.tile_w,
            self.y0 + (ty + 1) * self.tile_h,
        )

    def halo_rect(self, t: int, halo: float) -> "tuple[float, float, float, float]":
        """Tile ``t``'s rectangle expanded by ``halo``: ``(lo_x, lo_y, hi_x, hi_y)``.

        Border tiles extend to infinity on their outer sides (they own
        the clamped overhang).
        """
        x0, y0, x1, y1 = self.rect(t)
        tx, ty = divmod(int(t), self.ny)
        return (
            -np.inf if tx == 0 else x0 - halo,
            -np.inf if ty == 0 else y0 - halo,
            np.inf if tx == self.nx - 1 else x1 + halo,
            np.inf if ty == self.ny - 1 else y1 + halo,
        )

    def halo_mask(self, pts: np.ndarray, t: int, halo: float) -> np.ndarray:
        """Points within :meth:`halo_rect` of tile ``t``.

        The mask is a superset of the owned points for any ``halo ≥ 0``.
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        lo_x, lo_y, hi_x, hi_y = self.halo_rect(t, halo)
        return (
            (pts[:, 0] >= lo_x)
            & (pts[:, 0] <= hi_x)
            & (pts[:, 1] >= lo_y)
            & (pts[:, 1] <= hi_y)
        )

    def _own_extent(self, t: int) -> "tuple[float, float, float, float]":
        """Tile ``t``'s owned extent with border overhang (±inf sides)."""
        x0, y0, x1, y1 = self.rect(t)
        tx, ty = divmod(int(t), self.ny)
        return (
            -np.inf if tx == 0 else x0,
            -np.inf if ty == 0 else y0,
            np.inf if tx == self.nx - 1 else x1,
            np.inf if ty == self.ny - 1 else y1,
        )

    def corner_mask(self, pts: np.ndarray, t: int, halo: float) -> np.ndarray:
        """Halo points of tile ``t`` that live in its *corner* squares.

        On a 1×k or k×1 grid every halo point is axis-adjacent; at k×k
        (k ≥ 2) the halo band also covers the four corner squares beyond
        **both** of the tile's axis extents — state that only a diagonal
        neighbor owns.  These points are still inside the halo rectangle
        of :meth:`halo_mask` (the exchange is implicit in the rectangle
        geometry), this mask just isolates them for accounting and tests.
        Border tiles own their overhang, so sides extended to ±inf never
        produce corners.
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        lo_x, lo_y, hi_x, hi_y = self._own_extent(t)
        outside_x = (pts[:, 0] < lo_x) | (pts[:, 0] > hi_x)
        outside_y = (pts[:, 1] < lo_y) | (pts[:, 1] > hi_y)
        return self.halo_mask(pts, t, halo) & outside_x & outside_y

    def neighbors(self, t: int, *, diagonal: bool = True) -> "tuple[int, ...]":
        """Adjacent tile ids (including the diagonal corner neighbors)."""
        if not 0 <= t < self.n_tiles:
            raise IndexError(f"tile {t} out of range for {self.n_tiles} tiles")
        tx, ty = divmod(int(t), self.ny)
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                if not diagonal and dx != 0 and dy != 0:
                    continue
                ux, uy = tx + dx, ty + dy
                if 0 <= ux < self.nx and 0 <= uy < self.ny:
                    out.append(ux * self.ny + uy)
        return tuple(sorted(out))
