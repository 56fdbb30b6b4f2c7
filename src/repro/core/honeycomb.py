"""The honeycomb algorithm for fixed transmission strength (§3.4).

Setting: every node transmits at the same fixed power, reaching every
node within distance 1; a transmission from s to t succeeds iff (i)
``|st| ≤ 1`` and (ii) every node of every *other* simultaneous
sender-receiver pair is farther than ``1+Δ`` from both s and t
(pairs satisfying (ii) are *independent* — note the guard distance is
absolute here, unlike the relative guard zones of §2.4).

The plane is tiled by hexagons of side ``3+2Δ``; each sender-receiver
pair is assigned to the hexagon containing the sender.  Per step:

1. the *benefit* of a pair (s, t) is the maximum over destinations d of
   ``h_{s,d} − h_{t,d}``;
2. within each hexagon the maximum-benefit pair, if its benefit exceeds
   the threshold T, becomes the hexagon's *contestant*;
3. each contestant transmits independently with probability
   ``p_t ≤ 1/6``; by Lemma 3.7 each transmitting contestant then
   succeeds with probability ≥ 1/2;
4. successful contestants move one packet chosen by the (T, γ,
   3)-balancing rule (costs are uniform at fixed power, so the rule
   reduces to the plain height argmax).

Theorem 3.8: the combination is
``((1−ε)/(24·c_b), 1+(1+T/B)L̄/ε, 1+2/ε)``-competitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.core.balancing import BalancingConfig, BalancingRouter
from repro.geometry.hexgrid import HexGrid
from repro.geometry.primitives import as_points
from repro.sim.packets import TxBatch
from repro.utils.rng import as_rng
from repro.utils.validation import check_in_range, check_nonnegative

__all__ = ["HoneycombConfig", "HoneycombRouter"]


@dataclass(frozen=True)
class HoneycombConfig:
    """Parameters of the honeycomb algorithm.

    Attributes
    ----------
    delta:
        Guard distance parameter Δ (absolute, §3.4 semantics).
    threshold:
        T — minimum benefit for a pair to become a contestant.
    gamma:
        γ of the underlying balancing rule (costs are uniform, so this
        only shifts the threshold; kept for parameter fidelity).
    max_height:
        H — buffer capacity.
    p_transmit:
        p_t — per-contestant transmission probability, must be ≤ 1/6
        for Lemma 3.7's success guarantee.
    unit_cost:
        Energy charged per fixed-power transmission (default 1).
    """

    delta: float = 0.5
    threshold: float = 1.0
    gamma: float = 0.0
    max_height: int = 64
    p_transmit: float = 1.0 / 6.0
    unit_cost: float = 1.0

    def __post_init__(self) -> None:
        check_nonnegative("delta", self.delta)
        check_nonnegative("threshold", self.threshold)
        check_nonnegative("gamma", self.gamma)
        check_in_range("p_transmit", self.p_transmit, 0.0, 1.0 / 6.0, inclusive=(False, True))


class HoneycombRouter:
    """Contestant selection + balancing at fixed transmission strength.

    Parameters
    ----------
    points:
        Node positions; the usable pairs are all pairs at distance ≤ 1.
    destinations:
        Destination node ids (``None`` = all nodes).
    config:
        Algorithm parameters.
    rng:
        Seedable randomness for the p_t coin flips.
    """

    def __init__(
        self,
        points: np.ndarray,
        destinations=None,
        config: HoneycombConfig = HoneycombConfig(),
        *,
        rng=None,
    ) -> None:
        self.points = as_points(points)
        self.config = config
        self.rng = as_rng(rng)
        self.hexgrid = HexGrid.for_guard_zone(config.delta)
        n = len(self.points)
        self.router = BalancingRouter(
            n,
            destinations,
            BalancingConfig(
                threshold=config.threshold,
                gamma=config.gamma,
                max_height=config.max_height,
            ),
        )
        # All sender-receiver pairs: unit-disk edges, both orientations.
        tree = cKDTree(self.points)
        und = tree.query_pairs(1.0, output_type="ndarray")
        if und.size == 0:
            self.directed_pairs = np.empty((0, 2), dtype=np.intp)
        else:
            und = und.astype(np.intp)
            self.directed_pairs = np.vstack([und, und[:, ::-1]])
        # Hexagon (axial coords) of each pair's *sender*.
        if len(self.directed_pairs):
            cells = self.hexgrid.cell_of(self.points[self.directed_pairs[:, 0]])
            self._pair_cells = cells
        else:
            self._pair_cells = np.empty((0, 2), dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The underlying router's :class:`~repro.sim.stats.RoutingStats`."""
        return self.router.stats

    def benefits(self) -> np.ndarray:
        """Benefit of every directed pair: ``max_d (h_s,d − h_t,d)``."""
        if len(self.directed_pairs) == 0:
            return np.empty(0)
        h = self.router.heights
        diff = h[self.directed_pairs[:, 0], :] - h[self.directed_pairs[:, 1], :]
        return diff.max(axis=1).astype(np.float64)

    def select_contestants(self) -> np.ndarray:
        """Indices (into ``directed_pairs``) of this step's contestants.

        One pair per occupied hexagon: the maximum-benefit pair whose
        benefit exceeds T (ties broken by pair index).
        """
        if len(self.directed_pairs) == 0:
            return np.empty(0, dtype=np.intp)
        ben = self.benefits()
        eligible = np.nonzero(ben > self.config.threshold)[0]
        best: dict[tuple[int, int], int] = {}
        for k in eligible:
            cell = (int(self._pair_cells[k, 0]), int(self._pair_cells[k, 1]))
            cur = best.get(cell)
            if cur is None or ben[k] > ben[cur]:
                best[cell] = int(k)
        return np.asarray(sorted(best.values()), dtype=np.intp)

    def independent_success_mask(self, pairs: np.ndarray) -> np.ndarray:
        """§3.4 success: pair i succeeds iff every node of every other
        transmitting pair is farther than ``1+Δ`` from both its endpoints."""
        k = len(pairs)
        if k == 0:
            return np.ones(0, dtype=bool)
        s = self.points[pairs[:, 0]]
        t = self.points[pairs[:, 1]]
        guard = 1.0 + self.config.delta
        ok = np.ones(k, dtype=bool)
        # Pairwise min distance between {s_i, t_i} and {s_j, t_j}.
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                dmin = min(
                    float(np.hypot(*(s[i] - s[j]))),
                    float(np.hypot(*(s[i] - t[j]))),
                    float(np.hypot(*(t[i] - s[j]))),
                    float(np.hypot(*(t[i] - t[j]))),
                )
                if dmin <= guard:
                    ok[i] = False
                    break
        return ok

    # ------------------------------------------------------------------
    def step(self, injections: "list[tuple[int, int, int]] | None" = None) -> int:
        """Run one synchronous step; returns packets delivered.

        contestant selection → p_t coin flips → balancing decision on
        the transmitting pairs → interference resolution → commit →
        injections.
        """
        contestants = self.select_contestants()
        if len(contestants):
            coins = self.rng.random(len(contestants)) < self.config.p_transmit
            chosen = contestants[coins]
        else:
            chosen = contestants
        if len(chosen):
            edges = self.directed_pairs[chosen]
            costs = np.full(len(edges), self.config.unit_cost)
            batch = self.router.decide(edges, costs)
        else:
            batch = TxBatch.empty()
        mask = self.independent_success_mask(np.column_stack([batch.src, batch.dst]))
        delivered = self.router.apply(batch, mask)
        for node, dest, count in injections or []:
            self.router.inject(node, dest, count)
        self.router.end_step(delivered)
        return delivered
