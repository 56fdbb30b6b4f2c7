"""The randomized symmetry-breaking MAC of §3.3 ((T, γ, I)-balancing).

When no MAC protocol is given, the paper makes medium access local and
randomized: every edge ``e`` of the topology independently *activates*
with probability ``1/(2·I_e)``, where ``I_e`` upper-bounds the size of
the interference set of every edge that ``e`` interferes with.  Active
edges are handed to the (T, γ)-balancing algorithm; if two interfering
active edges both transmit, **neither** succeeds (the packets stay put
and the energy is spent).

Lemma 3.2: an active edge interferes with another active edge with
probability at most 1/2, so in expectation at least half the attempted
transmissions go through — the source of the Θ(1/I) factor in
Theorem 3.3.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import GeometricGraph
from repro.interference.conflict import InterferenceSets, interference_sets
from repro.interference.model import InterferenceModel
from repro.obs import metrics, trace
from repro.sim.packets import TxBatch
from repro.utils.rng import as_rng

__all__ = ["estimate_edge_interference", "RandomActivationMAC"]


def estimate_edge_interference(
    graph: "GeometricGraph | None",
    delta: float,
    *,
    mode: str = "own",
    sets: "InterferenceSets | None" = None,
) -> np.ndarray:
    """Per-edge activation bounds ``I_e`` (clamped below at 1).

    §3.3 asks each node to know, per incident edge e, an upper bound on
    the interference number of any edge e interferes with.  Two modes:

    * ``"own"`` (default) — ``I_e = |I(e)|``.  The paper notes that in
      the ideal 2-D Euclidean plane a bound on the edge's *own*
      interference number suffices; it activates low-interference edges
      far more often.
    * ``"neighborhood"`` — ``I_e = max(|I(e)|, max_{e' ∈ I(e)} |I(e')|)``,
      the conservative bound needed in spaces with obstacles.

    ``sets`` lets callers that already hold the interference sets (e.g.
    :class:`RandomActivationMAC`, or the incrementally maintained
    :class:`repro.dynamic.interference.DynamicInterference`) skip
    recomputing them; with ``sets`` given, ``graph`` may be ``None``.
    """
    if sets is None:
        if graph is None:
            raise ValueError("need either a graph or precomputed sets")
        sets = interference_sets(graph, delta)
    sizes = sets.degrees.astype(np.float64)
    if mode == "own":
        return np.maximum(sizes, 1.0)
    if mode != "neighborhood":
        raise ValueError(f"mode must be 'own' or 'neighborhood', got {mode!r}")
    return np.maximum(np.maximum(sizes, sets.neighborhood_max(sizes)), 1.0)


class RandomActivationMAC:
    """Edge activation with probability ``1/(2·I_e)`` + interference check.

    Parameters
    ----------
    graph:
        The topology whose edges contend for the medium.
    delta:
        Guard-zone parameter Δ of the interference model.
    rng:
        Seedable randomness source.
    interference_bounds:
        Optional precomputed ``I_e`` array; defaults to
        :func:`estimate_edge_interference`.

    Usage per step: :meth:`active_edges` → hand to the router's
    ``decide`` → :meth:`success_mask` on the chosen transmissions →
    router ``apply``.
    """

    def __init__(
        self,
        graph: GeometricGraph,
        delta: float,
        *,
        rng=None,
        interference_bounds: np.ndarray | None = None,
        bound_mode: str = "own",
        sets: "InterferenceSets | None" = None,
    ) -> None:
        self.graph = graph
        self.delta = float(delta)
        self.rng = as_rng(rng)
        # ``sets`` lets a caller holding a (possibly incrementally
        # maintained) conflict structure seed the MAC without a rebuild.
        self._sets: "InterferenceSets | None" = sets
        if interference_bounds is None:
            if self._sets is None:
                # Computed once and cached: interference_number reuses it.
                self._sets = interference_sets(graph, delta)
            interference_bounds = estimate_edge_interference(
                graph, delta, mode=bound_mode, sets=self._sets
            )
        bounds = np.asarray(interference_bounds, dtype=np.float64).reshape(-1)
        if len(bounds) != graph.n_edges:
            raise ValueError("interference_bounds length must equal the edge count")
        if (bounds < 1).any():
            raise ValueError("interference bounds must be >= 1")
        self.interference_bounds = bounds
        self.activation_probs = 1.0 / (2.0 * bounds)
        self._model = InterferenceModel(delta)

    @property
    def interference_number(self) -> int:
        """``I`` — the maximum interference-set size over all edges.

        The sets are computed at most once per instance (the constructor
        already builds them when it derives the activation bounds) and
        cached, rather than re-run on every property access.
        """
        if self._sets is None:
            self._sets = interference_sets(self.graph, self.delta)
        return self._sets.max_degree()

    def active_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample this step's active edges.

        Returns
        -------
        ``(directed_edges, costs)``: both orientations of every active
        undirected edge, with per-direction costs (one transmission per
        direction is allowed by the model).
        """
        m = self.graph.n_edges
        if m == 0:
            return np.empty((0, 2), dtype=np.intp), np.empty(0)
        with trace.span("mac.activate", edges=m) as sp:
            mask = self.rng.random(m) < self.activation_probs
            e = self.graph.edges[mask]
            c = self.graph.edge_costs[mask]
            directed = np.vstack([e, e[:, ::-1]]) if len(e) else np.empty((0, 2), dtype=np.intp)
            costs = np.concatenate([c, c]) if len(c) else np.empty(0)
            sp.set(activated=len(e))
        reg = metrics.active()
        if reg is not None:
            reg.counter("mac.activation_rounds").inc()
            reg.counter("mac.activated_edges").inc(len(e))
        return directed, costs

    def success_mask(self, batch: TxBatch) -> np.ndarray:
        """Resolve interference among the attempted transmissions.

        Both directions of one undirected edge belong to the same
        bidirectional exchange and never kill each other; distinct edges
        interfere per the guard-zone model.
        """
        k = len(batch)
        if k == 0:
            return np.ones(0, dtype=bool)
        with trace.span("mac.resolve", attempts=k) as sp:
            ok = self._model.resolve_codes(self.graph.points, batch.edge_codes())
            sp.set(succeeded=int(np.count_nonzero(ok)))
        reg = metrics.active()
        if reg is not None:
            reg.counter("mac.resolved_attempts").inc(k)
            reg.counter("mac.collision_failures").inc(k - int(np.count_nonzero(ok)))
        return ok
