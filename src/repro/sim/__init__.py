"""Discrete-time routing simulation substrate (§3 model).

The paper's routing model is synchronous: in each step an adversary (or
a MAC layer) provides a set of usable edges with costs, the router
decides which packets move, packets are received/absorbed, and new
injections arrive (dropped if the destination buffer is full).  This
package provides:

* :mod:`repro.sim.packets` — injection records and the per-step transmission batch;
* :mod:`repro.sim.stats` — throughput/energy/buffer accounting;
* :mod:`repro.sim.adversary` — adversarial injection + edge-activation
  generators, including *witnessed* adversaries that certify an OPT
  schedule (the denominator of competitive measurements);
* :mod:`repro.sim.schedules` — schedule objects and their validator;
* :mod:`repro.sim.optimal` — OPT bounds (time-expanded max-flow upper
  bound, min-energy costs);
* :mod:`repro.sim.baseline_routers` — shortest-path-FIFO and other
  comparison routers;
* :mod:`repro.sim.mobility` — node mobility models;
* :mod:`repro.sim.engine` — the step loop tying everything together.
"""

from repro.sim.packets import Injection, TxBatch
from repro.sim.stats import RoutingStats
from repro.sim.schedules import Schedule, validate_schedule, schedules_conflict_free
from repro.sim.adversary import (
    AdversaryStep,
    WitnessedScenario,
    permutation_scenario,
    hotspot_scenario,
    flood_scenario,
    stream_scenario,
    hotspot_stream_scenario,
    random_scenario_on_graph,
)
from repro.sim.optimal import (
    time_expanded_max_throughput,
    min_energy_cost_matrix,
    witness_cost_summary,
)
from repro.sim.baseline_routers import ShortestPathRouter, RandomWalkRouter
from repro.sim.tracking import TrackedBalancingRouter
from repro.sim.scenario_io import (
    save_scenario,
    load_scenario,
    save_event_trace,
    load_event_trace,
)
from repro.sim.geographic import GreedyGeographicRouter, greedy_geographic_path
from repro.sim.aqt import bounded_adversary_scenario, max_window_load
from repro.sim.mobility import StaticMobility, RandomWalkMobility, RandomWaypointMobility
from repro.sim.engine import SimulationEngine, SimulationResult

__all__ = [
    "Injection",
    "TxBatch",
    "RoutingStats",
    "Schedule",
    "validate_schedule",
    "schedules_conflict_free",
    "AdversaryStep",
    "WitnessedScenario",
    "permutation_scenario",
    "hotspot_scenario",
    "flood_scenario",
    "stream_scenario",
    "hotspot_stream_scenario",
    "random_scenario_on_graph",
    "time_expanded_max_throughput",
    "min_energy_cost_matrix",
    "witness_cost_summary",
    "ShortestPathRouter",
    "RandomWalkRouter",
    "TrackedBalancingRouter",
    "save_scenario",
    "load_scenario",
    "save_event_trace",
    "load_event_trace",
    "GreedyGeographicRouter",
    "greedy_geographic_path",
    "bounded_adversary_scenario",
    "max_window_load",
    "StaticMobility",
    "RandomWalkMobility",
    "RandomWaypointMobility",
    "SimulationEngine",
    "SimulationResult",
]
