"""The claim registry: every E1–E24 experiment as a checkable record.

A :class:`Claim` binds an experiment id to

* the paper statement it reproduces (``paper_ref``),
* the harness function that produces its structured rows (referenced
  by module/function name so records stay picklable for the process
  pool),
* ``full`` and ``quick`` parameter sets (the quick tier is what CI
  gates every push on),
* a tolerance/bound predicate from :mod:`repro.harness.checks`, and
* a per-claim RNG seed injected as the harness function's ``rng``.

``python -m repro`` builds its experiment table from this registry;
``python -m repro verify`` evaluates the predicates and fails the run
if any claim no longer holds.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.harness import checks

__all__ = ["Claim", "REGISTRY", "build_rows", "claim_ids", "resolve_ids"]

_PROFILES = ("full", "quick")


@dataclass(frozen=True)
class Claim:
    """One machine-checkable paper claim."""

    id: str
    title: str
    paper_ref: str
    module: str
    func: str
    check: "Callable[[list[dict], str], list[str]]"
    full_params: "Mapping[str, Any]" = field(default_factory=dict)
    quick_params: "Mapping[str, Any]" = field(default_factory=dict)
    seed: int = 0

    def params(self, profile: str) -> "Mapping[str, Any]":
        if profile not in _PROFILES:
            raise ValueError(f"unknown profile {profile!r}; expected one of {_PROFILES}")
        return self.full_params if profile == "full" else self.quick_params

    def harness(self) -> "Callable[..., list[dict]]":
        return getattr(importlib.import_module(self.module), self.func)


def build_rows(claim: Claim, profile: str) -> "list[dict]":
    """Run a claim's harness under the given parameter profile."""
    return claim.harness()(**dict(claim.params(profile)), rng=claim.seed)


_TOPO = "repro.analysis.topology_experiments"
_ROUTE = "repro.analysis.routing_experiments"
_ABLATE = "repro.analysis.ablation_experiments"
_MOBILE = "repro.analysis.mobility_experiments"
_GEO = "repro.analysis.geographic_experiments"
_ANY = "repro.analysis.anycast_experiments"
_DYN = "repro.analysis.dynamic_experiments"


def _claims() -> "list[Claim]":
    pi = math.pi
    return [
        Claim(
            "e1", "connectivity and degree bound of N", "Lemma 2.1",
            _TOPO, "e1_degree_connectivity", checks.check_e1,
            quick_params={"ns": (48,), "thetas": (pi / 6,), "distributions": ("uniform", "ring")},
        ),
        Claim(
            "e2", "O(1) energy-stretch of N", "Theorem 2.2",
            _TOPO, "e2_energy_stretch", checks.check_e2,
            quick_params={
                "ns": (48,), "thetas": (pi / 9,), "kappas": (2.0,),
                "distributions": ("uniform",),
            },
        ),
        Claim(
            "e3", "distance-stretch on civilized graphs", "Theorem 2.7",
            _TOPO, "e3_distance_stretch_civilized", checks.check_e3,
            quick_params={"ns": (48,), "lams": (0.5,), "thetas": (pi / 9,)},
        ),
        Claim(
            "e4", "interference number O(log n)", "Lemma 2.10",
            _TOPO, "e4_interference_scaling", checks.check_e4,
            quick_params={"ns": (48, 96), "deltas": (0.5,), "trials": 1},
        ),
        Claim(
            "e5", "θ-path congestion ≤ 6", "Lemma 2.9",
            _TOPO, "e5_schedule_replacement", checks.check_e5,
            quick_params={"ns": (48,), "steps": 5},
        ),
        Claim(
            "e6", "(T, γ)-balancing competitiveness", "Theorem 3.1",
            _ROUTE, "e6_balancing_competitive", checks.check_e6,
            quick_params={"epsilons": (0.25,), "duration": 200},
        ),
        Claim(
            "e7", "(T, γ, I)-balancing vs the 1/(8I) floor", "Theorem 3.3",
            _ROUTE, "e7_tgi_throughput", checks.check_e7,
            quick_params={"trials": 1, "duration": 1500, "n": 50},
        ),
        Claim(
            "e8", "O(1/log n) competitiveness on random nodes", "Corollary 3.5",
            _ROUTE, "e8_random_competitive", checks.check_e8,
            quick_params={"ns": (48, 96), "duration": 1500},
        ),
        Claim(
            "e9", "honeycomb algorithm at fixed power", "Theorem 3.8",
            _ROUTE, "e9_honeycomb", checks.check_e9,
            quick_params={"deltas": (0.5,), "duration": 300},
        ),
        Claim(
            "e10", "topology zoo comparison", "§1.2",
            _TOPO, "e10_topology_zoo", checks.check_e10,
            quick_params={"n": 80, "distributions": ("uniform",)},
        ),
        Claim(
            "e11", "3-round local protocol", "§2.1",
            _TOPO, "e11_local_protocol", checks.check_e11,
            quick_params={"ns": (48,)},
        ),
        Claim(
            "e12", "buffer/threshold trade-off", "§3.2",
            _ROUTE, "e12_buffer_tradeoff", checks.check_e12,
            quick_params={"thresholds": (1, 16), "heights": (8, 128), "duration": 150},
        ),
        Claim(
            "e13", "protocol vs SINR interference models", "§2.4 remark",
            _ABLATE, "e13_interference_models", checks.check_e13,
            quick_params={"n": 64, "deltas": (0.5,), "betas": (2.0,), "sets_per_config": 40},
        ),
        Claim(
            "e14", "local ΘALG vs global sparsification", "§2.1 remark",
            _ABLATE, "e14_local_vs_global", checks.check_e14,
            quick_params={"ns": (64,)},
        ),
        Claim(
            "e15", "worst distance-stretch probe", "§2 open problem",
            _ABLATE, "e15_spanner_probe", checks.check_e15,
            quick_params={"n": 64, "thetas": (pi / 9,), "trials": 2},
        ),
        Claim(
            "e16", "routing under mobility churn", "§1 motivation",
            _MOBILE, "e16_mobility_churn", checks.check_e16,
            quick_params={"n": 30, "speeds": (0.0, 0.01), "steps": 200},
        ),
        Claim(
            "e17", "greedy geographic routing vs sparsity", "§1.2 context",
            _GEO, "e17_geographic_routing", checks.check_e17,
            quick_params={"n": 80, "n_pairs": 80},
        ),
        Claim(
            "e18", "anycast balancing vs fixed-member unicast", "extension",
            _ANY, "e18_anycast", checks.check_e18,
            quick_params={"n": 50, "group_sizes": (1, 4), "duration": 200},
        ),
        Claim(
            "e19", "slot cost of the 3 rounds under interference", "§2.1 closing remark",
            _TOPO, "e19_protocol_slots", checks.check_e19,
            quick_params={"ns": (48,)},
        ),
        Claim(
            "e20", "stability under (w, ρ)-bounded adversaries", "§1.2 AQT lineage",
            _ROUTE, "e20_aqt_stability", checks.check_e20,
            full_params={"durations": (200, 400)},
            quick_params={"durations": (150,)},
        ),
        Claim(
            "e21", "throughput vs per-node concurrency (δ)", "Theorem 3.1's δ parameter",
            _ROUTE, "e21_frequency_sweep", checks.check_e21,
            quick_params={"deltas": (1, 2), "duration": 200},
        ),
        Claim(
            "e22", "the protocol under message loss", "failure injection",
            _TOPO, "e22_lossy_protocol", checks.check_e22,
            full_params={"n": 100},
            quick_params={"n": 40},
        ),
        Claim(
            "e23", "locality of update under churn", "§1/§2.1 locality argument",
            _DYN, "e23_locality_of_update", checks.check_e23,
            quick_params={"ns": (120, 240), "events_per_n": 120},
            seed=23,
        ),
        Claim(
            "e24", "locality of interference repair", "§2.4 guard zones + locality argument",
            _DYN, "e24_interference_repair_locality", checks.check_e24,
            quick_params={"ns": (120, 240), "events_per_n": 80, "check_every": 1},
            seed=24,
        ),
    ]


#: experiment id → Claim, in E1..E24 order.
REGISTRY: "dict[str, Claim]" = {c.id: c for c in _claims()}


def claim_ids() -> "list[str]":
    return list(REGISTRY)


def resolve_ids(spec: "str | None") -> "list[str]":
    """Parse an ``--only``-style spec (``"e4,e7"``) into claim ids.

    ``None``, ``""``, ``"all"`` and a spec naming no id (``","``) mean
    every claim.  Repeats collapse to their first occurrence
    (``"e1,e1,E1"`` is ``["e1"]``).  Raises ``KeyError`` listing the
    malformed/unknown ids otherwise.
    """
    if not spec or spec.strip().lower() == "all":
        return claim_ids()
    parts = (part.strip().lower() for part in spec.split(","))
    ids = list(dict.fromkeys(part for part in parts if part))
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")
    return ids or claim_ids()
