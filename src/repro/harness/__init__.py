"""Claim-verification harness: registry, substrate cache, JSON results.

The harness turns the E1–E24 experiment suite into a machine-checkable
gate: every experiment is declared as a :class:`~repro.harness.registry.Claim`
with a paper reference, full and ``--quick`` parameter sets, and a
tolerance/bound predicate.  ``python -m repro verify [--quick] [--jobs N]
[--only e4,e7]`` runs the selection as a one-cell-per-claim campaign
(:mod:`repro.campaign`), renders one versioned JSON record per claim
through :mod:`repro.harness.results`, and exits nonzero if any claim
predicate fails.
"""

from repro.harness.registry import REGISTRY, Claim, build_rows
from repro.harness.results import default_results_dir, write_result

__all__ = [
    "REGISTRY",
    "Claim",
    "build_rows",
    "default_results_dir",
    "write_result",
]
