"""Campaign specs: a declarative parameter grid over registry claims.

A campaign spec (``repro-campaign-spec/v1``) names a cartesian grid of
axes plus fixed overrides, and expands into *cells* — one concrete
(claim, profile, seed, parameter overrides) combination each.  JSON:

.. code-block:: json

    {
      "schema": "repro-campaign-spec/v1",
      "name": "smoke",
      "profile": "quick",
      "grid": {"claim": ["e1", "e2"], "n": [48, 96], "seed": [0, 1]},
      "fixed": {"distributions": ["uniform"]}
    }

TOML specs carry the same keys (loaded through :mod:`tomllib` where the
interpreter ships it, Python ≥ 3.11; on older interpreters a ``.toml``
spec raises with a clear message — JSON always works).

Axis semantics
--------------
``claim``
    Registry id (``e1`` … ``e24``); may be a grid axis or fixed.
``seed``
    Replaces the claim's registered RNG seed.  Optional (grid or
    fixed); defaults to the registry seed.
``profile``
    ``"full"`` or ``"quick"`` — selects the base parameter set the
    overrides are applied to.  Top-level key, grid axis, or fixed.
anything else
    A keyword override for the claim's harness function, applied on
    top of the profile's registered parameters.  As a convenience the
    scalar axis ``n`` adapts to harnesses that sweep ``ns=(...)``
    instead: ``n=96`` becomes ``ns=(96,)`` when the harness accepts
    ``ns`` but not ``n``.  Overrides a harness does not accept fail
    expansion with the offending cell named — a malformed sweep dies
    before any work is scheduled.

Cell identity
-------------
``Cell.cell_id`` is a stable content digest of the resolved
(claim, profile, seed, overrides) tuple, so the same spec always
expands to the same ids — that is what makes the store's completion
manifest resumable across runs and robust to axis reordering.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.harness.registry import REGISTRY

SPEC_SCHEMA = "repro-campaign-spec/v1"

#: keys with reserved meaning — everything else is a harness override.
_RESERVED = ("claim", "seed", "profile")

__all__ = [
    "SPEC_SCHEMA",
    "CampaignSpec",
    "Cell",
    "SpecError",
    "load_spec",
]


class SpecError(ValueError):
    """The campaign spec is malformed (bad schema, axis, or override)."""


@dataclass(frozen=True)
class Cell:
    """One concrete grid point: a claim run under resolved parameters."""

    claim: str
    profile: str
    seed: int
    #: axis/fixed overrides as declared in the spec (pre-adaptation).
    overrides: "tuple[tuple[str, Any], ...]"
    #: harness kwargs after applying overrides to the profile params.
    params: "Mapping[str, Any]" = field(compare=False)

    @property
    def cell_id(self) -> str:
        """Stable content id: claim plus a digest of the resolved run."""
        payload = json.dumps(
            {
                "claim": self.claim,
                "profile": self.profile,
                "seed": self.seed,
                "overrides": sorted(self.overrides),
            },
            sort_keys=True,
            default=str,
        )
        return f"{self.claim}-{hashlib.sha1(payload.encode()).hexdigest()[:10]}"

    def describe(self) -> dict:
        """Flat summary row (used by ``campaign cells`` and records)."""
        return {
            "cell": self.cell_id,
            "claim": self.claim,
            "profile": self.profile,
            "seed": self.seed,
            **dict(self.overrides),
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign declaration."""

    name: str
    profile: str
    grid: "Mapping[str, tuple]"
    fixed: "Mapping[str, Any]"
    check: bool = True
    source: "dict | None" = None

    def axes(self) -> "list[str]":
        return list(self.grid)

    def n_cells(self) -> int:
        out = 1
        for values in self.grid.values():
            out *= len(values)
        return out

    def cells(self) -> "list[Cell]":
        """Expand the grid into validated cells, in axis-major order.

        Two grid points that resolve to one ``cell_id`` (a repeated axis
        value, say) would run the same cell twice and leave the manifest
        with more lines than records, so they fail expansion instead.
        """
        axes = self.axes()
        cells: "dict[str, Cell]" = {}
        for combo in itertools.product(*(self.grid[a] for a in axes)):
            assignment = dict(self.fixed)
            assignment.update(dict(zip(axes, combo)))
            cell = _build_cell(assignment, self.profile)
            if cell.cell_id in cells:
                raise SpecError(
                    f"grid expands to cell {cell.cell_id} more than once "
                    f"({cell.describe()}); drop the repeated axis value"
                )
            cells[cell.cell_id] = cell
        return list(cells.values())

    def to_json(self) -> dict:
        """Canonical spec document (what the store pins at creation)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "profile": self.profile,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "fixed": dict(self.fixed),
            "check": self.check,
        }


def _build_cell(assignment: "dict[str, Any]", default_profile: str) -> Cell:
    claim_id = assignment.get("claim")
    if not isinstance(claim_id, str) or claim_id.lower() not in REGISTRY:
        raise SpecError(
            f"cell names unknown claim {claim_id!r}; "
            f"valid ids: {', '.join(REGISTRY)}"
        )
    claim = REGISTRY[claim_id.lower()]
    profile = assignment.get("profile", default_profile)
    if profile not in ("full", "quick"):
        raise SpecError(f"cell profile must be 'full' or 'quick', got {profile!r}")
    seed = assignment.get("seed", claim.seed)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError(f"cell seed must be an integer, got {seed!r}")
    overrides = {
        k: v for k, v in assignment.items() if k not in _RESERVED
    }
    params = _resolve_params(claim, profile, overrides)
    return Cell(
        claim=claim.id,
        profile=profile,
        seed=int(seed),
        overrides=tuple(sorted(overrides.items(), key=lambda kv: kv[0])),
        params=params,
    )


def _resolve_params(claim, profile: str, overrides: "dict[str, Any]") -> dict:
    """Profile params + overrides, adapted and validated against the harness."""
    sig = inspect.signature(claim.harness())
    accepted = {
        name
        for name, p in sig.parameters.items()
        if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD) and name != "rng"
    }
    params = dict(claim.params(profile))
    for key, value in overrides.items():
        if key == "n" and "n" not in accepted and "ns" in accepted:
            # scalar-n convenience for harnesses that sweep ns=(...)
            params["ns"] = (value,)
            continue
        if key not in accepted:
            raise SpecError(
                f"claim {claim.id} does not accept override {key!r}; "
                f"harness parameters: {', '.join(sorted(accepted))}"
            )
        params[key] = tuple(value) if isinstance(value, list) else value
    return params


def _spec_from_doc(doc: "dict[str, Any]", *, origin: str) -> CampaignSpec:
    if not isinstance(doc, dict):
        raise SpecError(f"{origin}: spec must be a mapping, got {type(doc).__name__}")
    schema = doc.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise SpecError(f"{origin}: unsupported spec schema {schema!r} (want {SPEC_SCHEMA})")
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise SpecError(f"{origin}: spec needs a non-empty string 'name'")
    grid = doc.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise SpecError(f"{origin}: spec needs a non-empty 'grid' mapping of axes")
    norm_grid: "dict[str, tuple]" = {}
    for axis, values in grid.items():
        if not isinstance(values, list) or not values:
            raise SpecError(f"{origin}: grid axis {axis!r} must be a non-empty list")
        norm_grid[axis] = tuple(values)
    fixed = doc.get("fixed", {})
    if not isinstance(fixed, dict):
        raise SpecError(f"{origin}: 'fixed' must be a mapping")
    if "claim" not in norm_grid and "claim" not in fixed:
        raise SpecError(f"{origin}: spec must place 'claim' on the grid or in 'fixed'")
    profile = doc.get("profile", "quick")
    spec = CampaignSpec(
        name=name,
        profile=profile,
        grid=norm_grid,
        fixed=dict(fixed),
        check=bool(doc.get("check", True)),
        source=doc,
    )
    spec.cells()  # validate every cell up front; dies before any work runs
    return spec


def load_spec(path: "str | Path") -> CampaignSpec:
    """Load and validate a JSON or TOML campaign spec from disk."""
    path = Path(path)
    if not path.is_file():
        raise SpecError(f"no such campaign spec: {path}")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11: JSON specs still work
            raise SpecError(
                f"{path}: TOML specs need Python >= 3.11 (tomllib); "
                "use a JSON spec on this interpreter"
            ) from exc
        doc = tomllib.loads(path.read_text())
    else:
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    return _spec_from_doc(doc, origin=str(path))
