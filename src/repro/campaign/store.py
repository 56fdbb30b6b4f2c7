"""The versioned, resumable campaign result store.

Layout of ``repro-campaign-store/v1``::

    <store>/
      store.json        # schema marker + the pinned spec + cell count
      manifest.jsonl    # one line per COMPLETED cell (append-only)
      telemetry.jsonl   # repro-telemetry/v1 progress snapshots (append-only)
      cells/<id>.json   # one repro-campaign-cell/v1 record per cell

The manifest is the resume contract: a cell id appears on it only
after its record file has been fully written and atomically renamed
into place, so a run killed at any instant leaves either (a) no trace
of an in-flight cell or (b) a complete record plus its manifest line.
``--resume`` therefore only ever re-runs cells whose ids are absent
from the manifest — completed cells are never re-executed.

Records reuse :func:`repro.harness.results.jsonify`, so non-finite
floats serialize as the strings ``"inf"``/``"-inf"``/``"nan"`` and the
files stay strict JSON; :func:`repro.campaign.store.unjsonify` restores
them on read so queries compare real floats.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.campaign.spec import CampaignSpec, SpecError, _spec_from_doc
from repro.harness.results import jsonify

STORE_SCHEMA = "repro-campaign-store/v1"
CELL_SCHEMA = "repro-campaign-cell/v1"

__all__ = [
    "CELL_SCHEMA",
    "STORE_SCHEMA",
    "CampaignStore",
    "StoreError",
    "unjsonify",
]


class StoreError(ValueError):
    """The store directory is missing, malformed, or spec-incompatible."""


def unjsonify(obj: Any) -> Any:
    """Inverse of :func:`jsonify` for the non-finite string encodings."""
    if isinstance(obj, dict):
        return {k: unjsonify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [unjsonify(v) for v in obj]
    if obj == "nan":
        return math.nan
    if obj == "inf":
        return math.inf
    if obj == "-inf":
        return -math.inf
    return obj


@dataclass
class CampaignStore:
    """Handle to one store directory (create via :meth:`create`/:meth:`open`)."""

    root: Path
    spec: CampaignSpec

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, root: "str | Path", spec: CampaignSpec) -> "CampaignStore":
        """Initialise a fresh store for ``spec`` (errors if one exists)."""
        root = Path(root)
        if (root / "store.json").exists():
            raise StoreError(
                f"campaign store already exists at {root}; "
                "pass --resume to continue it"
            )
        (root / "cells").mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": STORE_SCHEMA,
            "name": spec.name,
            "n_cells": spec.n_cells(),
            "spec": spec.to_json(),
        }
        _atomic_write(root / "store.json", json.dumps(doc, indent=2) + "\n")
        return cls(root=root, spec=spec)

    @classmethod
    def open(cls, root: "str | Path", spec: "CampaignSpec | None" = None) -> "CampaignStore":
        """Open an existing store; with ``spec``, insist it matches the pin.

        A resume against a *different* spec would silently mix sweeps,
        so the pinned spec document must be identical.
        """
        root = Path(root)
        path = root / "store.json"
        if not path.is_file():
            raise StoreError(f"no campaign store at {root} (missing store.json)")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"{path}: corrupt store.json ({exc})") from exc
        if doc.get("schema") != STORE_SCHEMA:
            raise StoreError(
                f"{path}: unsupported store schema {doc.get('schema')!r} "
                f"(want {STORE_SCHEMA})"
            )
        if "spec" not in doc:
            raise StoreError(f"{path}: store.json pins no campaign spec")
        try:
            pinned = _spec_from_doc(doc["spec"], origin=f"{path}:spec")
        except SpecError as exc:
            raise StoreError(f"{path}: pinned spec is invalid ({exc})") from exc
        if spec is not None and spec.to_json() != pinned.to_json():
            raise StoreError(
                f"store at {root} was created from a different spec "
                f"({pinned.name!r}); refusing to mix campaigns"
            )
        return cls(root=root, spec=pinned)

    # -- completion manifest ----------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.jsonl"

    @property
    def telemetry_path(self) -> Path:
        """The ``repro-telemetry/v1`` snapshot stream ``campaign run`` appends."""
        return self.root / "telemetry.jsonl"

    def completed_ids(self) -> "set[str]":
        """Cell ids marked complete (tolerates a torn trailing line)."""
        done: "set[str]" = set()
        if not self.manifest_path.is_file():
            return done
        for line in self.manifest_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed run; the cell re-runs
            cell = entry.get("cell")
            if cell and (self.root / "cells" / f"{cell}.json").is_file():
                done.add(cell)
        return done

    # -- records -----------------------------------------------------------

    def write_cell(self, record: dict) -> Path:
        """Persist one cell record, then mark it complete (in that order)."""
        cell_id = record["cell"]
        path = self.root / "cells" / f"{cell_id}.json"
        payload = jsonify({"schema": CELL_SCHEMA, **record})
        _atomic_write(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")
        mark = json.dumps(
            {
                "cell": cell_id,
                "claim": record.get("claim"),
                "passed": record.get("passed"),
                "runtime_seconds": record.get("runtime_seconds"),
            }
        )
        with self.manifest_path.open("a") as fh:
            fh.write(mark + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return path

    def load_cell(self, cell_id: str) -> dict:
        path = self.root / "cells" / f"{cell_id}.json"
        if not path.is_file():
            raise StoreError(f"no record for cell {cell_id} in {self.root}")
        return unjsonify(json.loads(path.read_text()))

    def cell_records(self) -> "Iterator[dict]":
        """Every completed cell record, in stable (cell-id) order."""
        for cell_id in sorted(self.completed_ids()):
            yield self.load_cell(cell_id)

    def is_complete(self) -> bool:
        return self.completed_ids() >= {c.cell_id for c in self.spec.cells()}


def _atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so a kill never leaves a partial file in place."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
