"""Versioned JSON result records for claim verification runs.

``repro verify`` runs each claim as one cell of a campaign (see
:mod:`repro.campaign`), and :func:`write_result` renders that cell's
store record as one ``<claim>.json`` under the results directory
(``benchmarks/results/`` by default, overridable through the
``REPRO_RESULTS_DIR`` environment variable so CI can redirect
artifacts).  The schema, ``repro-claim-result/v1``:

.. code-block:: json

    {
      "schema": "repro-claim-result/v1",
      "claim": "e2",
      "title": "O(1) energy-stretch of N",
      "paper_ref": "Theorem 2.2",
      "profile": "quick",
      "seed": 0,
      "params": {"ns": [48], "...": "..."},
      "rows": [{"...": "..."}],
      "n_rows": 4,
      "passed": true,
      "failures": [],
      "runtime_seconds": 1.73,
      "cache": {"hits": 2, "misses": 3, "evictions": 0}
    }

Non-finite floats (the tables use ``inf``/``nan`` for absent bounds)
are serialized as the strings ``"inf"``, ``"-inf"`` and ``"nan"`` so
the files stay strict JSON; numpy scalars are unwrapped to their
Python equivalents.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

SCHEMA = "repro-claim-result/v1"

__all__ = [
    "SCHEMA",
    "ResultsDirError",
    "default_results_dir",
    "jsonify",
    "resolve_results_dir",
    "write_result",
]


class ResultsDirError(OSError):
    """The results directory cannot be created or written.

    Raised with an actionable message naming the offending path and the
    ``REPRO_RESULTS_DIR`` override, so both ``verify`` and ``campaign``
    fail the same way when pointed at a read-only location.
    """


#: the keys of a ``repro-claim-result/v1`` record, in file order; a
#: campaign cell record carries all of them (plus cell/store bookkeeping).
_CLAIM_KEYS = (
    "claim", "title", "paper_ref", "profile", "seed", "params", "rows",
    "failures", "runtime_seconds", "cache", "n_rows", "passed",
)


def jsonify(obj):
    """Recursively convert a result payload to strict-JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    item = getattr(obj, "item", None)  # numpy scalars (incl. np.bool_)
    if callable(item):
        return jsonify(item())
    to_dict = getattr(obj, "to_dict", None)  # RoutingStats, StepSeries, ...
    if callable(to_dict):
        return jsonify(to_dict())
    return str(obj)


def default_results_dir() -> Path:
    """``$REPRO_RESULTS_DIR`` if set, else ``benchmarks/results`` (cwd-relative)."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    return Path(env) if env else Path("benchmarks") / "results"


def resolve_results_dir(subdir: "str | None" = None, *, create: bool = True) -> Path:
    """The directory result stores live in, created and checked writable.

    Both the ``verify`` claim records and the campaign stores resolve
    their output location through this single helper, so the
    ``REPRO_RESULTS_DIR`` override behaves identically for each.  With
    ``subdir`` the path is ``<results_dir>/<subdir>`` (campaigns use
    ``campaigns/<name>``).  Raises :class:`ResultsDirError` with the
    offending path when the directory cannot be created or is not
    writable.
    """
    base = default_results_dir()
    path = base / subdir if subdir else base
    if not create:
        return path
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ResultsDirError(
            f"cannot create results directory {path}: {exc}. "
            "Set REPRO_RESULTS_DIR to a writable location."
        ) from exc
    if not os.access(path, os.W_OK):
        raise ResultsDirError(
            f"results directory {path} is not writable. "
            "Set REPRO_RESULTS_DIR to a writable location."
        )
    return path


def write_result(cell: dict, results_dir: "Path | None" = None) -> Path:
    """Render one claim's campaign cell record as ``<results_dir>/<claim>.json``."""
    out_dir = Path(results_dir) if results_dir is not None else resolve_results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cell['claim']}.json"
    record = jsonify({"schema": SCHEMA, **{k: cell[k] for k in _CLAIM_KEYS}})
    path.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    return path
