"""Checked argument types and the shared ``--trace`` option.

Every range rule of the command line lives in one of these argparse
types, so a bad value exits 2 at parse time with the flag named
(``argument --churn: expected a probability in (0, 1], got 'nan'``)
instead of failing deep inside a run.
"""

from __future__ import annotations

import argparse
import math
import os


def _checked(convert, accept, what: str):
    """An argparse type: ``convert`` the text, then require ``accept``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


def int_at_least(lo: int):
    """Integers ``>= lo``."""
    return _checked(int, lambda v: v >= lo, f"an integer >= {lo}")


positive_int = int_at_least(1)
nonnegative_int = int_at_least(0)
port = _checked(int, lambda v: 0 <= v <= 65535, "a port in 0..65535")
probability = _checked(float, lambda v: 0.0 < v <= 1.0, "a probability in (0, 1]")
nonnegative_float = _checked(
    float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0"
)
positive_float = _checked(
    float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0"
)


def trace_parent() -> argparse.ArgumentParser:
    """Parent parser giving ``--trace DIR`` to the commands that run work.

    The default is read from ``REPRO_TRACE`` when the parser is built;
    :func:`repro.cli.main` enables :mod:`repro.obs` for a traced command
    and exports the capture into the directory when it ends.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        default=os.environ.get("REPRO_TRACE") or None,
        metavar="DIR",
        help="capture a span trace and per-step series into DIR "
        "(default: $REPRO_TRACE)",
    )
    return parent
