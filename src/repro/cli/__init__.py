"""The ``python -m repro`` command line: one argparse tree, a module per command.

:func:`build_parser` assembles the subcommands of :mod:`repro.cli.claims`
(``e1`` … ``e24``, ``all``, ``list``), :mod:`~repro.cli.report`,
:mod:`~repro.cli.verify`, :mod:`~repro.cli.dynamic`,
:mod:`~repro.cli.campaign` (``run``, ``cells``, ``diff``),
:mod:`~repro.cli.query`, :mod:`~repro.cli.top` and :mod:`~repro.cli.serve`;
``docs/usage.md`` ends with their ``--help`` output.  ``--trace DIR``
(default ``$REPRO_TRACE``) on the commands that run work enables
:mod:`repro.obs` and exports ``trace.jsonl``, ``trace.chrome.json``,
``series.json``, ``metrics.json`` and ``metrics.om`` into DIR.
"""

from __future__ import annotations

import argparse

from repro import obs
from repro.cli import campaign, claims, dynamic, query, report, serve, top, verify

__all__ = ["build_parser", "main"]

_COMMANDS = (claims, report, verify, dynamic, campaign, query, top, serve)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree; each parsed command carries its ``run``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate and verify the paper-reproduction experiment "
        "tables, churn one network, run sweeps, and serve live sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for module in _COMMANDS:
        module.add_parsers(sub)
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command, traced when it has a ``--trace`` directory.

    A command that fails on its input (exit 2) exports no trace.
    """
    trace_dir = getattr(args, "trace", None)
    if not trace_dir:
        return args.run(args)
    obs.enable()
    code = args.run(args)
    if code != 2:
        paths = obs.export(trace_dir)
        print(f"\ntrace written to {trace_dir}/ "
              f"({', '.join(p.name for p in paths.values())}); "
              f"open {paths['chrome'].name} in Perfetto or run "
              f"'python -m repro report {trace_dir}'")
    return code


def main(argv: "list[str] | None" = None) -> int:
    """Parse ``argv`` and run the command; the process exit code.

    A usage error returns 2 (argparse has printed it to stderr) instead
    of raising :class:`SystemExit`, and ``--help`` returns 0.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return _run(args)
