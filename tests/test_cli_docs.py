"""Every documented ``python -m repro …`` command still parses.

Collects the commands from the fenced code blocks of README.md and
docs/*.md (``text`` blocks hold program output and are skipped) and
from the ``run:`` steps of the CI workflow, and checks that
:func:`repro.cli.build_parser` accepts each one without running it.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PREFIX = "python -m repro"
#: Shell tokens that end the command: pipes, lists, redirections.
_STOP = re.compile(r"^(\||\|\||&&?|;|\d*>>?.*|<.*)$")


def _fenced_blocks(text: str) -> "list[str]":
    """Code blocks, except ``text`` ones (program output, not commands)."""
    blocks = re.findall(r"^```([^\n]*)\n(.*?)^```", text, flags=re.M | re.S)
    return [body for info, body in blocks if info.strip() != "text"]


def _run_steps(text: str) -> "list[str]":
    """The shell text of every ``run:`` step (inline, ``|`` or ``>``)."""
    lines = text.splitlines()
    steps = []
    for i, line in enumerate(lines):
        m = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not m:
            continue
        indent, rest = len(m.group(1)), m.group(2).strip()
        if rest not in ("|", ">"):
            steps.append(rest)
            continue
        block = []
        for body in lines[i + 1 :]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append(body.strip())
        steps.append((" " if rest == ">" else "\n").join(block))
    return steps


def _commands(shell: str) -> "list[str]":
    """``python -m repro`` commands in a shell snippet, as argv tails."""
    out = []
    for line in shell.replace("\\\n", " ").splitlines():
        at = line.find(PREFIX)
        if at < 0:
            continue
        tokens = shlex.split(line[at + len(PREFIX) :], comments=True)
        argv = []
        for tok in tokens:
            if _STOP.match(tok):
                break
            argv.append(tok)
        out.append(argv)
    return out


def _documented() -> "list[tuple[str, list[str]]]":
    found = []
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    for path in sources:
        for block in _fenced_blocks(path.read_text()):
            found += [(path.name, argv) for argv in _commands(block)]
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    for step in _run_steps(ci.read_text()):
        found += [(ci.name, argv) for argv in _commands(step)]
    return found


DOCUMENTED = _documented()


def test_docs_and_ci_name_the_main_commands():
    names = {argv[0] for _, argv in DOCUMENTED if argv}
    assert {"verify", "dynamic", "campaign", "query", "top", "serve", "report"} <= names
    assert any(src == "ci.yml" and argv[0] == "dynamic" for src, argv in DOCUMENTED)


@pytest.mark.parametrize(
    "source, argv",
    DOCUMENTED,
    ids=[f"{src}: {' '.join(argv)}" for src, argv in DOCUMENTED],
)
def test_documented_command_parses(source, argv):
    build_parser().parse_args(argv)
