"""README commands are checked, not run.

Every ``repro …`` line in a fenced README block must parse with the CLI's
own parser, and every ``examples/scenarios/*.json`` the README names must
exist and load. A README that still documents a removed subcommand or
flag fails here instead of in a reader's shell.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.api.cli import build_parser
from repro.api.scenario import Scenario

ROOT = Path(__file__).resolve().parents[2]
README = (ROOT / "README.md").read_text()

#: ``repro ARGS``, optionally behind ``VAR=value`` assignments and ``python -m``
_COMMAND = re.compile(r"^\s*(?:\w+=\S+\s+)*(?:python3?\s+-m\s+)?repro\s+(.*)$")
_FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_SCENARIO = re.compile(r"examples/scenarios/[\w.-]+\.json")


def readme_commands(text: str) -> list[list[str]]:
    """The argv of every ``repro`` command line in the fenced blocks of
    ``text``; backslash continuations are joined, comments dropped."""
    commands = []
    for block in _FENCED.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            match = _COMMAND.match(line)
            if match:
                commands.append(shlex.split(match.group(1), comments=True))
    return commands


def parse_error(argv: list[str]) -> str | None:
    """argparse's complaint about ``argv``, or None when it parses."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return err.getvalue().strip() or f"exit {exc.code}"
    return None


COMMANDS = readme_commands(README)


def test_the_readme_documents_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "list", "run", "compare", "work", "queue-status", "doctor", "trace",
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_every_readme_command_parses(argv):
    assert parse_error(argv) is None


@pytest.mark.parametrize("line", [
    "repro eval --trace-dir traces --policies fcfs prior",
    "PYTHONPATH=src python -m repro run examples/scenarios/smoke.json \\\n"
    "    --trace-dir traces",
    "repro run s.json --compact-traces  # float32 traces",
])
def test_a_removed_command_or_flag_fails_the_check(line):
    (argv,) = readme_commands(f"```bash\n{line}\n```\n")
    assert parse_error(argv) is not None


@pytest.mark.parametrize("path", sorted(set(_SCENARIO.findall(README))))
def test_every_scenario_the_readme_names_exists_and_loads(path):
    assert (ROOT / path).is_file()
    Scenario.from_file(ROOT / path)
