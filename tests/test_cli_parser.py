"""Guards on the CLI surface itself: flags, defaults, help and start-up.

``tests/golden/cli_parser.json`` is a snapshot of every subcommand's
actions (help text excluded). A difference means a flag, default,
type, choice list or action kind changed; regenerate the snapshot only
when that change is intended::

    PYTHONPATH=src python tests/test_cli_parser.py > tests/golden/cli_parser.json
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _EXIT_CODES, build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_parser.json"


def _subcommands(parser):
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def dump_parser(parser) -> dict:
    """Every subcommand's actions minus ``-h``: positionals in
    declaration order, then options sorted by their flag spelling
    (option order only affects how help lists them)."""
    out = {}
    for verb, sub in _subcommands(parser).items():
        actions = [
            a for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        positionals = [a for a in actions if not a.option_strings]
        options = sorted(
            (a for a in actions if a.option_strings),
            key=lambda a: a.option_strings,
        )
        out[verb] = [
            {
                "option_strings": list(a.option_strings),
                "dest": a.dest,
                "default": a.default,
                "type": getattr(a.type, "__name__", None),
                "choices": (
                    list(a.choices) if a.choices is not None else None
                ),
                "nargs": a.nargs,
                "const": a.const,
                "required": a.required,
                "action": type(a).__name__,
            }
            for a in positionals + options
        ]
    return out


def render(parser) -> str:
    return json.dumps(dump_parser(parser), indent=2) + "\n"


VERBS = list(_subcommands(build_parser()))


def test_parser_matches_golden_snapshot():
    assert render(build_parser()) == GOLDEN.read_text()


def test_every_verb_is_covered():
    assert len(VERBS) == 13


@pytest.mark.parametrize("verb", VERBS)
def test_verb_help_renders(verb, capsys):
    # Help strings go through argparse's %-formatting, so a stray '%'
    # in a shared help string only fails when help is rendered.
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert f"usage: repro {verb}" in capsys.readouterr().out


def test_exit_table_names_resolve():
    # The lazily imported exception classes are named by module path; a
    # renamed or moved class would otherwise silently escape the table.
    for kind, _code in _EXIT_CODES:
        if isinstance(kind, str):
            module, _, name = kind.rpartition(".")
            cls = getattr(importlib.import_module(module), name)
            assert issubclass(cls, Exception), kind


def test_import_loads_no_heavy_subpackage():
    code = (
        "import sys, repro.cli\n"
        "heavy = sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['repro', 'engine'], ['repro', 'multicore'], "
        "['repro', 'sim'], ['repro', 'server']))\n"
        "print(','.join(heavy))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == ""


if __name__ == "__main__":  # pragma: no cover
    sys.stdout.write(render(build_parser()))
