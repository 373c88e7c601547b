"""Every library name the README gives, dotted (`cfbelo.engine.default_cuts`)
or imported in its code, and every name in `cfbelo.__all__`, exists; every
command line in its code blocks parses."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from cfbelo import cli

README = Path(__file__).parent.parent / "README.md"


def readme_names():
    """The dotted `cfbelo.…` names and the names the code imports from cfbelo,
    anywhere in the README."""
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"\bcfbelo(?:\.\w+)+", text))
    for module, imported in re.findall(r"^from (cfbelo[\w.]*) import (.+)$", text, re.M):
        names.update(f"{module}.{name.strip()}" for name in imported.split(","))
    return names


def unresolved(names):
    """The names that are neither an attribute nor a submodule of what precedes them."""
    missing = []
    for name in sorted(names):
        obj = importlib.import_module("cfbelo")
        try:
            for part in name.split(".")[1:]:
                obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(f"{obj.__name__}.{part}")
        except ImportError:
            missing.append(name)
    return missing


def test_every_library_name_in_the_readme_resolves():
    names = readme_names()
    assert {"cfbelo.snapshot_at", "cfbelo.elo.kernel"} <= names  # both spellings are read
    assert {"cfbelo.engine.default_cuts", "cfbelo.engine.selection_sunday"} <= names  # from "Cut dates"
    assert unresolved(names) == []


def test_every_exported_name_resolves():
    # `from cfbelo import *` fails on any name in __all__ that is not there.
    cfbelo = importlib.import_module("cfbelo")
    assert unresolved(f"cfbelo.{n}" for n in cfbelo.__all__) == []


def readme_commands():
    """The lines of the README's code blocks that start with `cfbelo `."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("cfbelo ")]


def test_every_readme_command_line_parses():
    commands = readme_commands()
    assert len(commands) >= 9
    for line in commands:
        prog, *argv = shlex.split(line, comments=True)  # a trailing "# ..." is a comment
        assert prog == "cfbelo"
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
