"""The CLI has one writer and one note helper: only `main` calls `_emit`, no
command returns an exit code, and the text `note:` is spelled only in `_note`."""

import ast
from pathlib import Path

CLI = Path(__file__).parent.parent / "src" / "cfbelo" / "cli.py"


def owners(matches):
    """Names of cli.py's top-level definitions that hold a node `matches` accepts;
    a statement outside any definition counts as `<module>`."""
    found = set()
    for top in ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI)).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found.update(name for node in ast.walk(top) if matches(node))
    return found


def test_only_main_writes_a_report():
    assert owners(lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_emit") == {"main"}
    codes = owners(
        lambda n: isinstance(n, ast.Return) and isinstance(n.value, ast.Constant) and type(n.value.value) is int
    )
    assert not {name for name in codes if name.startswith("_cmd_")}


def test_only_note_spells_the_note_prefix():
    assert owners(lambda n: isinstance(n, ast.Constant) and "note:" in str(n.value)) == {"_note"}
