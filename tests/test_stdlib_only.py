"""The package has no runtime dependencies: every import is relative or from
the standard library, every imported name is used, and no module imports
another's private name. Every source parses under the oldest Python that
pyproject.toml declares."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "cfbelo"


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_relative_or_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


def unused_imports(path):
    """Names one source file imports and never reads; a name in its `__all__`
    counts as read, and `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_imported_name_is_used():
    unused = {f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py")) for name in unused_imports(path)}
    assert not unused


def test_every_source_parses_under_the_declared_python_floor():
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def private_imports(path):
    """(file, module, name) for each `_private` name a source file imports from another cfbelo module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("cfbelo")):
            module = (node.module or "").removeprefix("cfbelo").lstrip(".")
            yield from ((path.name, module, alias.name) for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_a_private_name_from_another():
    # A name another module needs is public: a `_name` has one owner.
    found = [imp for path in sorted(PACKAGE.glob("*.py")) for imp in private_imports(path)]
    assert not found
