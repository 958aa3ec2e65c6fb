"""No module imports a name it never uses.

An AST scan stands in for a linter: every name bound by an import in
src/genret (except the re-exporting __init__.py), tests/ and demos/ must
be referenced somewhere else in the same file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "genret").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_name():
    source = "import os, sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
