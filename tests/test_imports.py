"""No module-level import may go unused.

A stdlib `ast` scan stands in for a linter: every name a module imports
at top level must appear as a name somewhere in that module. Package
`__init__.py` files are skipped, since their imports are re-exports, and
so is `from __future__`. An import kept for its side effect carries a
`# noqa` marker, as linters expect.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import re  # noqa: F401\n"
        "from sys import argv, path\n"
        "print(path)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: argv"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
