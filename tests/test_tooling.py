"""Source checks that stand in for a linter, which the project does not
install: no module of the package imports a name it never uses. Deletions
tend to leave such imports behind. An import whose line is marked
``# noqa: F401`` is kept on purpose and exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dwgan"


def unused_imports(text: str) -> list[str]:
    """The names that ``text`` imports (``__future__`` aside) and never
    reads, except those on a line marked ``# noqa: F401``."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from json import dumps, loads\n"
            "from math import pi  # noqa: F401\n"
            "print(dumps(osp.sep))\n")
    assert unused_imports(text) == ["loads", "os"]
