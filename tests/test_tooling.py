"""Source checks that stand in for a linter, which the project does not
install: no module of the package imports a name it never uses. Deletions
tend to leave such imports behind. An import whose line is marked
``# noqa: F401`` is kept on purpose and exempt. Also: README's count of
settable values matches the code."""

import ast
import importlib
import inspect
import re
import types
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dwgan"


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


def defaulted(fn) -> int:
    return sum(p.default is not p.empty
               for p in inspect.signature(fn).parameters.values())


def settable_values(module) -> int:
    """The defaulted parameters of ``module``'s public functions and of its
    public classes' public methods, ``__init__`` and ``__call__``, plus
    its dataclasses' defaulted fields (counted once, not again as the
    generated ``__init__``'s parameters)."""
    n = 0
    for name, obj in vars(module).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            n += defaulted(obj)
        elif inspect.isclass(obj):
            if is_dataclass(obj):
                n += sum(f.default is not MISSING
                         or f.default_factory is not MISSING
                         for f in fields(obj))
            for attr, fn in vars(obj).items():
                if attr.startswith("_") and attr not in ("__init__",
                                                         "__call__"):
                    continue
                if attr == "__init__" and is_dataclass(obj):
                    continue
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if inspect.isfunction(fn):
                    n += defaulted(fn)
    return n


def test_readme_states_the_settable_value_count():
    # a value that one setting serves is a constant instead, so a new
    # setting anywhere in the library has to update README's count
    modules = sorted(p.stem for p in SRC.glob("*.py")
                     if p.stem not in ("__init__", "cli"))
    assert len(modules) == 9
    n = sum(settable_values(importlib.import_module(f"dwgan.{m}"))
            for m in modules)
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"hold\s+(\d+)\s+settable\s+values", readme) \
        == [str(n)]


def test_settable_value_walk():
    text = ("from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    a: int\n"
            "    b: int = 1\n"
            "    c: list = field(default_factory=list)\n"
            "class Block:\n"
            "    def __init__(self, k=3): pass\n"
            "    def __call__(self, x, y=None): pass\n"
            "    def run(self, s=0): pass\n"
            "    def _private(self, t=0): pass\n"
            "def public(a, b=2): pass\n"
            "def _helper(a=1): pass\n")
    module = types.ModuleType("walked")
    exec(compile(text, "walked", "exec"), module.__dict__)
    assert settable_values(module) == 2 + 3 + 1
