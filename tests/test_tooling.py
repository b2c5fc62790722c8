"""Source checks that stand in for a linter, which the project does not
install: no module of the package imports a name it never uses. Deletions
tend to leave such imports behind. An import whose line is marked
``# noqa: F401`` is kept on purpose and exempt. Also: README's count of
settable values matches the code."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dwgan.encoders import ToyEncoder
from dwgan.losses import LossWeights
from dwgan.model import ChannelAttention, Conv, ModelConfig, PixelAttention
from dwgan.train import Adam, TrainConfig

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


def test_readme_states_the_settable_value_count():
    # a settable value is a field of a config object or a defaulted
    # parameter of a building block; a value that one setting serves is a
    # constant instead, so a new setting has to update README's count
    configs = (ModelConfig, TrainConfig, LossWeights)
    blocks = (Conv, ChannelAttention, PixelAttention, ToyEncoder, Adam)
    n = sum(len(fields(c)) for c in configs)
    n += sum(p.default is not p.empty for b in blocks
             for p in inspect.signature(b).parameters.values())
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"hold\s+(\d+)\s+settable\s+values", readme) \
        == [str(n)]
