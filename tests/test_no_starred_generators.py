"""No call in the library unpacks a generator with `*`.

CPython builds the argument tuple of f(*(x for x in xs)) by resizing a
10-slot tuple to the final length.  Each such call moves one tuple from the
free list of its first size to the free list of its final size, and only a
full collection empties those lists.  A program that allocates few
GC-tracked objects runs few full collections, so the free lists of the
sizes it reaches grow pass after pass and take new arenas.  A list argument,
f(*[x for x in xs]), is built without that tuple.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stabring"


def _starred_generators(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{arg.lineno}: {ast.unparse(arg)}"
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            for arg in node.args
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_call_unpacks_a_generator(path):
    assert _starred_generators(path) == []


def test_detects_a_starred_generator(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nmath.lcm(*(d for d in ds))\nmath.lcm(*[d for d in ds])\n")
    assert _starred_generators(probe) == ["probe.py:2: *(d for d in ds)"]
