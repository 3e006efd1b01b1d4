"""No module of weilrep keeps mutable state between the runs of one
process: no module-level (or class-level) assignment of a dict, list or
set display, a comprehension of one, or a dict()/list()/set() call.
`functools.lru_cache` on pure functions of ints stays allowed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weilrep"


def _statements(body):
    """The statements of a body and of the blocks nested in it, except
    function bodies, which run per call."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _statements(getattr(node, field, []))


def _mutable(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_level_mutable_container(path):
    tree = ast.parse(path.read_text(), str(path))
    found = [f"{path.name}:{node.lineno}" for node in _statements(tree.body)
             if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
             and node.value is not None and _mutable(node.value)]
    assert not found
