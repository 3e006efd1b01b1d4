"""Every function the traced benchmark wraps must exist under its name.

`bench/tracer.py` is read and executed into a fresh namespace (nothing is
written or installed), and each (module, qualname) of its WRAPPED list is
resolved the way `install` resolves it: attribute lookups down the dotted
path, then `vars(owner)[attr]` for the last name.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _wrapped():
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module.WRAPPED


@pytest.mark.parametrize("mod_name, qual", _wrapped())
def test_traced_name_resolves(mod_name, qual):
    owner = importlib.import_module(f"weilrep.{mod_name}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])
