"""The `torus`, `ring` and `field` benchmark workloads run in-process and
pass their own checks.

`bench/workloads.py` and `bench/child.py` are read and executed into fresh
namespaces (nothing is written under `bench/`).  A CLI operation runs
through `weilrep.cli.main` with the benchmark's seed and report file; a
library operation runs through `child.LIB` and its result makes the same
JSON round trip as in the benchmark.  This pins what the benchmark reads
from the library: `ctx.C` as pairs of Python ints with `.xi` and `.eta`,
`chi(t)` on those pairs, `ctx.p`, `ctx.level`, `ctx.dim`, `multiplicities`,
`eigenvector` and `eigen_residual`.
"""

import json
import types
from pathlib import Path

import pytest

from weilrep.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    module = types.ModuleType(name)
    module.__file__ = str(BENCH / f"{name}.py")
    exec(compile((BENCH / f"{name}.py").read_text(), module.__file__, "exec"),
         vars(module))
    return module


WORKLOADS = _load("workloads").WORKLOADS
CHILD = _load("child")


def _check_operation(op, tmp_path):
    if op["kind"] == "cli":
        out = tmp_path / "report.json"
        assert main(op["argv"] + ["--seed", "1", "--out", str(out)]) == 0
        assert op["check"](json.loads(out.read_text()), op["argv"]) == []
    else:
        result = CHILD.LIB[op["fn"]](**op["params"], seed=1)
        assert op["check"](json.loads(json.dumps(result)), op["params"]) == []


@pytest.mark.parametrize("op", WORKLOADS["torus"], ids=lambda op: op["name"])
def test_torus_operation_passes_its_check(op, tmp_path):
    _check_operation(op, tmp_path)


@pytest.mark.parametrize("op", WORKLOADS["ring"], ids=lambda op: op["name"])
def test_ring_operation_passes_its_check(op, tmp_path):
    _check_operation(op, tmp_path)



@pytest.mark.parametrize("op", WORKLOADS["field"], ids=lambda op: op["name"])
def test_field_operation_passes_its_check(op, tmp_path):
    _check_operation(op, tmp_path)
