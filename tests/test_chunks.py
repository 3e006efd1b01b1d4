"""Every chunked loop of the package gives the same results at any work-array
budget: with `linalg.BUDGET` cut to 64 entries each loop runs many chunks,
and its per-element results, and the reports built on them, are those of
the default budget."""

import io
import json
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from reference import build_ring_rep
from weilrep import cli, linalg, oscillator, ring_rep, symplectic
from weilrep.symplectic import (StabilizerChain, SympModule,
                                conjugacy_classes, group_closure,
                                transvection_generators)

SMALL = 64


@pytest.mark.parametrize("n, width", [(0, 5), (1, 1), (100, 7), (100, 64),
                                      (100, 65), (5, 1 << 20)])
def test_chunks_cover_the_range_in_budget_sized_slices(n, width,
                                                       monkeypatch):
    monkeypatch.setattr(linalg, "BUDGET", SMALL)
    parts = [range(n)[part] for part in linalg.chunks(n, width)]
    assert [i for part in parts for i in part] == list(range(n))
    step = max(1, SMALL // width)
    assert all(len(part) == step for part in parts[:-1])
    assert all(0 < len(part) <= step for part in parts)


def _chain(p, l):
    spec = SympModule.standard(p, l, 0, 0)
    return StabilizerChain(spec, transvection_generators(spec))


def _report(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main([*argv, "--seed", "1"]) == 0
    return out.getvalue()


def _field_3_1_checks():
    """The checks of an exhaustive `field` run but the orbit-count identity,
    whose float sum over the chunks of R rounds by chunk (the
    `character_norm` case bounds it)."""
    doc = json.loads(_report("field", "--p", "3", "--rank", "1"))
    return [rec for rec in doc["checks"]
            if rec["anchor"] != "orbit-count-identity"]


def _ops():
    chain = _chain(5, 1)
    return oscillator.OscillatorRep(1, 5).ops(chain.elements())


def _traces():
    chain = _chain(5, 1)
    return oscillator.OscillatorRep(1, 5).traces(chain.elements())


def _ring_group():
    rep = build_ring_rep(SympModule.standard(3, 1, 0, 1))
    return rep, group_closure(rep.spec, rep.gens)


def _ring_traces():
    rep, G = _ring_group()
    return ring_rep.traces(rep, G.mats)


def _summand_characters():
    rep, G = _ring_group()
    return ring_rep.summand_characters(rep, G.mats,
                                       ring_rep.decompose(rep, G.gens))


def _conjugacy_classes():
    return np.concatenate(conjugacy_classes(_ring_group()[1]))


def _closure():
    spec = SympModule.standard(3, 2, 0, 0)
    return group_closure(spec, transvection_generators(spec)).mats


def _character_norm():
    chain = _chain(3, 2)
    R, N = chain.elements(0, 2), chain.elements(2, 4)
    return oscillator.OscillatorRep(2, 3).character_norm(R, N)


# (result, tolerance: None for bit for bit, the loops, as module.function,
# that must run at least three chunks at the small budget)
CASES = {
    "ops": (_ops, None, {"oscillator._chunks"}),
    "traces": (_traces, None,
               {"oscillator._diagonals", "oscillator.traces"}),
    "ring_rep.traces": (_ring_traces, None, {"ring_rep.traces"}),
    "summand_characters": (_summand_characters, None,
                           {"ring_rep.summand_characters"}),
    "conjugacy_classes": (_conjugacy_classes, None,
                          {"symplectic.conjugacy_classes"}),
    "group_closure": (_closure, None,
                      {"symplectic._grow", "symplectic._test"}),
    "character_norm": (_character_norm, 1e-12,
                       {"oscillator.character_norm"}),
    "field 3 2": (lambda: _report("field", "--p", "3", "--rank", "2",
                                  "--samples", "1000"), None,
                  {"cli._pair_chunks", "cli.cmd_field", "oscillator._chunks",
                   "oscillator.character_norm", "symplectic._test"}),
    "field 3 1": (_field_3_1_checks, None,
                  {"cli.cmd_field", "oscillator._chunks"}),
    "ring 3 1 1 1": (lambda: _report("ring", "--p", "3", "--r", "1",
                                     "--l", "1", "--n", "1"), None,
                     {"symplectic.conjugacy_classes",
                      "ring_rep.summand_characters"}),
    "ring 3 1 0 1": (lambda: _report("ring", "--p", "3", "--r", "1",
                                     "--l", "0", "--n", "1"), None,
                     {"cli.cmd_ring", "cli._check_intertwining"}),
    "ring 3 2 1 1 capped": (lambda: _report("ring", "--p", "3", "--r", "2",
                                            "--l", "1", "--n", "1",
                                            "--cap-group", "2000"), None,
                            {"cli.cmd_ring", "cli._check_intertwining"}),
}


@pytest.mark.parametrize("case", CASES)
def test_results_do_not_depend_on_the_budget(case, monkeypatch):
    """The result at a 64-entry budget is the default budget's, bit for bit
    (to 1e-12 for a float sum), and each named loop ran >= 3 chunks."""
    run, tol, loops = CASES[case]
    want = run()
    counts = {}

    def counted(n, width):
        caller = sys._getframe(1)
        name = (caller.f_globals["__name__"].rsplit(".", 1)[-1] + "."
                + caller.f_code.co_name)
        parts = list(linalg.chunks(n, width))
        counts[name] = max(counts.get(name, 0), len(parts))
        return iter(parts)

    monkeypatch.setattr(linalg, "BUDGET", SMALL)
    for module in (cli, oscillator, ring_rep, symplectic):
        monkeypatch.setattr(module, "chunks", counted)
    got = run()
    assert all(counts.get(name, 0) >= 3 for name in loops), counts
    if tol is None:
        assert type(got) is type(want)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) \
            else got == want
    else:
        assert abs(got - want) <= tol
