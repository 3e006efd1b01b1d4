"""Every committed reference report is reproduced by `cli.main`.

The corpus in `tests/reference_reports/` is written by
`write_reference_reports.py`.  Each report is run in-process and compared
leaf by leaf with its file, and so is the exit code.  The one exception is
a `residual` below 1e-9 in the file: that is rounding noise, which another
numpy may move, so it need only stay below 1e-9.
"""

import json

import numpy as np
import pytest

from weilrep import cli
from write_reference_reports import ARGVS, CORPUS_DIR, file_name, run

NOISE = 1e-9


def differences(expected, got, path="", key=None):
    """The paths at which got differs from expected."""
    if key == "residual" and isinstance(expected, float) and expected < NOISE:
        ok = isinstance(got, (int, float)) and 0 <= got < NOISE
        return [] if ok else [f"{path}: {got!r} is not below {NOISE}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(expected)}"]
        return [d for k in expected
                for d in differences(expected[k], got[k], f"{path}/{k}", k)]
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        return [d for i, (e, g) in enumerate(zip(expected, got))
                for d in differences(e, g, f"{path}/{i}", key)]
    if type(expected) is not type(got) or expected != got:
        return [f"{path}: {got!r} != {expected!r}"]
    return []


def test_corpus_holds_every_command_line():
    assert sorted(p.name for p in CORPUS_DIR.glob("*.json")) == sorted(
        file_name(argv) for argv in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=file_name)
def test_reference_report(argv, tmp_path):
    doc = json.loads((CORPUS_DIR / file_name(argv)).read_text())
    assert doc["argv"] == argv
    code, report = run(argv, tmp_path / "report.json")
    assert code == doc["exit_code"]
    assert differences(doc["report"], report) == []


def test_differences_forgives_only_residual_noise():
    report = {"checks": [{"residual": 3e-16, "measured": {"x": 1e-16}}]}
    assert differences(report, {"checks": [{"residual": 5e-10,
                                            "measured": {"x": 1e-16}}]}) == []
    assert differences(report, {"checks": [{"residual": 2e-9,
                                            "measured": {"x": 1e-16}}]})
    assert differences(report, {"checks": [{"residual": 3e-16,
                                            "measured": {"x": 2e-16}}]})
    assert differences({"residual": 0.5}, {"residual": 0.5000001})
    assert differences({"a": 1}, {"a": 1.0})


def test_draws_tell_apart_what_the_residuals_cannot(tmp_path, monkeypatch):
    """With each level drawn before its point, `ring`'s intertwining check
    runs on other Heisenberg elements and its residual moves only within
    the forgiven noise; the `draws` leaf still shows the change."""
    def swapped(rng, rep, elements):
        draws = []
        for g in elements:
            t = rng.randrange(rep.M)
            draws.append((g, rng.randrange(rep.spec.size()), t))
        gs, ws, ts = (np.array(col) for col in zip(*draws))
        return [gs, cli._points(ws, rep.spec.moduli), ts]

    monkeypatch.setattr(cli, "_covariance_draws", swapped)
    argv = ARGVS[[file_name(a) for a in ARGVS].index(
        "ring_p_3_r_1_l_0_n_1_seed_1.json")]
    doc = json.loads((CORPUS_DIR / file_name(argv)).read_text())
    code, report = run(argv, tmp_path / "report.json")
    assert code == doc["exit_code"]
    diffs = differences(doc["report"], report)
    assert diffs and all("/measured/draws:" in d for d in diffs)
