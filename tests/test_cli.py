import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from weilrep import symplectic
from weilrep.cli import COMMANDS, STATUSES, Report, main

SCHEMA = json.loads(resources.files("weilrep")
                    .joinpath("report_schema.json").read_text())


def run(tmp_path, name, argv):
    """Run the CLI into a file; the report must meet the schema."""
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_field_command(tmp_path):
    code, doc = run(tmp_path, "f.json", ["field", "--p", "3", "--rank", "1"])
    assert code == 0
    assert doc["failures"] == 0
    assert all(c["status"] in ("pass", "info", "skipped")
               for c in doc["checks"])
    assert all("anchor" in c for c in doc["checks"])


def test_field_p5(tmp_path):
    code, doc = run(tmp_path, "f5.json", ["field", "--p", "5", "--r", "1"])
    assert code == 0 and doc["failures"] == 0


def test_field_caps_skip(tmp_path):
    code, doc = run(tmp_path, "f7.json", ["field", "--p", "7", "--r", "2"])
    assert code == 0
    assert doc["checks"][0]["status"] == "skipped"


def test_ring_l0(tmp_path):
    code, doc = run(tmp_path, "r0.json",
                    ["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1"])
    assert code == 0 and doc["failures"] == 0
    counts = next(c for c in doc["checks"] if c["name"] == "summand-count")
    assert counts["measured"]["count"] == 3
    assert sorted(counts["measured"]["dims"]) == [1, 4, 4]


def test_ring_l1_lifted(tmp_path):
    code, doc = run(tmp_path, "r1.json",
                    ["ring", "--p", "3", "--r", "1", "--l", "1", "--n", "1"])
    assert code == 0 and doc["failures"] == 0
    assert doc["config"]["lifted"] is True
    counts = next(c for c in doc["checks"] if c["name"] == "summand-count")
    assert counts["measured"]["count"] == 4


def test_ring_structural_when_group_too_large(tmp_path):
    code, doc = run(tmp_path, "r2.json",
                    ["ring", "--p", "3", "--r", "2", "--l", "1", "--n", "1",
                     "--cap-group", "2000"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "shell-dimensions" in names
    skipped = next(c for c in doc["checks"] if c["name"] == "group-closure")
    assert skipped["status"] == "skipped" and "2000" in skipped["note"]
    assert "unitarity-sampled" in names


def test_ring_twist_skipped_on_structural_path(tmp_path):
    code, doc = run(tmp_path, "tw_cap.json",
                    ["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1",
                     "--twist", "1", "--cap-group", "100"])
    assert code == 0 and doc["failures"] == 0
    skipped = next(c for c in doc["checks"] if c["name"] == "twist")
    assert skipped["status"] == "skipped" and skipped["anchor"] == "caps"
    assert "100" in skipped["note"]
    assert "twist_order" not in doc["config"]


def test_ring_twist_parameter(tmp_path):
    code, doc = run(tmp_path, "tw.json",
                    ["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1",
                     "--twist", "1"])
    assert code == 0 and doc["failures"] == 0
    assert doc["config"]["twist"] == 1
    assert doc["config"]["twist_order"] == 3
    counts = next(c for c in doc["checks"] if c["name"] == "summand-count")
    assert counts["measured"]["count"] == 3


def test_torus_commands(tmp_path):
    for kind, uval in (("unramified", "0"), ("unramified", "1"),
                       ("ramified", "0")):
        code, doc = run(tmp_path, f"t_{kind}_{uval}.json",
                        ["torus", "--p", "3", "--kind", kind,
                         "--uval", uval, "--n", "1"])
        assert code == 0 and doc["failures"] == 0
        assert doc["config"]["visibility_depth"] >= 1


@pytest.mark.parametrize("argv, dim", [
    (["--uval", "0", "--n", "1", "--cap-dim", "8"], 9),
    (["--uval", "1", "--n", "2", "--cap-dim", "8"], 9),
    (["--kind", "ramified", "--n", "3", "--cap-dim", "80"], 81),
], ids=["u0", "u1", "ramified"])
def test_torus_honours_cap_dim(tmp_path, argv, dim):
    code, doc = run(tmp_path, "capdim.json", ["torus", "--p", "3"] + argv)
    assert code == 0 and doc["failures"] == 0
    [rec] = doc["checks"]
    assert (rec["anchor"], rec["status"]) == ("caps", "skipped")
    assert rec["note"] == f"model dimension {dim} exceeds cap {argv[-1]}"
    assert "torus_order" not in doc["config"]


@pytest.mark.parametrize("command, exponent", [
    (["ring", "--r", "1", "--l", "0"], lambda n: n + 1),
    # the l = r module is lifted to depth 2n + 1
    (["ring", "--r", "1", "--l", "1"], lambda n: 2 * n + 1),
    (["torus"], lambda n: n + 1)], ids=["ring-l0", "ring-l1", "torus"])
def test_deep_level_beyond_int64_skips_at_cap_dim(tmp_path, command,
                                                  exponent):
    """p^(n+1) = 3^41 does not fit an int64, nor 3^401 a float; the model
    is refused by its size before any array holds the form, and the note
    gives its exact dimension."""
    for n in (40, 400):
        code, doc = run(tmp_path, "deep.json",
                        command + ["--p", "3", "--n", str(n)])
        assert code == 0
        [rec] = doc["checks"]
        assert (rec["anchor"], rec["status"]) == ("caps", "skipped")
        assert rec["note"] == (f"model dimension {3 ** exponent(n)} exceeds "
                               f"cap 2000")


def test_torus_eta0_records(tmp_path):
    code, doc = run(tmp_path, "tu1.json",
                    ["torus", "--p", "3", "--kind", "unramified",
                     "--uval", "1", "--n", "1"])
    names = [c["name"] for c in doc["checks"]]
    assert "eta0-exclusion" in names
    assert "residue-operator-formulas" in names


def test_reports_are_deterministic(tmp_path):
    _, doc1 = run(tmp_path, "a.json", ["field", "--p", "3"])
    _, doc2 = run(tmp_path, "b.json", ["field", "--p", "3"])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert doc1 == doc2


def test_seed_changes_samples_not_verdicts(tmp_path):
    _, doc1 = run(tmp_path, "s0.json", ["field", "--p", "5", "--seed", "0"])
    _, doc2 = run(tmp_path, "s7.json", ["field", "--p", "5", "--seed", "7"])
    v1 = [(c["name"], c["status"]) for c in doc1["checks"]]
    v2 = [(c["name"], c["status"]) for c in doc2["checks"]]
    assert v1 == v2
    assert doc2["seed"] == 7


@pytest.mark.parametrize("argv, message", [
    (["field", "--p", "2"], "odd prime"),
    (["field", "--p", "9"], "odd prime"),
    (["field", "--p", "15"], "odd prime"),
    (["ring", "--r", "1", "--l", "2"], "0 <= l <= r"),
    (["ring", "--r", "0"], "--r"),
    (["ring", "--n", "0"], "--n"),
    (["torus", "--n", "0"], "--n"),
    (["torus", "--kind", "ramified", "--uval", "1"], "--uval"),
    (["field", "--p", "3", "--r", "2", "--samples", "0"], "--samples"),
    (["ring", "--p", "3", "--samples", "-5"], "--samples"),
    (["torus", "--p", "3", "--tol", "-1"], "--tol"),
    (["torus", "--p", "3", "--tol", "0"], "--tol"),
    (["torus", "--p", "3", "--tol", "inf"], "--tol"),
    (["field", "--p", "3", "--tol", "nan"], "--tol"),
    (["selfcheck", "--tol", "inf"], "--tol"),
    (["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1",
      "--cap-dim", "-3000"], "--cap-dim"),
    (["torus", "--p", "3", "--cap-dim", "-3000"], "--cap-dim"),
    (["ring", "--p", "3", "--cap-group", "0"], "--cap-group"),
    (["ring", "--p", "3", "--cap-group", "-1"], "--cap-group"),
    (["torus", "--p", "3", "--cap-group", "0"], "--cap-group"),
], ids=["p2", "p9", "p15", "ring-l-above-r", "ring-r0", "ring-n0",
        "torus-n0", "ramified-uval1", "field-samples0", "ring-samples-neg",
        "torus-tol-neg", "torus-tol0", "torus-tol-inf", "field-tol-nan",
        "selfcheck-tol-inf", "ring-cap-dim-neg", "torus-cap-dim-neg",
        "ring-cap-group0", "ring-cap-group-neg", "torus-cap-group0"])
def test_rejects_invalid_input(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err and out.out == ""


def test_schema_validates_reports(tmp_path):
    """`run` validates the report; the enums of `Report` are the schema's."""
    run(tmp_path, "v.json", ["field", "--p", "3"])
    props = SCHEMA["properties"]
    assert list(COMMANDS) == props["command"]["enum"]
    assert list(STATUSES) == \
        props["checks"]["items"]["properties"]["status"]["enum"]


def test_report_refuses_what_the_schema_rejects():
    with pytest.raises(ValueError):
        Report("bogus", {}, 0)
    rep = Report("ring", {}, 0)
    for record in [(3, "a", "pass"), ("a", None, "info"), ("a", "a", "ok"),
                   ("a", "a", "skipped", None, None, 5)]:
        with pytest.raises(ValueError):
            rep.add(*record)
    assert rep.doc["checks"] == []


def test_reports_import_no_validator():
    code = ("import os, sys; from weilrep.cli import main; "
            "main(['torus', '--p', '3', '--n', '1', '--out', os.devnull]); "
            "print('jsonschema' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reports_import_no_masked_arrays():
    """numpy.ma costs 30-47 ms to import; a plain np.unique imports it."""
    code = ("import os, sys; from weilrep.cli import main\n"
            "for argv in (['field', '--p', '3', '--rank', '1'],\n"
            "             ['ring', '--p', '3', '--r', '1', '--l', '0',\n"
            "              '--n', '1'],\n"
            "             ['torus', '--p', '3', '--n', '1']):\n"
            "    main(argv + ['--out', os.devnull])\n"
            "print('numpy.ma' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_command_builds_a_group_elem(monkeypatch):
    """Commands compute on int64 stacks only: with `GroupElem` refusing to
    be built and the group and certificate caches emptied, these runs
    still exit 0."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a command built a GroupElem")

    monkeypatch.setattr(symplectic.GroupElem, "__init__", refuse)
    monkeypatch.setattr(symplectic, "_SP_CACHE", {})
    monkeypatch.setattr(symplectic, "_CERTIFICATES", {})
    for argv in (["selfcheck"], ["field", "--p", "7", "--rank", "1"],
                 ["ring", "--p", "3", "--r", "1", "--l", "1", "--n", "1",
                  "--twist", "1"],
                 ["ring", "--p", "3", "--r", "2", "--l", "1", "--n", "1",
                  "--cap-group", "2000"],
                 ["torus", "--p", "3", "--n", "1"]):
        assert main(argv + ["--out", os.devnull]) == 0, argv


def test_torus_even_level_names_missing_weight_vectors(tmp_path, capsys):
    code, doc = run(tmp_path, "even.json",
                    ["torus", "--p", "3", "--kind", "unramified",
                     "--uval", "1", "--n", "2"])
    assert code == 1
    rec = next(c for c in doc["checks"]
               if c["anchor"] == "eigenvector-residual")
    assert rec["status"] == "fail"
    missing = rec["measured"]["no_weight_vector"]
    mults = next(c for c in doc["checks"]
                 if c["anchor"] == "mult-one")["measured"]
    assert missing and all(mults[label] == 1 for label in missing)
    assert "Traceback" not in capsys.readouterr().err


def test_torus_twist_diagnostic_honours_cap(tmp_path):
    code, doc = run(tmp_path, "cap.json",
                    ["torus", "--p", "3", "--uval", "0", "--n", "1",
                     "--cap-group", "100"])
    assert code == 0 and doc["failures"] == 0
    skipped = next(c for c in doc["checks"] if c["anchor"] == "caps")
    assert skipped["status"] == "skipped" and "100" in skipped["note"]
    crit = next(c for c in doc["checks"]
                if c["anchor"] == "appearance-criteria")
    assert crit["status"] == "pass"
    assert crit["measured"]["matching_twists"] == ["trivial"]


def test_selfcheck_names_failing_sub_run(tmp_path, monkeypatch):
    import weilrep.cli as cli
    monkeypatch.setattr(cli, "cmd_field", lambda args: 0)
    monkeypatch.setattr(cli, "cmd_torus", lambda args: 0)
    monkeypatch.setattr(cli, "cmd_ring", lambda args: int(args.l == 1))
    code, doc = run(tmp_path, "s.json", ["selfcheck"])
    assert code == 1
    battery = next(c for c in doc["checks"] if c["name"] == "battery")
    assert battery["status"] == "fail"
    assert battery["measured"]["failed_runs"] == [
        {"command": "ring", "overrides": {"p": 3, "r": 1, "l": 1, "n": 1}}]
