import json

import pytest

from weilrep.cli import main


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


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
], ids=["p2", "p9", "p15", "ring-l-above-r", "ring-r0", "ring-n0",
        "torus-n0", "ramified-uval1", "field-samples0", "ring-samples-neg",
        "torus-tol-neg", "torus-tol0", "torus-tol-inf", "field-tol-nan",
        "selfcheck-tol-inf"])
def test_rejects_invalid_input(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err and out.out == ""


def test_schema_validates_reports(tmp_path):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("weilrep")
                        .joinpath("report_schema.json").read_text())
    _, doc = run(tmp_path, "v.json", ["field", "--p", "3"])
    jsonschema.validate(doc, schema)


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
