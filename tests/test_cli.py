import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from importlib import resources
from itertools import chain
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import weilrep.oscillator as osc
import weilrep.ring_rep as rr
import weilrep.torus as tor
from weilrep import cli, linalg, symplectic
from weilrep.cli import COMMANDS, STATUSES, Report, _parser, main

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


def test_field_reports_parabolic_and_orbit_count_residuals(tmp_path,
                                                            monkeypatch):
    """parabolic-scalar carries the worst deviation, and the orbit count is
    that of `orbits` on F_p^{2l}, with |norm - count| as the residual."""
    code, doc = run(tmp_path, "f.json", ["field", "--p", "5", "--rank", "1"])
    recs = {c["name"]: c for c in doc["checks"]}
    assert code == 0 and 0 <= recs["parabolic-scalar"]["residual"] <= 1e-8
    orbit = recs["orbit-count-identity"]
    assert orbit["measured"]["orbit_count"] == 2
    assert orbit["residual"] == pytest.approx(
        abs(orbit["measured"]["character_norm"] - 2), abs=1e-12)
    three = lambda spec, gens, box: np.arange(len(spec.points(box))) % 3
    monkeypatch.setattr(cli, "orbits", three)
    code, doc = run(tmp_path, "g.json", ["field", "--p", "5", "--rank", "1"])
    orbit = {c["name"]: c for c in doc["checks"]}["orbit-count-identity"]
    assert code == 1 and orbit["status"] == "fail"
    assert orbit["measured"]["orbit_count"] == 3
    assert orbit["residual"] == pytest.approx(1.0)


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
    assert {"summand-count", "unitarity-sampled", "homomorphism-sampled",
            "heisenberg-intertwining"} <= set(names)
    assert not {"summand-irreducibility", "orbit-count-identity"} & set(names)
    counts = next(c for c in doc["checks"] if c["name"] == "summand-count")
    assert counts["measured"]["dims"] == [1, 2, 12, 12]
    assert doc["failures"] == 0


def test_ring_closure_adds_only_its_exhaustive_checks(tmp_path):
    """Below and above --cap-group `ring` runs one path: the same summands
    and the same sampled checks, and the closure adds only the two checks
    that sum over every element."""
    argv = ["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1"]
    docs = [run(tmp_path, f"{k}.json", argv + extra)[1]
            for k, extra in enumerate([[], ["--cap-group", "100"]])]
    full, capped = ({c["name"]: c for c in doc["checks"]} for doc in docs)
    assert full["summand-count"] == capped["summand-count"]
    sampled = [[name for name, c in recs.items()
                if "draws" in c.get("measured", {})]
               for recs in (full, capped)]
    assert sampled[0] == sampled[1] == [
        "unitarity-sampled", "homomorphism-sampled",
        "heisenberg-intertwining"]
    assert full.keys() - capped.keys() == {"summand-irreducibility",
                                           "orbit-count-identity"}
    assert capped.keys() - full.keys() == {"group-closure"}


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


def test_ring_irreducibility_fails_on_merged_classes(tmp_path, monkeypatch):
    """The class weights carry the verdict: with two conjugacy classes
    merged into one, weighted by their joint size, the Gram matrix of the
    summand characters is no longer the identity and `ring` exits 1."""
    def merged(group):
        reps, sizes = symplectic.conjugacy_classes(group)
        sizes[0] += sizes[1]
        return np.delete(reps, 1), np.delete(sizes, 1)
    monkeypatch.setattr(cli, "conjugacy_classes", merged)
    code, doc = run(tmp_path, "merged.json",
                    ["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1"])
    irr = next(c for c in doc["checks"]
               if c["name"] == "summand-irreducibility")
    assert code == 1 and irr["status"] == "fail" and irr["residual"] > 1e-6


def test_torus_commands(tmp_path):
    for kind, uval in (("unramified", "0"), ("unramified", "1"),
                       ("ramified", "0")):
        code, doc = run(tmp_path, f"t_{kind}_{uval}.json",
                        ["torus", "--p", "3", "--kind", kind,
                         "--uval", uval, "--n", "1"])
        assert code == 0 and doc["failures"] == 0
        assert doc["config"]["visibility_depth"] >= 1


@pytest.mark.parametrize("argv, dim", [
    (["--uval", "0", "--n", "1", "--cap-dim", "8"], "3^2"),
    (["--uval", "1", "--n", "2", "--cap-dim", "8"], "3^2"),
    (["--kind", "ramified", "--n", "3", "--cap-dim", "80"], "3^4"),
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
    """p^(n+1) = 3^41 does not fit an int64, nor 3^401 a float, and 3^9013
    has more decimal digits than Python converts to a string; the model is
    refused by its dimension exponent before any module is built, and the
    note gives its exact dimension as a power."""
    for n in (40, 400, 9012):
        code, doc = run(tmp_path, "deep.json",
                        command + ["--p", "3", "--n", str(n)])
        assert code == 0
        [rec] = doc["checks"]
        assert (rec["anchor"], rec["status"]) == ("caps", "skipped")
        assert rec["note"] == (f"model dimension 3^{exponent(n)} exceeds "
                               f"cap 2000")


def test_wide_module_skips_at_cap_dim_before_building():
    """At r = 1600 the model has dimension 3^3200: the skip comes before
    any module is built, as its (2r)^2 form entries are Python ints."""
    tracemalloc.start()
    try:
        assert main(["ring", "--p", "3", "--r", "1600", "--l", "0", "--n", "1",
                     "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


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
], ids=["p2", "p9", "p15", "ring-l-above-r", "ring-r0", "ring-n0",
        "torus-n0", "ramified-uval1", "field-samples0", "ring-samples-neg",
        "torus-tol-neg", "torus-tol0", "torus-tol-inf", "field-tol-nan",
        "selfcheck-tol-inf", "ring-cap-dim-neg", "torus-cap-dim-neg",
        "ring-cap-group0", "ring-cap-group-neg"])
def test_rejects_invalid_input(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err and out.out == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_out_into_a_missing_directory_is_invalid_input(command, tmp_path,
                                                       capsys):
    """An --out path whose directory does not exist exits 2 with one line
    of message, before the report is computed."""
    out = tmp_path / "missing" / "r.json"
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and err.count("\n") == 1
    assert str(out.parent) in err and not out.parent.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_out_naming_a_directory_is_invalid_input(command, tmp_path, capsys,
                                                 monkeypatch):
    """An --out path that is an existing directory exits 2 with one line
    of message, and no command runs."""
    def refuse(args):
        raise AssertionError("the command ran")

    for name in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", refuse)
    assert main([command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {tmp_path} is a directory\n"


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


@pytest.mark.parametrize("argv, limit_mb", [
    (["--p", "3", "--rank", "2"], 5), (["--p", "7", "--rank", "1"], 4)])
def test_field_holds_no_operator_stack_past_its_check(argv, limit_mb):
    """With 1,000 sampled pairs, the traced peak of the whole `field` run
    stays under limit_mb.  Stacks of S(g) built whole per check and kept
    bound until the command returned peaked at 8.1 and 4.3 MB (of 2^20
    bytes)."""
    tracemalloc.start()
    try:
        assert main(["field", *argv, "--samples", "1000",
                     "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2 ** 20


def test_no_command_builds_a_group_elem(monkeypatch):
    """Commands compute on int64 stacks only: with `GroupElem` refusing to
    be built, these runs still exit 0."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a command built a GroupElem")

    monkeypatch.setattr(symplectic.GroupElem, "__init__", refuse)
    for argv in (["selfcheck"], ["field", "--p", "7", "--rank", "1"],
                 ["ring", "--p", "3", "--r", "1", "--l", "1", "--n", "1",
                  "--twist", "1"],
                 ["ring", "--p", "3", "--r", "2", "--l", "1", "--n", "1",
                  "--cap-group", "2000"],
                 ["torus", "--p", "3", "--n", "1"]):
        assert main(argv + ["--out", os.devnull]) == 0, argv


@pytest.mark.parametrize("argv", [["--p", "3", "--rank", "2"],
                                  ["--p", "7", "--rank", "1"],
                                  ["--p", "3", "--rank", "1"],
                                  ["--p", "5", "--rank", "1"]], ids=" ".join)
def test_field_builds_no_group(argv, tmp_path, monkeypatch):
    """`field` reads the group off its stabilizer chain, exhaustive or
    sampled: with `FiniteGroup` refusing to be built and the chain refusing
    to list all of its levels (its halves R and N stay allowed), every
    check still passes."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("field built a FiniteGroup")

    listed = symplectic.StabilizerChain.elements

    def halves(self, lo=0, hi=None):
        if math.prod(self.lengths[lo:hi]) == self.order():
            raise AssertionError("field listed the whole group")
        return listed(self, lo, hi)

    monkeypatch.setattr(symplectic.FiniteGroup, "__init__", refuse)
    monkeypatch.setattr(symplectic.StabilizerChain, "elements", halves)
    code, doc = run(tmp_path, "f.json", ["field", *argv])
    assert code == 0
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 8


@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_finds_one_negated_operator(p, tmp_path, monkeypatch):
    """With S(g0) negated at g0 = [[1, 1], [1, 2]], which is neither 1, a
    generator nor parabolic, S(s) S(g) = S(sg) fails at sg = g0 and every
    other check of `field` still holds: at the default samples the pairs
    (s, g), s = 1 or a generator, are all checked, and they find it."""
    g0 = np.array([[1, 1], [1, 2]])
    iter_ops = osc.OscillatorRep.iter_ops

    def negated(self, mats):
        mats, start = np.asarray(mats), 0
        for ops in iter_ops(self, mats):
            at = (mats[start:start + len(ops)] % self.p == g0).all(axis=(1, 2))
            ops[at] *= -1
            start += len(ops)
            yield ops

    monkeypatch.setattr(osc.OscillatorRep, "iter_ops", negated)
    code, doc = run(tmp_path, "f.json", ["field", "--p", str(p)])
    failed = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    assert code == 1 and failed == ["homomorphism-exhaustive"]


@pytest.mark.parametrize("argv", [
    ["--uval", "0", "--n", "1"], ["--uval", "1", "--n", "1"],
    ["--kind", "ramified", "--n", "1"], ["--uval", "0", "--n", "3"]],
    ids=" ".join)
def test_torus_builds_no_group(argv, tmp_path, monkeypatch):
    """`torus` reads nothing of the ambient group: with the stabilizer
    chain, which every group closure builds, refusing to be built, the
    p = 3 reports still pass, appearance-criteria included."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("torus built a stabilizer chain")

    monkeypatch.setattr(symplectic.StabilizerChain, "__init__", refuse)
    code, doc = run(tmp_path, "t.json", ["torus", "--p", "3", *argv])
    crit = next(c for c in doc["checks"]
                if c["anchor"] == "appearance-criteria")
    assert code == 0 and crit["status"] == "pass"
    assert "measured" not in crit


def test_torus_names_mismatched_characters(tmp_path, monkeypatch):
    """A predicted table that differs from the computed one in one
    character fails appearance-criteria, which names that character."""
    predicate = tor.TorusContext.appearance_predicate
    flipped = "chi[1,0]"

    def flip(self, chi):
        return predicate(self, chi) != (chi.label == flipped)

    monkeypatch.setattr(tor.TorusContext, "appearance_predicate", flip)
    code, doc = run(tmp_path, "t.json", ["torus", "--p", "5", "--n", "1"])
    crit = next(c for c in doc["checks"]
                if c["anchor"] == "appearance-criteria")
    assert code == 1 and crit["status"] == "fail"
    assert crit["measured"] == {"mismatched": [flipped]}


def test_torus_appearance_rule_has_one_source(tmp_path, monkeypatch):
    """Dropping one appearing character from `_weight_datum` drops it from
    the predicted table and from the weight vectors at once."""
    datum = tor.TorusContext._weight_datum
    dropped = "chi[0,1]"

    def drop(self, chi):
        return None if chi.label == dropped else datum(self, chi)

    monkeypatch.setattr(tor.TorusContext, "_weight_datum", drop)
    code, doc = run(tmp_path, "t.json", ["torus", "--p", "5", "--n", "1"])
    checks = {c["anchor"]: c for c in doc["checks"]}
    assert code == 1 and checks["mult-one"]["measured"][dropped] == 1
    assert checks["appearance-criteria"]["measured"] == {
        "mismatched": [dropped]}
    assert checks["eigenvector-residual"]["measured"] == {
        "no_weight_vector": [dropped]}


def test_points_are_the_draws_of_rng_choice():
    """A point drawn as one randrange of |W| and unravelled is the draw of
    rng.choice over the rows of `points()`."""
    spec = symplectic.SympModule.standard(3, 2, 1, 1)
    a, b = random.Random(4), random.Random(4)
    drawn = cli._points([a.randrange(spec.size()) for _ in range(200)],
                        spec.moduli)
    assert drawn.dtype == np.int64
    assert (drawn == [b.choice(spec.points()) for _ in range(200)]).all()


@pytest.mark.parametrize("n", [1, 7, 50, 64])
def test_pair_chunks_draw_the_pairs_in_order_at_any_chunk_length(
        n, monkeypatch):
    """Chunks of n pairs, at a budget of n pairs of 2 x 2 matrices,
    concatenate to the pairs (g, h) of one list drawn g before h, and
    leave rng where that list leaves it."""
    monkeypatch.setattr(linalg, "BUDGET", 4 * n)
    spec = symplectic.SympModule.standard(7, 1, 0, 0)
    chain = symplectic.StabilizerChain(
        spec, symplectic.transvection_generators(spec))
    a, b = random.Random(4), random.Random(4)
    sha = hashlib.sha256()
    chunks = list(cli._pair_chunks(a, chain, 50, 4, sha))
    assert [len(g) for g, _ in chunks] == [min(n, 50 - s)
                                          for s in range(0, 50, n)]
    pairs = [(b.randrange(chain.order()), b.randrange(chain.order()))
             for _ in range(50)]
    for stack, column in zip(zip(*chunks), zip(*pairs)):
        assert (np.concatenate(stack) == chain.element(column)).all()
    assert a.random() == b.random()
    # the chunks feed the indices in draw order, whatever their length
    assert cli._digest(sha) == cli._digest(hashlib.sha256(),
                                           np.ravel(pairs))


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


def test_selfcheck_names_failing_sub_run(tmp_path, monkeypatch):
    import weilrep.cli as cli

    def ring(args):
        """A report whose checks fail at two anchors when l = 1."""
        doc = cli.Report("ring", {}, args.seed)
        doc.check("unitarity", "unitarity", args.l != 1)
        doc.check("summand-count", "summand-count", True)
        doc.check("homomorphism", "genuine-splitting", args.l != 1)
        return doc.finish(args.out)
    monkeypatch.setattr(cli, "cmd_field", lambda args: [])
    monkeypatch.setattr(cli, "cmd_torus", lambda args: [])
    monkeypatch.setattr(cli, "cmd_ring", ring)
    code, doc = run(tmp_path, "s.json", ["selfcheck"])
    assert code == 1
    battery = next(c for c in doc["checks"] if c["name"] == "battery")
    assert battery["status"] == "fail"
    assert battery["measured"]["sub_failures"] == 2
    assert battery["measured"]["failed_runs"] == [
        {"command": "ring", "overrides": {"p": 3, "r": 1, "l": 1, "n": 1},
         "anchors": ["unitarity", "genuine-splitting"]}]


# the flags each subcommand reads
READS = {
    "field": ["--p", "--r", "--rank", "--samples", "--tol", "--seed", "--out"],
    "ring": ["--p", "--r", "--rank", "--samples", "--tol", "--seed", "--out",
             "--l", "--n", "--twist", "--cap-group", "--cap-dim"],
    "torus": ["--p", "--kind", "--uval", "--n", "--cap-dim", "--tol",
              "--seed", "--out"],
    "selfcheck": ["--seed", "--out", "--tol"],
}
FLAGS = sorted(set(chain(*READS.values())))


def _value(flag):
    return "ramified" if flag == "--kind" else "1"


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command} {flag}")
    for command in COMMANDS for flag in FLAGS if flag not in READS[command]])
def test_rejects_flag_the_command_does_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, _value(flag)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_parses_every_flag_the_command_reads(command):
    for flag in READS[command]:
        _parser().parse_args([command, flag, _value(flag)])


def test_ring_pair_count_is_monotone_in_samples(monkeypatch):
    """`ring` checks the homomorphism on max(50, samples // 100) pairs,
    three elements per pair over the chunked `blocks` calls of `cmd_ring`,
    before the 50 elements of the intertwining check."""
    sizes = []
    blocks = rr.RingWeilRep.blocks

    def spy(self, gs):
        sizes.append((sys._getframe(1).f_code.co_name, len(gs)))
        return blocks(self, gs)

    monkeypatch.setattr(rr.RingWeilRep, "blocks", spy)

    def pairs(samples):
        sizes.clear()
        assert main(["ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1",
                     "--samples", str(samples), "--out", os.devnull]) == 0
        assert sizes[-1] == ("_check_intertwining", 50)
        return sum(k for caller, k in sizes if caller == "cmd_ring") // 3

    assert [pairs(s) for s in (99, 100, 10_000, 100_000)] == [50, 50, 100,
                                                               1000]


def test_reports_do_not_depend_on_earlier_runs(tmp_path):
    """After `selfcheck` in the same process, each report is the one a
    fresh process writes."""
    runs = [["selfcheck"],
            ["ring", "--p", "3", "--r", "1", "--l", "1", "--n", "1",
             "--twist", "1"],
            ["torus", "--p", "3", "--n", "1"],
            ["field", "--p", "3", "--rank", "2"]]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for k, argv in enumerate(runs):
        argv = argv + ["--seed", "1"]
        main(argv + ["--out", str(tmp_path / f"in{k}.json")])
        subprocess.run([sys.executable, "-m", "weilrep.cli", *argv, "--out",
                        str(tmp_path / f"fresh{k}.json")], env=env, check=True)
        assert (tmp_path / f"in{k}.json").read_bytes() \
            == (tmp_path / f"fresh{k}.json").read_bytes(), argv


@pytest.mark.parametrize("argv", [
    ["ring", "--p", "3", "--r", "2", "--l", "2", "--n", "1"],
    ["ring", "--p", "3", "--r", "2", "--l", "1", "--n", "1",
     "--cap-group", "2000"],
    ["torus", "--p", "3", "--n", "1"]], ids=" ".join)
def test_one_generating_set_per_command(argv, monkeypatch):
    """The invariant box search and the closure or the generator words
    all read the one set of the model."""
    calls = []
    certified = symplectic.transvection_generators

    def counting(spec):
        calls.append(spec)
        return certified(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("weilrep") and \
                getattr(module, "transvection_generators", None) is certified:
            monkeypatch.setattr(module, "transvection_generators", counting)
    assert main(argv + ["--out", os.devnull]) == 0
    assert len(calls) == 1
