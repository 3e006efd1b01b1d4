import json
import random

import numpy as np
import pytest

from reference import (act, box_elements, build_ring_rep, elems, embed_pair,
                       per_element_sums, psi, shell_counts, sigma_gx,
                       tensor_intertwiner)
from weilrep import cli
from weilrep.ring_rep import (RingWeilRep, _shell_counts,
                              abelianization_character, canonical_isotropic,
                              character_norm, decompose, direct_sum,
                              direct_sum_isotropic, faithful_model,
                              shell_dimensions, summand_characters, traces)
from weilrep.symplectic import (SympModule, conjugacy_classes, orbits,
                                symplectic_group, transvection_generators)


def orbit_count(gens, spec):
    return int(orbits(spec, gens, spec.exps).max()) + 1


def test_canonical_isotropic_l0():
    spec = SympModule.standard(3, 1, 0, 1)
    iso = canonical_isotropic(spec, transvection_generators(spec))
    assert spec.box_size(iso.u_box) == 9
    assert iso.u_box == iso.uperp_box
    assert iso.l_res == 0


def test_canonical_isotropic_mixed():
    spec = SympModule.standard(3, 2, 1, 1)
    iso = canonical_isotropic(spec, transvection_generators(spec))
    assert 2 * iso.l_res == 2      # residue is a plane over F_p


def test_canonical_isotropic_field_error():
    spec = SympModule.standard(3, 1, 0, 0)
    with pytest.raises(ValueError):
        canonical_isotropic(spec, transvection_generators(spec))


def test_canonical_isotropic_refuses_a_non_standard_residue_form():
    """With the gram of 3111 doubled, the residue form on the pairing
    basis is 2J, not J: `canonical_isotropic` refuses the module rather
    than rescale the basis."""
    spec = SympModule.standard(3, 1, 1, 1)
    doubled = SympModule(3, 1, spec.moduli,
                         [[2 * x for x in row] for row in spec.gram])
    assert canonical_isotropic(spec, transvection_generators(spec)).l_res
    with pytest.raises(ValueError, match="residue form on SympModule"):
        canonical_isotropic(doubled, transvection_generators(doubled))


def test_faithful_model_lift():
    level, lifted = faithful_model(1, 1, 1)
    assert lifted and SympModule.standard(3, 1, 1, level).moduli == (27, 27)
    # the module of the dual lattice, at r - l = 0, is already faithful
    assert faithful_model(1, 0, 1) == (1, False)


def test_rep_dimension_and_unitarity():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    assert rep.dim == 9
    G = list(symplectic_group(spec).mats)
    random.seed(0)
    for g in random.sample(G, 25):
        U = rep.op(g)
        assert np.abs(U @ U.conj().T - np.eye(rep.dim)).max() < 1e-9


def test_rep_homomorphism_generators_times_all():
    """Homomorphism on gens x G propagates to all pairs by induction."""
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = symplectic_group(spec)
    ops = {}

    def op_of(g):
        if g.mat not in ops:
            ops[g.mat] = rep.op(g)
        return ops[g.mat]

    worst = 0.0
    for g0 in elems(spec, G.gens[:6]):
        A = op_of(g0)
        for h in elems(spec, G.mats):
            worst = max(worst, float(
                np.abs(A @ op_of(h) - op_of(g0 * h)).max()))
    assert worst < 1e-8


def test_rep_heisenberg_intertwining():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = elems(spec, symplectic_group(spec).mats)
    random.seed(1)
    vecs = spec.points()
    for _ in range(1000):
        g = random.choice(G)
        w = random.choice(vecs)
        t = random.randrange(rep.M)
        U = rep.op(g)
        lhs = U @ rep.heis_op(w, t).dense()[0] @ U.conj().T
        rhs = rep.heis_op(act(g, w), t).dense()[0]
        assert np.abs(lhs - rhs).max() < 1e-8


def test_heis_op_is_schrodinger():
    """The restriction to the Heisenberg group is irreducible with central
    character psi (character norm one)."""
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    for t in range(rep.M):
        assert np.allclose(rep.heis_op((0, 0), t).dense()[0],
                           psi(rep, t) * np.eye(rep.dim), atol=1e-9)
    total = 0.0
    count = 0
    for w in spec.points():
        tr = np.trace(rep.heis_op(w, 0).dense()[0])
        for t in range(rep.M):
            total += abs(psi(rep, t) * tr) ** 2
            count += 1
    assert abs(total / count - 1) < 1e-9


def test_decompose_l0():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = symplectic_group(spec)
    summands = decompose(rep, G.gens)
    assert sorted(s.dim for s in summands) == [1, 4, 4]
    assert sum(s.dim for s in summands) == rep.dim
    reps, sizes = conjugacy_classes(G)
    chars = summand_characters(rep, G.mats[reps], summands)
    gram = (chars * sizes) @ chars.conj().T / len(G)
    assert np.abs(gram - np.eye(len(summands))).max() < 1e-6


def test_decompose_lifted_l_equals_r():
    spec = SympModule.standard(3, 1, 1, 1)
    rep = build_ring_rep(spec)
    assert faithful_model(1, 1, 1)[1] and rep.dim == 27
    G = symplectic_group(rep.spec)
    summands = decompose(rep, G.gens)
    assert len(summands) == 4
    assert sorted(s.dim for s in summands) == [1, 2, 12, 12]
    reps, sizes = conjugacy_classes(G)
    cn, dev = character_norm(traces(rep, G.mats[reps]), sizes)
    assert cn == 4 and dev < 1e-6


def test_unlifted_degenerate_model_matches_residue():
    """Without the lift, the degenerate module carries the residue-level
    representation: two summands, matching its two orbits."""
    spec = SympModule.standard(3, 1, 1, 1)
    rep = RingWeilRep(spec)
    assert rep.spec is spec and rep.dim == 3
    G = symplectic_group(spec)
    reps, sizes = conjugacy_classes(G)
    cn, dev = character_norm(traces(rep, G.mats[reps]), sizes)
    assert cn == orbit_count(G.gens, spec) == 2
    summands = decompose(rep, G.gens)
    assert len(summands) == 2
    assert sorted(s.dim for s in summands) == [1, 2]


@pytest.mark.parametrize("args", [(3, 1, 0, 1), (3, 1, 1, 1)], ids=str)
def test_summand_characters_sum_to_the_trace(args):
    """The row `cmd_ring` hands to `character_norm`: the summands decompose
    the model, so their characters add up to tr S(g), here on one element
    per conjugacy class."""
    rep = build_ring_rep(SympModule.standard(*args))
    G = symplectic_group(rep.spec)
    reps, sizes = conjugacy_classes(G)
    total = summand_characters(rep, G.mats[reps],
                               decompose(rep, G.gens)).sum(axis=0)
    assert np.abs(total - traces(rep, G.mats[reps])).max() < 1e-12
    cn, dev = character_norm(total, sizes)
    assert cn == orbit_count(G.gens, rep.spec) and dev < 1e-9


@pytest.mark.parametrize("args,twist", [((3, 1, 0, 1), 0), ((3, 1, 0, 1), 1),
                                        ((3, 1, 1, 1), 0), ((5, 1, 0, 1), 0)],
                         ids=str)
def test_class_sums_equal_the_per_element_sums(args, twist, tmp_path):
    """The Gram matrix and the character norm summed over conjugacy classes,
    weighted by their sizes, equal the sums over every element to 1e-12,
    both as computed here and as `ring` reports them."""
    rep = build_ring_rep(SympModule.standard(*args))
    G = symplectic_group(rep.spec)
    if twist:
        chi, _ = abelianization_character(G)
        rep.twist = lambda g: chi(g, twist)
    summands = decompose(rep, G.gens)
    gram_ref, (cn_ref, dev_ref) = per_element_sums(rep, G, summands)
    reps, sizes = conjugacy_classes(G)
    chars = summand_characters(rep, G.mats[reps], summands)
    gram = (chars * sizes) @ chars.conj().T / len(G)
    assert np.abs(gram - gram_ref).max() < 1e-12
    cn, dev = character_norm(chars.sum(axis=0), sizes)
    assert cn == cn_ref and abs(dev - dev_ref) < 1e-12
    p, r, l, n = args
    out = tmp_path / "ring.json"
    assert cli.main(["ring", f"--p={p}", f"--r={r}", f"--l={l}", f"--n={n}",
                     f"--twist={twist}", f"--out={out}"]) == 0
    recs = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    irr_ref = float(np.abs(gram_ref - np.eye(len(summands))).max())
    assert abs(recs["summand-irreducibility"]["residual"] - irr_ref) < 1e-12
    orbit = recs["orbit-count-identity"]
    assert orbit["measured"]["character_norm"] == cn_ref
    assert abs(orbit["residual"] - dev_ref) < 1e-12


def test_character_norm_identity():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = symplectic_group(spec)
    reps, sizes = conjugacy_classes(G)
    cn, dev = character_norm(traces(rep, G.mats[reps]), sizes)
    assert cn == 3 and dev < 1e-9
    assert cn == orbit_count(G.gens, spec)
    # trivial group: the norm is the squared dimension
    assert abs(abs(rep.trace(np.eye(spec.dim, dtype=np.int64))) ** 2
               - rep.dim ** 2) < 1e-9


def test_sigma_gx():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = symplectic_group(spec)
    stab0, op0 = sigma_gx(rep, G, (0, 0))
    assert len(stab0) == len(G)
    random.seed(2)
    els = elems(spec, G.mats)
    for g in random.sample(els, 15):
        assert np.abs(op0(g) - rep.sigma_op(g)).max() < 1e-9
    # x in U-perp, nonzero: the operator is sigma twisted by a phase
    x = (3, 0)
    stab, opx = sigma_gx(rep, G, x)
    assert len(stab) == len(G)
    for g in random.sample(els, 15):
        val = opx(g)
        assert abs(abs(val[0, 0]) - 1) < 1e-9
    # depends only on x mod U
    u = (3, 3)  # element of U = 3W
    stab2, opx2 = sigma_gx(rep, G, np.add(x, u) % spec.moduli)
    for g in random.sample(els, 20):
        assert np.abs(opx(g) - opx2(g)).max() < 1e-9


def test_sigma_gx_nontrivial_sigma_block():
    """With a nonzero residue block, the stabilizer representation at a
    point of U-perp is sigma conjugated by the residue translation and
    twisted by a phase."""
    spec = SympModule.standard(3, 1, 1, 1)
    rep = build_ring_rep(spec)           # lifted: residue is a plane
    G = symplectic_group(rep.spec)
    x = box_elements(rep.spec, rep.iso.uperp_box)[5]
    assert any(x)
    stab, opx = sigma_gx(rep, G, x)
    xbar = rep.iso.residues(np.array(x))
    R = rep.rho_res(xbar)
    random.seed(3)
    for g in random.sample(stab, 10):
        conj = R @ rep.sigma_op(g) @ np.linalg.inv(R)
        ratio = opx(g) @ np.linalg.inv(conj)
        assert np.abs(ratio - ratio[0, 0] * np.eye(rep.sdim)).max() < 1e-9
        assert abs(abs(ratio[0, 0]) - 1) < 1e-9


def test_tensor_two_copies():
    sA = SympModule.standard(3, 1, 0, 1)
    sB = SympModule.standard(3, 1, 0, 1)
    big = direct_sum(sA, sB)
    repA, repB = RingWeilRep(sA), RingWeilRep(sB)
    repAB = RingWeilRep(big, direct_sum_isotropic(big, repA.iso, repB.iso))
    assert repAB.dim == repA.dim * repB.dim == 81
    J = tensor_intertwiner(repAB, repA, repB)
    # identity (x) identity
    GA = list(symplectic_group(sA).mats)
    e = np.eye(2, dtype=np.int64)
    assert np.abs(J @ np.kron(repA.op(e), repB.op(e))
                  - repAB.op(embed_pair(e, e)) @ J).max() < 1e-12
    random.seed(4)
    worst = 0.0
    for _ in range(50):
        g, h = random.choice(GA), random.choice(GA)
        lhs = J @ np.kron(repA.op(g), repB.op(h))
        rhs = repAB.op(embed_pair(g, h)) @ J
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-8
    for _ in range(20):
        g, h = random.choice(GA), random.choice(GA)
        assert abs(repAB.trace(embed_pair(g, h))
                   - repA.trace(g) * repB.trace(h)) < 1e-8


# p in {3, 5, 7}, r in {1, 2}, every l, n in {1, 2, 3}, quotient size at
# most 3^13
SHELL_GRID = [(p, r, l, n) for p in (3, 5, 7) for r in (1, 2)
              for l in range(r + 1) for n in (1, 2, 3)
              if p ** (2 * r * (n + 1) - l) <= 3 ** 13]


def test_shell_counts_match_enumeration():
    """The box differences count the shells of the enumerated quotient."""
    assert len(SHELL_GRID) == 28
    for p, r, l, n in SHELL_GRID:
        ref = shell_counts(p, r, l, n)
        assert sum(ref.values()) == p ** (2 * r * (n + 1) - l)
        counts = _shell_counts(p, r, l, n)
        assert counts == {key: ref.get(key, 0) for key in counts}, \
            (p, r, l, n)
        assert set(ref) <= set(counts) | {("E", n + 1)}


def test_shell_dimensions_acceptance_configs():
    for (p, r, l) in ((3, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 1)):
        tab = shell_dimensions(p, r, l, 1)
        assert tab["all_match"], (p, r, l)


def test_shell_vanishing_conditions():
    # odd-part shells vanish iff l = 0; mixed shells vanish iff l = r
    tab = shell_dimensions(3, 1, 0, 1)
    e0 = next(s for s in tab["shells"] if s["shell"] == "E_0")
    assert e0["dim_plus"] == 1 and e0["dim_minus"] == 0
    e01 = next(s for s in tab["shells"] if s["shell"] == "E_0,1")
    assert e01["dim_plus"] > 0

    tab = shell_dimensions(3, 1, 1, 1)
    e0 = next(s for s in tab["shells"] if s["shell"] == "E_0")
    assert e0["dim_plus"] == 2 and e0["dim_minus"] == 1
    e01 = next(s for s in tab["shells"] if s["shell"] == "E_0,1")
    assert e01["dim_plus"] == 0 and e01["dim_minus"] == 0


def test_shell_totals_3_2_1():
    tab = shell_dimensions(3, 2, 1, 1)
    t0 = tab["truncation_totals"][0]
    assert t0["total"] == 27 and t0["match"]
    e0 = next(s for s in tab["shells"] if s["shell"] == "E_0")
    e01 = next(s for s in tab["shells"] if s["shell"] == "E_0,1")
    # 27 = 1 + 2 + 24: the delta at zero, the remaining zero-shell classes,
    # and the mixed shell
    assert e0["dim_plus"] + e0["dim_minus"] == 1 + 2
    assert e01["dim_plus"] + e01["dim_minus"] == 24


def test_summand_dims_square_bound():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = symplectic_group(spec)
    summands = decompose(rep, G.gens)
    assert sum(s.dim ** 2 for s in summands) <= rep.dim ** 2
