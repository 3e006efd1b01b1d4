import numpy as np
import pytest

from reference import char_order, chi_blj, embed_pair, tensor_intertwiner
from weilrep.rings import QuadElem, legendre
from weilrep.symplectic import is_symplectic, orbits
from weilrep.torus import (TorusContext, TorusSpec, multiplicity_report,
                           product_torus_multiplicities,
                           residue_operator_check)


def ctx_of(p, kind, uval=0, n=1):
    return TorusContext(TorusSpec(p, kind, uval, n))


def eta0_char(ctx):
    return ctx.character_of([ctx.eta0(t) for t in ctx.C])


def test_embedding_is_injective_symplectic_homomorphism():
    for ctx in (ctx_of(3, "unramified", 0), ctx_of(3, "unramified", 1),
                ctx_of(3, "ramified")):
        mats, mods = ctx.mats, np.array(ctx.module.moduli)[:, None]
        assert len({m.tobytes() for m in mats}) == len(ctx.C)
        assert is_symplectic(ctx.module, mats).all()
        for i, t1 in enumerate(ctx.C[:5]):
            for j, t2 in enumerate(ctx.C[:5]):
                k = ctx.index_of(ctx.ext.mul(t1, t2))
                assert (mats[i] @ mats[j] % mods == mats[k]).all()
        with pytest.raises(KeyError):
            ctx.index_of((0, 0))        # norm 0: not an element of C


def test_conductors():
    ctx = ctx_of(3, "unramified", 0, 1)
    for rec in ctx.multiplicities():
        chi = rec["char"]
        if char_order(chi) == 1:
            assert rec["conductor"] == 0
    ctxr = ctx_of(3, "ramified")
    eps = [rec for rec in ctxr.multiplicities() if rec["conductor"] == 1]
    assert len(eps) == 1 and char_order(eps[0]["char"]) == 2


def test_chi_blj_distinct_and_classification():
    ctx = ctx_of(3, "unramified", 0, 1)
    sub = ctx.depth >= 1
    assert sub.sum() == len(ctx.subgroup(1))
    p = 3
    lam, j = 2, 1
    units = [b for b in range(p ** lam) if b % p]

    def same(a, b):
        fa, fb = chi_blj(ctx, a, lam, j), chi_blj(ctx, b, lam, j)
        return bool((np.abs(fa - fb)[sub] < 1e-9).all())

    assert not same(1, 2)
    for a in units:
        for b in units:
            assert same(a, b) == ((b - a) % p ** (lam - j) == 0)
    assert chi_blj(ctx, 1, lam, j).shape == (len(ctx.C),)
    # conductor lam exactly for unit b: nontrivial on T_j
    f = chi_blj(ctx, 1, lam, j)
    assert (np.abs(f - 1)[sub] > 1e-9).any()


def test_chi_blj_range_validation():
    ctx = ctx_of(3, "unramified", 0, 1)
    with pytest.raises(ValueError):
        chi_blj(ctx, 1, 4, 1)
    with pytest.raises(ValueError):
        chi_blj(ctx, 1, 1, 1)


def test_eta0_values():
    ctx = ctx_of(3, "unramified", 1, 1)
    assert ctx.eta0(QuadElem(1, 0)) == 1
    minus = QuadElem(ctx.ext.mod_xi - 1, 0)
    assert ctx.eta0(minus) == -legendre(-1, 3) == 1
    for t in ctx.C:
        assert ctx.eta0(t) == ctx.eta0_via_hilbert90(t)


def test_eta0_rejects_ramified():
    ctx = ctx_of(3, "ramified")
    with pytest.raises(ValueError):
        ctx.eta0(QuadElem(1, 0))


def test_multiplicities_u0_p3():
    ctx = ctx_of(3, "unramified", 0, 1)
    assert len(ctx.C) == 12 and ctx.dim == 9
    table = ctx.multiplicities()
    by_cond = {}
    for rec in table:
        by_cond.setdefault(rec["conductor"], []).append(rec["mult"])
    assert by_cond[0] == [1]
    assert sorted(by_cond[1]) == [0, 0, 0]
    assert by_cond[2] == [1] * 8
    assert sum(r["mult"] for r in table) == 9
    assert max(r["deviation"] for r in table) < 1e-6


def test_multiplicities_u1_p3():
    ctx = ctx_of(3, "unramified", 1, 1)
    assert len(ctx.C) == 4 and ctx.dim == 3
    table = ctx.multiplicities()
    eta0 = eta0_char(ctx)
    for rec in table:
        chi = rec["char"]
        if char_order(chi) == 1:
            assert rec["mult"] == 1
        elif chi.label == eta0.label:
            assert char_order(chi) == 2 and rec["mult"] == 0
        else:
            assert char_order(chi) == 4 and rec["mult"] == 1


def test_multiplicities_ramified_p3():
    ctx = ctx_of(3, "ramified")
    assert len(ctx.C) == 18 and ctx.dim == 9
    table = ctx.multiplicities()
    by_cond = {}
    for rec in table:
        by_cond.setdefault(rec["conductor"], []).append(rec["mult"])
    assert by_cond[0] == [1]
    assert by_cond[1] == [0]
    assert sorted(by_cond[2]) == [0, 0, 1, 1]
    assert sorted(by_cond[4]) == [0] * 6 + [1] * 6
    assert sum(r["mult"] for r in table) == 9


def test_multiplicity_one_and_sum_all_kinds():
    for p in (3, 5):
        for kind, uval in (("unramified", 0), ("unramified", 1),
                           ("ramified", 0)):
            ctx = ctx_of(p, kind, uval, 1)
            rep = multiplicity_report(ctx)
            assert all(r["mult"] in (0, 1) for r in rep["table"])
            assert rep["sum_mult"] == ctx.dim
            assert rep["matching_twists"], (p, kind, uval)


def test_character_norm_equals_torus_orbit_count():
    for kind, uval in (("unramified", 0), ("unramified", 1), ("ramified", 0)):
        ctx = ctx_of(3, kind, uval, 1)
        n_orb = orbits(ctx.module, ctx.mats, ctx.module.exps).max() + 1
        total = sum(abs(np.trace(ctx.rep.op(g))) ** 2 for g in ctx.mats)
        cn = total / len(ctx.C)
        assert abs(cn - n_orb) < 1e-6, (kind, uval, cn, n_orb)


def test_predicates_match_computed():
    for p in (3, 5):
        for kind, uval in (("unramified", 0), ("unramified", 1),
                           ("ramified", 0)):
            ctx = ctx_of(p, kind, uval, 1)
            rep = multiplicity_report(ctx)
            assert rep["raw_match"], (p, kind, uval, rep["computed"],
                                      rep["predicted"])


def test_deep_truncation_conductor_parity():
    ctx = ctx_of(3, "unramified", 0, 3)
    table = ctx.multiplicities()
    for rec in table:
        if rec["conductor"] == 0:
            assert rec["mult"] == 1
        elif rec["conductor"] % 2 == 0:
            assert rec["mult"] == 1
        else:
            assert rec["mult"] == 0
    assert sum(r["mult"] for r in table) == ctx.dim == 81


def test_deep_truncation_odd_conductors_non_autodual():
    ctx = ctx_of(3, "unramified", 1, 3)
    table = ctx.multiplicities()
    eta0 = eta0_char(ctx)
    for rec in table:
        c = rec["conductor"]
        if c == 0:
            assert rec["mult"] == 1
        elif c == 1:
            assert rec["mult"] == (0 if rec["char"].label == eta0.label else 1)
        else:
            assert rec["mult"] == (c % 2)
    assert sum(r["mult"] for r in table) == ctx.dim == 27


def test_eigenvectors_all_kinds():
    for kind, uval in (("unramified", 0), ("unramified", 1), ("ramified", 0)):
        ctx = ctx_of(3, kind, uval, 1)
        for rec in ctx.multiplicities():
            if rec["mult"] == 1:
                vec = ctx.eigenvector(rec["char"])
                assert np.linalg.norm(vec) > 1e-8
                assert ctx.eigen_residual(rec["char"], vec) < 1e-8
            else:
                with pytest.raises(ValueError):
                    ctx.eigenvector(rec["char"])


def test_trivial_eigenvector_is_delta_zero():
    ctx = ctx_of(3, "unramified", 0, 1)
    triv = next(r["char"] for r in ctx.multiplicities()
                if r["conductor"] == 0)
    v = ctx.eigenvector(triv)
    d0 = ctx.rep.delta_vec((0, 0))
    overlap = abs(v.conj() @ d0)
    assert abs(overlap - np.linalg.norm(v) * np.linalg.norm(d0)) < 1e-9


def test_deep_odd_conductor_eigenvector():
    ctx = ctx_of(3, "unramified", 1, 3)
    recs = [r for r in ctx.multiplicities()
            if r["conductor"] == 3 and r["mult"] == 1]
    assert recs
    for rec in recs[:4]:
        vec = ctx.eigenvector(rec["char"])
        assert ctx.eigen_residual(rec["char"], vec) < 1e-8


def test_residue_operator_formulas():
    for p in (3, 5):
        ctx, results = residue_operator_check(TorusSpec(p, "unramified", 1))
        assert all(rec["ok"] for rec in results)
        assert max(rec["deviation"] for rec in results) < 1e-8
        # the flip at -1 and the trace consistency are part of the records
        assert any("trace_consistent" in rec for rec in results)


def test_residue_check_rejects_wrong_kind():
    with pytest.raises(ValueError):
        residue_operator_check(TorusSpec(3, "unramified", 0))


def test_product_torus_same_kind():
    specs = [TorusSpec(3, "unramified", 0, 1)] * 2
    ctxs, big, rep, table = product_torus_multiplicities(specs)
    cA, cB = ctxs
    tA = {r["char"].label: r["mult"] for r in cA.multiplicities()}
    tB = {r["char"].label: r["mult"] for r in cB.multiplicities()}
    assert all(m == tA[a] * tB[b] and dev < 1e-6
               for (a, b), (m, dev) in table.items())
    assert sum(m for m, _ in table.values()) == rep.dim == 81


def test_product_torus_mixed_eta0_kills():
    specs = [TorusSpec(3, "unramified", 0, 1), TorusSpec(3, "unramified", 1, 1)]
    ctxs, big, rep, table = product_torus_multiplicities(specs)
    cA, cB = ctxs
    tA = {r["char"].label: r["mult"] for r in cA.multiplicities()}
    tB = {r["char"].label: r["mult"] for r in cB.multiplicities()}
    assert all(m == tA[a] * tB[b] for (a, b), (m, _) in table.items())
    eta0 = eta0_char(cB)
    assert all(m == 0 for (a, b), (m, _) in table.items()
               if b == eta0.label)


def test_product_torus_tensor_eigenvector():
    specs = [TorusSpec(3, "unramified", 0, 1)] * 2
    ctxs, big, rep, table = product_torus_multiplicities(specs)
    cA, cB = ctxs
    trivA = next(r["char"] for r in cA.multiplicities() if r["conductor"] == 0)
    trivB = next(r["char"] for r in cB.multiplicities() if r["conductor"] == 0)
    J = tensor_intertwiner(rep, cA.rep, cB.rep)
    w = J @ np.kron(cA.eigenvector(trivA), cB.eigenvector(trivB))
    for tA in cA.C[:6]:
        for tB in cB.C[:6]:
            g = embed_pair(cA.mats[cA.index_of(tA)],
                           cB.mats[cB.index_of(tB)])
            assert np.linalg.norm(rep.op(g) @ w - w) < 1e-8


def test_visibility_depth_reported():
    assert ctx_of(3, "unramified", 0, 1).visibility_depth() == 2
    assert ctx_of(3, "unramified", 1, 1).visibility_depth() == 1
    assert ctx_of(3, "ramified", 0, 1).visibility_depth() == 4
