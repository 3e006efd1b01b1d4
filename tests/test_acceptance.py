"""Acceptance suite: each test covers one verification criterion at its
stated tolerance and prints one pass/fail line (run with -s to see them)."""

import random
import time
from itertools import product

import numpy as np

from elements import sl2_elements, sp_elements
from reference import (char_order, embed_pair, hasse_davenport_holds,
                       tensor_intertwiner)
from weilrep.oscillator import (OscillatorRep, parabolic_identity_report,
                                weil_index)
from weilrep.ring_rep import (RingWeilRep, build_ring_rep, character_norm,
                              decompose, direct_sum, direct_sum_isotropic,
                              shell_dimensions, summand_characters, traces)
from weilrep.rings import legendre
from weilrep.symplectic import SympModule, orbits, symplectic_group
from weilrep.torus import (TorusContext, TorusSpec, multiplicity_report,
                           product_torus_multiplicities,
                           residue_operator_check)

RNG = random.Random(20240811)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gauss_sum_identities():
    t0 = time.time()
    worst = 0.0
    for p in (3, 5, 7):
        w1 = weil_index(p, 1)
        worst = max(worst, abs(w1 ** 2 - legendre(-1, p)))
        for a in range(1, p):
            worst = max(worst, abs(weil_index(p, a) ** -1 * w1
                                   - legendre(a, p)))
    hd = all(hasse_davenport_holds(p, tol=1e-9) for p in (3, 5))
    elapsed = time.time() - t0
    report("criterion-1 gauss-sum identities",
           worst <= 1e-9 and hd and elapsed < 1.0,
           f"residual={worst:.2e} hasse_davenport={hd} time={elapsed:.2f}s")


def test_criterion_2_field_homomorphism_and_intertwining():
    t0 = time.time()
    worst_hom = 0.0
    for p in (3, 5):
        rep = OscillatorRep(1, p)
        els = np.array(sl2_elements(p))
        ops = rep.ops(els)
        # the index of g_i g_j at [i, j], through a table of base-p keys
        radix = p ** np.arange(4)
        index = np.empty(p ** 4, int)
        index[els.reshape(-1, 4) @ radix] = np.arange(len(els))
        prods = index[(els[:, None] @ els % p).reshape(
            len(els), len(els), 4) @ radix]
        for A, at in zip(ops, prods):
            worst_hom = max(worst_hom, float(np.abs(
                A @ ops - ops[at]).max()))
    rep4 = OscillatorRep(2, 3)
    els4 = sp_elements(2, 3)
    pairs = np.array([(RNG.choice(els4), RNG.choice(els4))
                      for _ in range(10_000)])
    for start in range(0, len(pairs), 1000):
        g, h = pairs[start:start + 1000].swapaxes(0, 1)
        Sg, Sh, Sgh = np.split(rep4.ops(np.concatenate([g, h, g @ h % 3])), 3)
        worst_hom = max(worst_hom, float(np.abs(Sg @ Sh - Sgh).max()))
    worst_int = 0.0
    for l, p, els in ((1, 3, sl2_elements(3)), (1, 5, sl2_elements(5)),
                      (2, 3, els4)):
        rep = OscillatorRep(l, p)
        W = list(product(range(p), repeat=2 * l))
        draws = [(RNG.choice(els), RNG.choice(W), RNG.randrange(p))
                 for _ in range(1000)]
        ops = rep.ops(np.array([g for g, _, _ in draws]))
        for U, (g, w, t) in zip(ops, draws):
            lhs = U @ rep.rho(w, t) @ U.conj().T
            rhs = rep.rho(np.asarray(g) @ w % p, t)
            worst_int = max(worst_int, float(np.abs(lhs - rhs).max()))
    elapsed = time.time() - t0
    report("criterion-2 genuine homomorphism + intertwining",
           worst_hom < 1e-8 and worst_int < 1e-8 and elapsed < 120,
           f"hom={worst_hom:.2e} intertwine={worst_int:.2e} "
           f"time={elapsed:.1f}s")


def test_criterion_3_parabolic_identities():
    ok = True
    detail = []
    for l, p in ((1, 3), (1, 5), (2, 3)):
        rep = OscillatorRep(l, p)
        rpt = parabolic_identity_report(rep, tol=1e-8)
        ok = ok and rpt["ok"]
        detail.append(f"l={l},p={p}:J_dev={rpt['J_deviation']:.1e}")
    report("criterion-3 parabolic and flip scalars", ok, " ".join(detail))


def test_criterion_4_decomposition_counts():
    t0 = time.time()
    results = []
    for (p, r, l, n, expect) in ((3, 1, 0, 1, 3), (3, 1, 1, 1, 4)):
        spec = SympModule.standard(p, r, l, n)
        rep = build_ring_rep(spec)
        G = symplectic_group(rep.spec)
        summands = decompose(rep, G)
        chars = summand_characters(rep, G, summands)
        gram = chars @ chars.conj().T / len(G)
        dev = float(np.abs(gram - np.eye(len(summands))).max())
        dims_ok = sum(s.dim for s in summands) == rep.dim
        results.append((len(summands) == expect, dev <= 1e-6, dims_ok,
                        len(summands), dev))
    elapsed = time.time() - t0
    ok = all(c and i and d for c, i, d, _, _ in results) and elapsed < 300
    report("criterion-4 decomposition counts",
           ok,
           f"counts={[r[3] for r in results]} expected=[3, 4] "
           f"max_char_gram_dev={max(r[4] for r in results):.1e} "
           f"time={elapsed:.1f}s")


def test_criterion_5_orbit_count_identity():
    spec = SympModule.standard(3, 1, 0, 1)
    rep = build_ring_rep(spec)
    G = symplectic_group(spec)
    cn, dev = character_norm(traces(rep, G.mats))
    orb = int(orbits(spec, G.gens, spec.exps).max()) + 1
    ok = (cn == orb == 3 and dev < 1e-6)
    details = [f"Sp: norm={cn} orbits={orb}"]
    for kind, uval in (("unramified", 0), ("unramified", 1), ("ramified", 0)):
        ctx = TorusContext(TorusSpec(3, kind, uval, 1))
        n_orb = int(orbits(ctx.module, ctx.mats, ctx.module.exps).max()) + 1
        total = sum(abs(ctx.rep.trace(g)) ** 2 for g in ctx.mats)
        cn_t = total / len(ctx.C)
        ok = ok and abs(cn_t - n_orb) < 1e-6
        details.append(f"{kind}{uval}: norm={cn_t:.6f} orbits={n_orb}")
    report("criterion-5 character norm equals orbit count", ok,
           "; ".join(details))


def test_criterion_6_shell_dimension_formulas():
    ok = True
    details = []
    for (q, r, l) in ((3, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 1)):
        tab = shell_dimensions(q, r, l, 1)
        ok = ok and tab["all_match"]
        details.append(f"({q},{r},{l}):{tab['all_match']}")
    tab = shell_dimensions(3, 2, 1, 1)
    tot = tab["truncation_totals"][0]
    ok = ok and tot["total"] == 27
    report("criterion-6 shell dimensions", ok,
           " ".join(details) + f" total(3,2,1)@0={tot['total']}")


def test_criterion_7_torus_multiplicity_one():
    t0 = time.time()
    ok = True
    details = []
    for p in (3, 5):
        for kind, uval in (("unramified", 0), ("unramified", 1),
                           ("ramified", 0)):
            ctx = TorusContext(TorusSpec(p, kind, uval, 1))
            table = ctx.multiplicities()
            mults_ok = all(rec["mult"] in (0, 1) for rec in table)
            dev_ok = max(rec["deviation"] for rec in table) < 1e-6
            sum_ok = sum(rec["mult"] for rec in table) == ctx.dim
            ok = ok and mults_ok and dev_ok and sum_ok
            details.append(f"p{p}-{kind}{uval}:{mults_ok and sum_ok}")
    elapsed = time.time() - t0
    report("criterion-7 torus multiplicity one",
           ok and elapsed < 300,
           " ".join(details) + f" time={elapsed:.1f}s")


def test_criterion_8_appearance_criteria_and_eigenvectors():
    t0 = time.time()
    ok = True
    details = []
    for p in (3, 5):
        for kind, uval in (("unramified", 0), ("unramified", 1),
                           ("ramified", 0)):
            ctx = TorusContext(TorusSpec(p, kind, uval, 1))
            rep = multiplicity_report(ctx)
            crit_ok = (rep["raw_match"] if p >= 5
                       else bool(rep["matching_twists"]))
            ok = ok and crit_ok
            worst = 0.0
            for rec in rep["table"]:
                if rec["mult"] == 1:
                    vec = ctx.eigenvector(rec["char"])
                    worst = max(worst, ctx.eigen_residual(rec["char"], vec))
            ok = ok and worst < 1e-8
            details.append(f"p{p}-{kind}{uval}:match={crit_ok},"
                           f"res={worst:.1e}")
    # non-autodual p=3: exactly trivial + the two order-4 characters on the
    # four-element quotient appear; the excluded one is the closed-form
    # sign character
    ctx = TorusContext(TorusSpec(3, "unramified", 1, 1))
    table = ctx.multiplicities()
    appearing = sorted(char_order(rec["char"]) for rec in table
                       if rec["mult"] == 1)
    excluded = [rec["char"] for rec in table if rec["mult"] == 0]
    eta0_ok = (appearing == [1, 4, 4] and len(excluded) == 1
               and all(abs(excluded[0](t) - ctx.eta0(t)) < 1e-9
                       for t in ctx.C))
    ok = ok and eta0_ok
    elapsed = time.time() - t0
    report("criterion-8 appearance criteria + eigenvectors", ok,
           " ".join(details) + f" eta0_excluded={eta0_ok} "
           f"time={elapsed:.1f}s")


def test_criterion_9_residue_operator_formulas():
    ok = True
    details = []
    for p in (3, 5):
        ctx, results = residue_operator_check(
            TorusSpec(p, "unramified", 1), tol=1e-8)
        dev = max(rec["deviation"] for rec in results)
        traces_ok = all(rec.get("trace_consistent", True) for rec in results)
        ok = ok and dev < 1e-8 and traces_ok
        details.append(f"p{p}:dev={dev:.1e},trace={traces_ok}")
    report("criterion-9 residue operator formulas", ok, " ".join(details))


def test_criterion_10_tensor_factorization():
    t0 = time.time()
    sA = SympModule.standard(3, 1, 0, 1)
    sB = SympModule.standard(3, 1, 0, 1)
    big = direct_sum(sA, sB)
    repA, repB = RingWeilRep(sA), RingWeilRep(sB)
    repAB = RingWeilRep(big, direct_sum_isotropic(big, repA.iso, repB.iso))
    J = tensor_intertwiner(repAB, repA, repB)
    G = list(symplectic_group(sA).mats)
    worst = 0.0
    for _ in range(50):
        g, h = RNG.choice(G), RNG.choice(G)
        lhs = J @ np.kron(repA.op(g), repB.op(h))
        rhs = repAB.op(embed_pair(g, h)) @ J
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    specs = [TorusSpec(3, "unramified", 0, 1)] * 2
    ctxs, big2, rep2, table = product_torus_multiplicities(specs)
    cA, cB = ctxs
    tA = {r["char"].label: r["mult"] for r in cA.multiplicities()}
    tB = {r["char"].label: r["mult"] for r in cB.multiplicities()}
    prod_ok = all(m == tA[a] * tB[b] and dev < 1e-6
                  for (a, b), (m, dev) in table.items())
    elapsed = time.time() - t0
    report("criterion-10 tensor factorization",
           worst < 1e-8 and prod_ok and elapsed < 300,
           f"intertwiner_dev={worst:.2e} product_table={prod_ok} "
           f"time={elapsed:.1f}s")
