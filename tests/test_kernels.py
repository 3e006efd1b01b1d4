"""The numpy kernels against the pure-Python loops they replace.

`group_closure` must return the same elements in the same order as a plain
BFS over `GroupElem` products and as the array BFS it replaced, and refuse
groups above the cap in bounded memory, `derived_subgroup` and
`abelianization_cosets` the same subgroup and cosets as the BFS normal
closure, `orbits` the same partition as a BFS over points,
`OscillatorRep.M_X` the same operator as a loop over the points (x, y_j)
of W, `OscillatorRep.ops` and `traces` that loop times the scalar of the
reference Bruhat factorization, and the block-monomial form of
`RingWeilRep` the same operators, traces and summand characters as a loop
over the cosets of U-perp for one element at a time.  `MonomialOps.apply`,
`@`, `adjoint` and `deviation` must equal the dense products, conjugate
transposes and max-abs differences, the torus weight sums and residuals
the loops over dense operators, the torus character table, conductors,
appearance predicate, matched units and product table the dict-valued
characters and loops over units they replace, and `SchrodingerModel.rho`
the row loop over coset representatives.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from itertools import product
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from elements import sl2_elements, sp_elements
from reference import (act, add, bfs_closure, build_ring_rep, elems,
                       embed_pair, form, mat_inv, mat_vec,
                       orbit_lists, per_element_norm, psi, quotient_reduce,
                       quotient_reps, reference_invariants, reference_orbits,
                       smul, sub, vectors)
from test_oscillator import sp4_cases
from weilrep.cli import main
from weilrep.heisenberg import SchrodingerModel, box_isotropic
from weilrep.linalg import chunks
from weilrep.oscillator import OscillatorRep, weil_index
from weilrep.ring_rep import (MonomialOps, RingWeilRep, _box_invariant,
                              _width, abelianization_character,
                              abelianization_cosets,
                              canonical_isotropic, decompose,
                              derived_subgroup, invariance_generators,
                              summand_characters, traces)
from weilrep.rings import unit_phase
from weilrep.symplectic import (ClosureCapExceeded, FiniteGroup, GroupElem,
                                StabilizerChain, SympModule, _lex_keys,
                                _lex_order, group_closure, inverse,
                                is_symplectic, orbits, symplectic_group,
                                transvection_generators)
from weilrep.torus import (TorusContext, TorusSpec, multiplicity_report,
                           product_torus_multiplicities)


def reference_closure(spec, gens):
    """Sorted matrices of the closure, by BFS over GroupElem products."""
    gens = elems(spec, gens)
    ident = GroupElem.identity(spec)
    seen = {ident.mat}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.mat not in seen:
                    seen.add(y.mat)
                    new.append(y)
        frontier = new
    return sorted(seen)


# the last two have BFS frontiers of 3,496 and 3,588 elements, so a level
# spans more than one chunk of the vectorized closure
CLOSURE_CASES = [(3, 1, 0, 0), (5, 1, 0, 0), (7, 1, 0, 0), (3, 1, 1, 1),
                 (3, 1, 0, 1), (3, 1, 1, 2), (5, 1, 0, 1), (3, 1, 0, 2)]


@pytest.mark.parametrize("args", CLOSURE_CASES, ids=str)
def test_closure_matches_reference_bfs(args):
    spec = SympModule.standard(*args)
    gens = transvection_generators(spec)
    G = group_closure(spec, gens)
    assert [g.mat for g in elems(spec, G.mats)] \
        == reference_closure(spec, gens)
    assert (G.find(G.mats) == np.arange(len(G))).all()
    assert np.array_equal(G.gens, gens)


def test_closure_cap_without_overflow():
    # Sp(6, F_5): a mixed-radix int64 key of 36 base-5 digits would overflow
    spec = SympModule.standard(5, 3, 0, 0)
    with pytest.raises(ClosureCapExceeded):
        group_closure(spec, transvection_generators(spec), cap=1000)


def tau04_generators():
    """tau_0 and tau_4 of the `transvection_generators` of Sp(4, F_3), the
    transvections at e_3 and e_1 + e_2: a subgroup of 24 elements, whose
    generator commutators close to 4 and whose derived subgroup has 8, so
    that the derived subgroup needs a conjugation round."""
    return transvection_generators(SP4_SPEC)[[0, 4]]


# Sp(4, F_3), 51,840 elements, and the transvection closure of the
# mixed-moduli module (3, 2, 1, 1), 52,488 elements
CHAIN_CASES = CLOSURE_CASES + [(3, 2, 0, 0), (3, 2, 1, 1)]
# two words in the transvections, which fix no base point, so that every
# level below the first is found by sifting Schreier generators
WORD_CASES = [("words", args) for args in [(3, 1, 0, 2), (3, 2, 0, 0),
                                           (3, 2, 1, 1)]]


def words(spec, gens, count, length, rng):
    """count products of length generators drawn by rng.choices, as
    `GroupElem` products (each step reduced), in an int64 stack."""
    gens = elems(spec, gens)
    return np.array([reduce(mul, rng.choices(gens, k=length))
                     for _ in range(count)], dtype=np.int64)


def chain_generators(case):
    if case == "tau0-tau4":
        return SP4_SPEC, tau04_generators()
    if case[0] == "words":
        spec = SympModule.standard(*case[1])
        return spec, words(spec, transvection_generators(spec), 2, 8,
                           random.Random(1))
    spec = SympModule.standard(*case)
    return spec, transvection_generators(spec)


SP4_SPEC = SympModule.standard(3, 2, 0, 0)


@pytest.mark.parametrize("case", CHAIN_CASES + ["tau0-tau4"] + WORD_CASES,
                         ids=str)
def test_chain_matches_array_bfs(case):
    """The stabilizer chain lists the same elements in the same order as
    the breadth-first closure it replaced, and `find` gives the index of
    each element, of unreduced copies too, and -1 for non-elements."""
    spec, gens = chain_generators(case)
    G, ref = group_closure(spec, gens), bfs_closure(spec, gens)
    assert np.array_equal(G.mats, ref) and G.keys.dtype == np.int64
    assert StabilizerChain(spec, gens).order() == len(ref)
    rng = np.random.default_rng(len(G))
    idx = rng.integers(0, len(G), 200)
    mods = np.array(spec.moduli)[:, None]
    shifted = G.mats[idx] + mods * rng.integers(-2, 3, (200,) + mods.shape)
    assert np.array_equal(G.find(shifted), idx)
    assert G.find(G.mats[idx[0]]) == idx[0]
    assert isinstance(G.find(shifted[0]), int)
    # random reduced matrices: -1 exactly where they are not elements
    others = rng.integers(0, mods, (500, spec.dim, spec.dim))
    members = {m.tobytes() for m in G.mats}
    found = G.find(others)
    assert [i >= 0 for i in found] == [m.tobytes() in members for m in others]
    assert (found < 0).any() and (G.mats[found[found >= 0]]
                                  == others[found >= 0]).all()


@pytest.mark.parametrize("moduli", [(3, 9, 3, 9), (27,) * 4, (5,) * 6],
                         ids=str)
def test_lex_order_matches_sorted_tuples(moduli):
    """One index per distinct matrix, in the order of the sorted rows,
    also when the entries fill more than one int64 word (27^16 and 5^36
    exceed 2^63): the matrices share their first rows and differ in the
    last one, which lies in the last word."""
    rng = np.random.default_rng(0)
    d = len(moduli)
    high = np.array(moduli)[:, None]
    mats = rng.integers(0, high, (4, d, d))[rng.integers(0, 4, 300)]
    mats[:, -1] = rng.integers(0, high[-1], (300, d)) % 2
    ref = sorted({tuple(map(tuple, m)) for m in mats.tolist()})
    order = _lex_order(_lex_keys(mats, moduli))
    assert [tuple(map(tuple, m)) for m in mats[order].tolist()] == ref
    # a set of these matrices as a FiniteGroup: the same order, and `find`
    # on the int64 keys or the records of two int64 words
    spec = SympModule(5 if 5 in moduli else 3, 0, moduli,
                      np.zeros((d, d), dtype=int))
    G = FiniteGroup(spec, mats + high * rng.integers(0, 3, mats.shape), mats)
    assert [tuple(map(tuple, m)) for m in G.mats.tolist()] == ref
    assert G.keys.dtype == np.int64 if moduli[0] == 3 \
        else G.keys.dtype.names == ("f0", "f1")
    idx = rng.integers(0, len(G), 50)
    assert np.array_equal(G.find(G.mats[idx] - high), idx)
    assert G.find(G.mats[idx[0]]) == idx[0]
    others = G.mats[idx].copy()
    others[:, 0, 0] = (others[:, 0, 0] + 1) % moduli[0]
    members = {m.tobytes() for m in G.mats}
    assert [i >= 0 for i in G.find(others)] == [m.tobytes() in members
                                                for m in others]


def test_chain_certifies_order_above_the_cap():
    """|Sp(4, Z/9)| = 9^10 (1 - 3^-2)(1 - 3^-4), from the chain alone."""
    spec = SympModule.standard(3, 2, 0, 1)
    assert StabilizerChain(spec, transvection_generators(spec)).order() \
        == 3_061_100_160


def test_chain_refuses_at_the_cap_in_bounded_memory():
    """Groups above the cap are refused before any element is listed, in a
    process whose address space is capped at 1 GiB: Sp(4, Z/9) at cap
    2,000,000, Sp(6, Z/9), whose first orbit has 530,712 points, at the
    default cap, and Sp(6, F_5) at cap 1000."""
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from weilrep.symplectic import (ClosureCapExceeded, SympModule,
                                group_closure, transvection_generators)
for args, cap in (((3, 2, 0, 1), 2_000_000), ((3, 3, 0, 1), None),
                  ((5, 3, 0, 0), 1000)):
    spec = SympModule.standard(*args)
    gens = transvection_generators(spec)
    try:
        group_closure(spec, gens, **({} if cap is None else {"cap": cap}))
    except ClosureCapExceeded:
        print("refused")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused"] * 3


# -- abelianization and orbits: BFS over GroupElem products and points ---------


def reference_derived_subgroup(group):
    """Normal closure of the generator commutators, by BFS over products."""
    comms, gens = {}, elems(group.spec, group.gens)
    ident = GroupElem.identity(group.spec)
    for a in gens:
        ainv = a.inverse()
        for b in gens:
            c = a * b * ainv * b.inverse()
            comms[c.mat] = c
    dgens = list(comms.values())
    seen = dict(comms)
    seen[ident.mat] = ident
    frontier = list(seen.values())
    gen_pairs = [(g, g.inverse()) for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for y in dgens:
                z = x * y
                if z.mat not in seen:
                    seen[z.mat] = z
                    new.append(z)
            for g, ginv in gen_pairs:
                z = g * x * ginv
                if z.mat not in seen:
                    seen[z.mat] = z
                    new.append(z)
        frontier = new
    return set(seen)


def reference_abelianization_cosets(group, D):
    """matrix -> coset number, numbered in order of first element."""
    labels, nreps = {}, 0
    for g in elems(group.spec, group.mats):
        if g.mat in labels:
            continue
        for d in D:
            labels[(g * GroupElem(g.spec, d, check=False)).mat] = nreps
        nreps += 1
    return labels


# SL2(Z/9), SL2(Z/27) and the scaled modules at levels 1 and 2
AB_CASES = [(3, 1, 0, 1), (3, 1, 0, 2), (3, 1, 1, 1), (3, 1, 1, 2)]


@pytest.mark.parametrize("args", AB_CASES, ids=str)
def test_abelianization_matches_reference_bfs(args):
    G = symplectic_group(SympModule.standard(*args))
    D = reference_derived_subgroup(G)
    assert {tuple(map(tuple, m)) for m in derived_subgroup(G).mats.tolist()} \
        == D
    ref = reference_abelianization_cosets(G, D)
    labels, reps = abelianization_cosets(G)
    assert [ref[g.mat] for g in elems(G.spec, G.mats)] == labels.tolist()
    assert reps == [labels.tolist().index(c) for c in range(len(reps))]


def test_derived_subgroup_adds_conjugates():
    """<tau_0, tau_4> in Sp(4, F_3): the commutators of the generators
    close to a group of order 4, and only the conjugation rounds reach the
    derived subgroup of order 8, with 3 cosets."""
    G = group_closure(SP4_SPEC, tau04_generators())
    D = reference_derived_subgroup(G)
    S, Sinv = G.gens, inverse(SP4_SPEC, G.gens)
    comms = S[:, None] @ S[None] % 3 @ Sinv[:, None] % 3 @ Sinv[None] % 3
    assert len(group_closure(SP4_SPEC, comms.reshape(-1, 4, 4))) == 4
    assert len(G) == 24 and len(D) == 8
    assert {tuple(map(tuple, m)) for m in derived_subgroup(G).mats.tolist()} \
        == D
    labels, reps = abelianization_cosets(G)
    ref = reference_abelianization_cosets(G, D)
    assert [ref[g.mat] for g in elems(G.spec, G.mats)] == labels.tolist() \
        and len(reps) == 3


@pytest.mark.parametrize("args", AB_CASES, ids=str)
def test_orbits_match_reference_bfs(args):
    spec = SympModule.standard(*args)
    G = symplectic_group(spec)
    gens = elems(spec, G.gens)
    for box in (spec.exps, canonical_isotropic(spec, G.gens).uperp_box,
                (1,) * 2):
        act_mod = lambda g, c: quotient_reduce(spec, act(g, c), box)
        assert orbit_lists(orbits(spec, gens, box), spec.points(box)) \
            == reference_orbits(gens, quotient_reps(spec, box), act_mod)


def reference_M_X(rep, g):
    """The loop over (x, y_j): phi(w) = psi(-x.y/2) phi(0, y) on g^{-1} w."""
    p, l = rep.p, rep.l
    psi = lambda c: unit_phase(c, p)
    ginv = mat_inv(g, p)
    ys = vectors((p,) * l)
    op = np.zeros((rep.dim, rep.dim), dtype=complex)
    for jrow, yj in enumerate(ys):
        for x in product(range(p), repeat=l):
            v = mat_vec(ginv, tuple(x) + yj, p)
            vx, vy = v[:l], v[l:]
            ph = psi(-rep.half * sum(a * b for a, b in zip(vx, vy)))
            dot = sum(a * b for a, b in zip(x, yj))
            op[jrow, ys.index(vy)] += psi(rep.half * dot) * ph
    return op / (p ** l)


def _check_M_X(l, p, elements):
    rep = OscillatorRep(l, p)
    for g in elements:
        assert np.abs(rep.M_X(g) - reference_M_X(rep, g)).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7])
def test_M_X_matches_reference_on_sl2(p):
    _check_M_X(1, p, sl2_elements(p))


def test_M_X_matches_reference_on_sp4():
    _check_M_X(2, 3, random.Random(4).sample(sp_elements(2, 3), 200))


def _check_field_ops(l, p, elements):
    """ops and their traces against reference_M_X times the scalar
    m(theta, j) p^{j/2} of the reference factorization."""
    rep = OscillatorRep(l, p)
    w = lambda a: weil_index(p, a)
    ref = []
    for g in elements:
        th, j = reference_invariants(g, l, p)
        ref.append(w(1) ** (1 - j) / w(th) * p ** (j / 2)
                   * reference_M_X(rep, g))
    ref, stack = np.array(ref), np.array(elements)
    S = rep.ops(stack)
    assert np.abs(S - ref).max() < 1e-12
    assert np.abs(np.trace(S, axis1=1, axis2=2)
                  - np.trace(ref, axis1=1, axis2=2)).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_ops_match_reference_on_sl2(p):
    _check_field_ops(1, p, sl2_elements(p))


def test_field_ops_match_reference_on_sp4():
    _check_field_ops(2, 3, sp4_cases())


# -- RingWeilRep: the coset loop for one element at a time --------------------


def reference_reduce(iso, g):
    """Image of g in Sp(residue), one column at a time."""
    p, dim = iso.spec.p, iso.spec.dim
    k = len(iso.res_coords)
    if k == 0:
        return tuple()
    cols = []
    for gj in iso.res_coords:
        scale = p ** iso.uperp_box[gj]
        e = tuple(int(i == gj) for i in range(dim))
        img = act(g, smul(iso.spec, scale, e))
        cols.append([(img[gi] // p ** iso.uperp_box[gi]) % p
                     for gi in iso.res_coords])
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def reference_project(iso, u):
    p = iso.spec.p
    return tuple((u[gi] // p ** iso.uperp_box[gi]) % p
                 for gi in iso.res_coords)


def reference_rho(rep, ubar):
    if rep.sigma is None:
        return np.ones((1, 1), dtype=complex)
    return rep.sigma.rho(ubar, 0)


def reference_cosets(rep):
    """The U-perp coset representatives as tuples, and their indices."""
    cosets = quotient_reps(rep.spec, rep.iso.uperp_box)
    return cosets, {c: i for i, c in enumerate(cosets)}


def reference_blocks(rep, g):
    """(row coset, column coset, phase, residue class) of S(g)."""
    spec, iso = rep.spec, rep.iso
    half = pow(2, -1, rep.M)
    ginv = g.inverse()
    cosets, cindex = reference_cosets(rep)
    out = []
    for ci, x in enumerate(cosets):
        y = act(ginv, x)
        xc = quotient_reduce(spec, y, iso.uperp_box)
        u = sub(spec, y, xc)
        ph = psi(rep, half * form(spec, xc, u))
        out.append((ci, cindex[xc], ph, reference_project(iso, u)))
    return out


def reference_op(rep, g):
    s = rep.sdim
    sig = (rep.sigma.op(reference_reduce(rep.iso, g))
           if rep.sigma is not None else np.ones((1, 1), dtype=complex))
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for ci, cj, ph, ubar in reference_blocks(rep, g):
        out[ci * s:(ci + 1) * s, cj * s:(cj + 1) * s] = \
            ph * (sig @ reference_rho(rep, ubar))
    return out


def reference_trace(rep, g):
    return np.trace(reference_op(rep, g))


def reference_heis_op(rep, w, t):
    spec, s = rep.spec, rep.sdim
    half = pow(2, -1, rep.M)
    cosets, cindex = reference_cosets(rep)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for ci, x in enumerate(cosets):
        target = add(spec, x, w)
        xc = quotient_reduce(spec, target, rep.iso.uperp_box)
        u = sub(spec, target, xc)
        ph = psi(rep, t + half * form(spec, x, w)) \
            * psi(rep, half * form(spec, xc, u))
        cj = cindex[xc]
        out[ci * s:(ci + 1) * s, cj * s:(cj + 1) * s] = \
            ph * reference_rho(rep, reference_project(rep.iso, u))
    return out


def reference_delta_vec(rep, point):
    spec = rep.spec
    out = np.zeros(rep.dim, dtype=complex)
    xc = quotient_reduce(spec, point, rep.iso.uperp_box)
    u = sub(spec, xc, point)
    ph = psi(rep, pow(2, -1, rep.M) * form(spec, point, u))
    ci = reference_cosets(rep)[1][xc]
    out[ci * rep.sdim:(ci + 1) * rep.sdim] = ph * (
        reference_rho(rep, reference_project(rep.iso, u))
        @ rep.sigma_vacuum())
    return out


def _check_ops(rep, elements, twist=lambda g: 1.0):
    """op, trace and the batched traces against the loop, to 1e-12."""
    batched = traces(rep, elements)
    for g, tr in zip(elements, batched):
        ref = twist(g) * reference_op(rep, g)
        assert np.abs(rep.op(g) - ref).max() < 1e-12
        assert abs(rep.trace(g) - np.trace(ref)) < 1e-12
        assert abs(tr - np.trace(ref)) < 1e-12


def _no_dense(self):
    raise AssertionError("a dense operator was built")


def _check_characters(rep, group, idx, twist=lambda g: 1.0):
    """summand_characters of the whole group, at the columns idx, against
    tr(P S(g)) with P = (1 + eps S(-1))/2 on the orbit's coset block built
    from reference_op; decompose and summand_characters build no dense
    operator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MonomialOps, "dense", _no_dense)
        summands = decompose(rep, group.gens)
        chars = summand_characters(rep, group.mats, summands)
    assert chars.shape == (len(summands), len(group))
    s = rep.sdim
    minus = GroupElem(rep.spec, (-np.eye(rep.spec.dim, dtype=int)).tolist())
    S_minus = twist(minus) * reference_op(rep, minus)
    gen_ops = [twist(g) * reference_op(rep, g)
               for g in elems(rep.spec, group.gens)]
    projs = []
    for sm in summands:
        sel = np.zeros(rep.dim)
        for c in sm.cosets:
            sel[c * s:(c + 1) * s] = 1.0
        P = (np.diag(sel) + sm.eps * sel[:, None] * S_minus * sel) / 2
        assert np.abs(P @ P - P).max() < 1e-12
        for S in gen_ops:
            assert np.abs(P @ S - S @ P).max() < 1e-12
        assert abs(np.trace(P) - sm.dim) < 1e-12
        projs.append(P)
    assert np.abs(sum(projs) - np.eye(rep.dim)).max() < 1e-12
    for i in idx:
        g = GroupElem(rep.spec, group.mats[i].tolist())
        op = twist(g) * reference_op(rep, g)
        for si, P in enumerate(projs):
            assert abs(chars[si, i] - np.einsum("ij,ji->", P, op)) < 1e-12


def _boundaries(n, width):
    """The first index of every chunk of `chunks` but the first."""
    return [part.start for part in chunks(n, width)][1:]


def _sample_idx(n, k, seed, *widths):
    """k seeded indices plus both sides of every chunk boundary of
    `chunks` at each width."""
    edges = {i for w in widths for b in _boundaries(n, w) for i in (b - 1, b)}
    return sorted(set(random.Random(seed).sample(range(n), k)) | edges
                  | {0, n - 1})


def test_ring_ops_match_reference_on_every_element_3101():
    rep = build_ring_rep(SympModule.standard(3, 1, 0, 1))
    G = symplectic_group(rep.spec)
    _check_ops(rep, elems(rep.spec, G.mats))
    _check_characters(rep, G, range(len(G)))


@pytest.mark.parametrize("args", [(3, 1, 1, 1), (5, 1, 0, 1)], ids=str)
def test_ring_ops_match_reference_on_large_groups(args):
    rep = build_ring_rep(SympModule.standard(*args))
    G = symplectic_group(rep.spec)
    # the chunks of `traces` and of `summand_characters`, which stacks
    # each element with its negation
    widths = _width(rep), 2 * _width(rep)
    assert len(_boundaries(len(G), widths[0])) >= 2
    idx = _sample_idx(len(G), 150, 5, *widths)
    els = elems(rep.spec, G.mats[idx])
    _check_ops(rep, els)
    _check_characters(rep, G, idx)
    whole = traces(rep, G.mats)
    for i, g in zip(idx, els):
        assert abs(whole[i] - reference_trace(rep, g)) < 1e-12
    cn, dev = per_element_norm(whole)
    assert cn == {(3, 1, 1, 1): 4, (5, 1, 0, 1): 3}[args] and dev < 1e-9


# side "Bstar" is the module of the dual lattice: the standard module at
# r - l (here the same invariant, r = 2l)
@pytest.mark.parametrize("side", ["B", "Bstar"])
def test_ring_ops_match_reference_on_generator_words_3211(side):
    rep = build_ring_rep(SympModule.standard(3, 2, 1, 1))
    assert rep.sigma is not None
    gens = transvection_generators(rep.spec)
    rng = random.Random(11)
    stack = words(rep.spec, gens, 40, 2 * rep.spec.dim, rng)
    _check_ops(rep, elems(rep.spec, stack))
    # decompose needs only the generators; the characters are taken on
    # the words
    words_group = FiniteGroup(rep.spec, stack, gens)
    _check_characters(rep, words_group, range(len(words_group)))
    for _ in range(10):
        w = rng.choice(vectors(rep.spec.moduli))
        t = rng.randrange(rep.M)
        assert np.abs(rep.heis_op(w, t).dense()[0]
                      - reference_heis_op(rep, w, t)).max() < 1e-12


@pytest.mark.parametrize("kinds", [(0, 0), (1, 0)], ids=str)
def test_ring_ops_match_reference_on_product_torus(kinds):
    specs = [TorusSpec(3, "unramified", u, 1) for u in kinds]
    (cA, cB), big, rep, _ = product_torus_multiplicities(specs)
    pairs = [(tA, tB) for tA in cA.C for tB in cB.C]
    elements = [GroupElem(big, embed_pair(cA.mats[cA.index_of(tA)],
                                          cB.mats[cB.index_of(tB)]).tolist())
                for tA, tB in random.Random(2).sample(pairs, 40)]
    _check_ops(rep, elements)


def test_twisted_rep_matches_reference():
    rep = build_ring_rep(SympModule.standard(3, 1, 0, 1))
    G = symplectic_group(rep.spec)
    ab, k = abelianization_character(G)
    assert k == 3
    chi = rep.twist = lambda g: ab(g, 1)
    _check_ops(rep, elems(rep.spec, G.mats), twist=chi)
    _check_characters(rep, G, range(len(G)), twist=chi)
    # the Heisenberg operators stay untwisted
    w, t = (1, 2), 4
    assert np.abs(rep.heis_op(w, t).dense()[0]
                  - reference_heis_op(rep, w, t)).max() < 1e-12


@pytest.mark.parametrize("args, dims", [((3, 2, 0, 1), [1, 40, 40]),
                                        ((5, 1, 1, 1), [2, 3, 60, 60]),
                                        ((3, 1, 1, 2),
                                         [1, 2, 12, 12, 108, 108])], ids=str)
def test_decompose_from_generators_alone(args, dims, monkeypatch):
    """One summand per orbit of the generators on W, with no closure and no
    dense operator."""
    rep = build_ring_rep(SympModule.standard(*args))
    gens = transvection_generators(rep.spec)
    monkeypatch.setattr(MonomialOps, "dense", _no_dense)
    summands = decompose(rep, gens)
    assert sorted(sm.dim for sm in summands) == dims
    assert len(summands) == orbits(rep.spec, gens, rep.spec.exps).max() + 1


@pytest.mark.parametrize("args", [(3, 1, 0, 1), (3, 1, 1, 1), (3, 2, 1, 1)],
                         ids=str)
def test_heis_op_and_delta_vec_match_reference(args):
    rep = build_ring_rep(SympModule.standard(*args))
    rng = random.Random(6)
    vecs = vectors(rep.spec.moduli)
    for w in rng.sample(vecs, 30):
        t = rng.randrange(rep.M)
        assert np.abs(rep.heis_op(w, t).dense()[0]
                      - reference_heis_op(rep, w, t)).max() < 1e-12
        assert np.abs(rep.delta_vec(w)
                      - reference_delta_vec(rep, w)).max() < 1e-12


# -- MonomialOps.apply against the dense operators -----------------------------


def _check_apply(ops, seed=0):
    """apply(V) == dense() @ V for a vector and a three-column matrix."""
    rng = np.random.default_rng(seed)
    dense = ops.dense()
    d = dense.shape[-1]
    for shape in ((d,), (d, 3)):
        V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = ops.apply(V)
        assert out.shape == (len(dense),) + shape
        assert np.abs(out - dense @ V).max() < 1e-12


def test_apply_matches_dense_on_ring_3101_and_twist():
    rep = build_ring_rep(SympModule.standard(3, 1, 0, 1))
    G = symplectic_group(rep.spec)
    plain = rep.blocks(G.mats)
    _check_apply(plain)
    ab, _ = abelianization_character(G)
    chi = rep.twist = lambda g: ab(g, 1)
    twisted = rep.blocks(G.mats)
    _check_apply(twisted, seed=1)
    assert np.abs(twisted.dense()
                  - chi(G.mats)[:, None, None] * plain.dense()).max() < 1e-12


class _CountingIndex(np.ndarray):
    """An array that counts the times it is indexed."""
    count = 0

    def __getitem__(self, key):
        _CountingIndex.count += 1
        return np.asarray(self)[key]


def test_blocks_gather_the_residue_table_once_per_call():
    rep = build_ring_rep(SympModule.standard(3, 1, 1, 1))
    assert rep.sdim > 1
    G = symplectic_group(rep.spec)
    dense = rep.blocks(G.mats[:40]).dense()
    rep._rho_table = rep._rho_table.view(_CountingIndex)
    _CountingIndex.count = 0
    ops = rep.blocks(G.mats[:40])
    assert _CountingIndex.count == 1
    assert np.abs(ops.dense() - dense).max() == 0


def test_apply_matches_dense_across_a_chunk_boundary_3111():
    rep = build_ring_rep(SympModule.standard(3, 1, 1, 1))
    G = symplectic_group(rep.spec)
    b = _boundaries(len(G), _width(rep))[0]
    _check_apply(rep.blocks(G.mats[b - 20:b + 20]))


@pytest.mark.parametrize("side", ["B", "Bstar"])
def test_apply_matches_dense_on_generator_words_3211(side):
    rep = build_ring_rep(SympModule.standard(3, 2, 1, 1))
    assert rep.sdim > 1
    gens = transvection_generators(rep.spec)
    _check_apply(rep.blocks(words(rep.spec, gens, 20, 2 * rep.spec.dim,
                                  random.Random(12))))


TORUS_CASES = [(p, kind, u, 1) for p in (3, 5)
               for kind, u in (("unramified", 0), ("unramified", 1),
                               ("ramified", 0))]


@pytest.mark.parametrize("args", TORUS_CASES, ids=str)
def test_apply_matches_dense_on_torus_stacks(args):
    ctx = TorusContext(TorusSpec(*args))
    assert len(ctx.ops.cj) == len(ctx.C)
    _check_apply(ctx.ops)


# -- MonomialOps products, adjoints and deviations against dense ones ----------


def _check_algebra(A, B):
    """A @ B, the adjoints of A and A.deviation(B) against the products,
    conjugate transposes and max-abs differences of the dense stacks."""
    a, b = A.dense(), B.dense()
    assert np.abs((A @ B).dense() - a @ b).max() < 1e-12
    assert np.array_equal(A.adjoint().dense(), a.conj().transpose(0, 2, 1))
    assert A.deviation(B) == np.abs(a - b).max() > 0
    assert A.deviation(A) == 0


def _heis_stack(rep, count, rng):
    """count Heisenberg operators at points and levels drawn by rng."""
    ws = np.array([rng.choice(vectors(rep.spec.moduli))
                   for _ in range(count)], dtype=np.int64)
    return rep.heis_op(ws, np.array([rng.randrange(rep.M)
                                     for _ in range(count)]))


def test_algebra_matches_dense_on_generator_words_3211():
    rep = build_ring_rep(SympModule.standard(3, 2, 1, 1))
    assert rep.sdim > 1
    rng = random.Random(13)
    ops = rep.blocks(words(rep.spec, transvection_generators(rep.spec), 20,
                           2 * rep.spec.dim, rng))
    H = _heis_stack(rep, 10, rng)
    _check_algebra(ops[:10], ops[10:])
    _check_algebra(H, ops[:10])
    _check_algebra(ops[10:], H)
    _check_algebra(H, H[::-1])


@pytest.mark.parametrize("args", TORUS_CASES, ids=str)
def test_algebra_matches_dense_on_torus_stacks(args):
    ctx = TorusContext(TorusSpec(*args))
    _check_algebra(ctx.ops, ctx.ops[::-1])
    H = _heis_stack(ctx.rep, len(ctx.C), random.Random(14))
    _check_algebra(ctx.ops, H)
    _check_algebra(H, ctx.ops)


def test_deviation_of_swapped_columns_is_the_largest_block_entry():
    rep = build_ring_rep(SympModule.standard(3, 2, 1, 1))
    ops = rep.blocks(words(rep.spec, transvection_generators(rep.spec), 5,
                           2 * rep.spec.dim, random.Random(15)))
    cj = ops.cj.copy()
    cj[:, [2, 5]] = cj[:, [5, 2]]
    swapped = MonomialOps(cj, ops.blocks)
    largest = np.abs(ops.blocks[:, [2, 5]]).max()
    assert ops.deviation(swapped) == largest > 0
    assert np.abs(ops.dense() - swapped.dense()).max() == largest


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--r", "1", "--l", "1", "--n", "1"],
    ["--p", "3", "--r", "1", "--l", "0", "--n", "1", "--twist", "1"],
    ["--p", "3", "--r", "2", "--l", "1", "--n", "1", "--cap-group", "2000"],
], ids=" ".join)
def test_ring_builds_no_dense_operator(argv, monkeypatch):
    monkeypatch.setattr(MonomialOps, "dense", _no_dense)
    assert main(["ring", *argv, "--out", os.devnull]) == 0


def test_ring_homomorphism_check_sees_a_wrong_phase(tmp_path, monkeypatch):
    """A constant phase e^{0.1 i} on every S(g) leaves the characters'
    absolute values, unitarity and the Heisenberg covariance intact, and
    breaks only S(g) S(h) = S(gh), with the group closure (3101) and
    above --cap-group (3211)."""
    blocks = RingWeilRep.blocks

    def rotated(self, gs):
        ops = blocks(self, gs)
        return replace(ops, blocks=np.exp(0.1j) * ops.blocks)

    monkeypatch.setattr(RingWeilRep, "blocks", rotated)
    out = tmp_path / "ring.json"
    for argv in (["--p", "3", "--r", "1", "--l", "0", "--n", "1"],
                 ["--p", "3", "--r", "2", "--l", "1", "--n", "1",
                  "--cap-group", "2000"]):
        assert main(["ring", *argv, "--out", str(out)]) == 1
        status = {c["name"]: c
                  for c in json.loads(out.read_text())["checks"]}
        hom = status.pop("homomorphism-sampled")
        assert hom["status"] == "fail"
        assert abs(hom["residual"] - abs(np.exp(0.1j) - 1)) < 1e-9
        assert {c["status"] for c in status.values()} <= {"pass", "skipped"}


# -- a tuple arithmetic of the torus extension, apart from QuadExt's arrays ---


def ref_mul(ctx, a, b):
    ext = ctx.ext
    nu2 = ext.d if ext.kind == "unramified" else ext.p
    return ((a[0] * b[0] + nu2 * a[1] * b[1]) % ext.mod_xi,
            (a[0] * b[1] + a[1] * b[0]) % ext.mod_eta)


def ref_pow(ctx, a, k):
    out = (1, 0)
    for _ in range(k):
        out = ref_mul(ctx, out, a)
    return out


def ref_order(ctx, a):
    k, cur = 1, tuple(a)
    while cur != (1, 0):
        cur, k = ref_mul(ctx, cur, a), k + 1
    return k


def ref_norm(ctx, a):
    return ref_mul(ctx, a, (a[0], -a[1]))[0]


def ref_units(ctx):
    """The units of the truncated ring, in (xi, eta) order."""
    ext = ctx.ext
    return [(x, y) for x in range(ext.mod_xi) for y in range(ext.mod_eta)
            if ref_norm(ctx, (x, y)) % ctx.p]


def ref_subgroup(ctx, j):
    """T_j, the t in C with t - 1 in pi^j: xi = 1 and eta = 0 modulo p^j
    (unramified), or modulo p^ceil(j/2) and p^floor(j/2) (ramified)."""
    a, b = (j, j) if ctx.ext.kind == "unramified" else ((j + 1) // 2, j // 2)
    return [t for t in ctx.C
            if (t.xi - 1) % ctx.p ** a == 0 and t.eta % ctx.p ** b == 0]


# -- torus weight sums and residuals: the loops over dense operators ----------


def reference_weight_sum(ctx, chi, sub, point, sigma_vec=None):
    """Over the first element g of each coset of sub in the order of C."""
    seed = ctx.rep.delta_vec(point, sigma_vec=sigma_vec)
    out = np.zeros(ctx.rep.dim, dtype=complex)
    sub, covered = [tuple(s) for s in np.asarray(sub).tolist()], set()
    for g in ctx.C:
        if g in covered:
            continue
        covered.update(ref_mul(ctx, g, s) for s in sub)
        g_inv = ref_pow(ctx, g, ref_order(ctx, g) - 1)
        out += chi(g_inv) * (ctx.rep.op(ctx.mats[ctx.index_of(g)]) @ seed)
    return out


def reference_eigen_residual(ctx, chi, vec):
    nrm = np.linalg.norm(vec)
    worst = 0.0
    for t in ctx.C:
        dev = np.linalg.norm(ctx.rep.op(ctx.mats[ctx.index_of(t)]) @ vec
                             - chi(t) * vec)
        worst = max(worst, dev / nrm)
    return worst


@pytest.mark.parametrize("args", TORUS_CASES + [(3, "unramified", 1, 3)],
                         ids=str)
def test_torus_weight_sums_and_residuals_match_reference(args):
    ctx = TorusContext(TorusSpec(*args))
    calls = []
    weight_sum = ctx._weight_sum

    def recorded(chi, sub, point, sigma_vec=None):
        out = weight_sum(chi, sub, point, sigma_vec=sigma_vec)
        calls.append((chi, sub, point, sigma_vec, out))
        return out

    ctx._weight_sum = recorded
    rng = np.random.default_rng(3)
    for rec in ctx.multiplicities():
        chi = rec["char"]
        if rec["mult"] == 1:
            vec = ctx.eigenvector(chi)
            assert abs(ctx.eigen_residual(chi, vec)
                       - reference_eigen_residual(ctx, chi, vec)) < 1e-12
        # a vector that is no eigenvector has a residual of order one
        vec = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
        ref = reference_eigen_residual(ctx, chi, vec)
        assert ref > 0.1
        assert abs(ctx.eigen_residual(chi, vec) - ref) < 1e-12
    assert calls
    for chi, sub, point, sigma_vec, out in calls:
        assert np.abs(out - reference_weight_sum(ctx, chi, sub, point,
                                                 sigma_vec)).max() < 1e-12


# -- torus character theory: dict-valued characters and loops over units -----


def reference_characters(ctx):
    """(label, {t: chi(t)}) for every character of C = <g1> x <g2>, with g1
    of prime-to-p order and g2 of p-power order, a outer and b inner."""
    C, p = ctx.C, ctx.p

    def order(t):
        return ref_order(ctx, t)

    def pw(t, k):
        return ref_pow(ctx, t, k)

    p_part = 1
    while len(C) % (p_part * p) == 0:
        p_part *= p
    A = len(C) // p_part
    g1 = pw(max(C, key=lambda t: order(pw(t, p_part))), p_part)
    g2 = pw(max(C, key=lambda t: order(pw(t, A))), A)
    o1, o2 = order(g1), order(g2)
    coords = {ref_mul(ctx, pw(g1, i), pw(g2, j)): (i, j)
              for i in range(o1) for j in range(o2)}
    assert len(coords) == len(C)
    return [(f"chi[{a},{b}]",
             {t: unit_phase(a * i, o1) * unit_phase(b * j, o2)
              for t, (i, j) in coords.items()})
            for a in range(o1) for b in range(o2)]


def reference_conductor(ctx, chi):
    """Smallest lam with chi trivial on the congruence subgroup T_lam."""
    for lam in range(ctx.level + 1):
        if all(abs(chi[t] - 1) < 1e-9 for t in ref_subgroup(ctx, lam)):
            return lam
    raise ValueError("conductor not resolvable")


def reference_chi_blj(ctx, b, lam, j):
    mod = ctx.p ** lam
    half = pow(2, -1, mod)
    if ctx.tspec.kind == "unramified":
        assert j < lam <= 3 * j
        coeff = (-half * b * ctx.d) % mod
    else:
        assert j < lam <= 3 * j + 1
        coeff = (((-1) ** lam) * half * b) % mod
    return lambda t: unit_phase(coeff * t.eta, mod)


def reference_match_b(ctx, chi, lam, j, restrict_j, unit_xi=False):
    """The first unit, in (xi, eta) order, whose chi_{N(a), lam, j} is chi
    on T_restrict_j."""
    sub = ref_subgroup(ctx, min(restrict_j, ctx.level))
    for a in ref_units(ctx):
        if unit_xi and a[0] % ctx.p == 0:
            continue
        f = reference_chi_blj(ctx, ref_norm(ctx, a) % ctx.p ** lam, lam, j)
        if all(abs(chi[t] - f(t)) < 1e-9 for t in sub):
            return a
    return None


def match_args(ctx, cond):
    """The arguments `TorusContext._weight_datum` passes to `_match_b` for a
    character of conductor cond, or None when it passes none."""
    if ctx.tspec.kind == "ramified":
        j = cond // 2
        return ((j, j // 2, j), {}) if cond and cond % 2 == 0 else None
    if ctx.tspec.u_val == 0:
        j = cond // 2
        return ((2 * j, j, j), {}) if cond and cond % 2 == 0 else None
    j = (cond - 1) // 2
    return (((cond, j + 1, j + 1), {"unit_xi": True})
            if cond >= 3 and cond % 2 else None)


def reference_predicate(ctx, chi, cond):
    if cond == 0:
        return True
    if ctx.tspec.kind == "unramified" and ctx.tspec.u_val == 0:
        return cond % 2 == 0
    if ctx.tspec.kind == "ramified":
        if cond % 2:
            return False
        j = cond // 2
        sub = ref_subgroup(ctx, j)
        for b in sorted({ref_norm(ctx, a) for a in ref_units(ctx)}):
            f = reference_chi_blj(ctx, b % ctx.p ** j, j, j // 2)
            if all(abs(chi[t] - f(t)) < 1e-9 for t in sub):
                return True
        return False
    if cond == 1:
        return any(abs(chi[t] - ctx.eta0(t)) > 1e-9 for t in ctx.C)
    if cond % 2 == 0:
        return False
    j = (cond - 1) // 2
    sub = ref_subgroup(ctx, j + 1)
    for b in sorted({ref_norm(ctx, a) for a in ref_units(ctx)
                     if a[0] % ctx.p != 0}):
        f = reference_chi_blj(ctx, b % ctx.p ** cond, cond, j + 1)
        if all(abs(chi[t] - f(t)) < 1e-9 for t in sub):
            return True
    return False


@pytest.mark.parametrize("args", TORUS_CASES + [(3, "unramified", 0, 3),
                                                (3, "unramified", 1, 3),
                                                (3, "ramified", 0, 2)],
                         ids=str)
def test_torus_character_theory_matches_dict_reference(args):
    ctx = TorusContext(TorusSpec(*args))
    chars = reference_characters(ctx)
    report = multiplicity_report(ctx)
    table = report["table"]
    assert [rec["char"].label for rec in table] == [lab for lab, _ in chars]
    trs = dict(zip(ctx.C, ctx.ops.traces()))
    for rec, (label, chi) in zip(table, chars):
        assert max(abs(rec["char"](t) - chi[t]) for t in ctx.C) < 1e-12
        val = sum(chi[t].conjugate() * trs[t] for t in ctx.C) / len(ctx.C)
        mult = int(round(val.real))
        assert rec["mult"] == mult
        assert abs(rec["deviation"] - abs(val - mult)) < 1e-12
        cond = reference_conductor(ctx, chi)
        assert rec["conductor"] == cond
        assert report["predicted"][label] == int(
            reference_predicate(ctx, chi, cond))
        m = match_args(ctx, cond)
        if m:
            assert (ctx._match_b(rec["char"], *m[0], **m[1])
                    == reference_match_b(ctx, chi, *m[0], **m[1]))


@pytest.mark.parametrize("kinds", [((3, "unramified", 0, 1),) * 2,
                                   ((3, "unramified", 0, 1),
                                    (3, "unramified", 1, 1)),
                                   ((3, "ramified", 0, 1),
                                    (3, "unramified", 1, 1))], ids=str)
def test_product_torus_table_matches_double_loop(kinds):
    (cA, cB), big, rep, table = product_torus_multiplicities(
        [TorusSpec(*k) for k in kinds])
    pairs = [(tA, tB) for tA in cA.C for tB in cB.C]
    trs = dict(zip(pairs, traces(rep, np.array([embed_pair(a, b)
                                                for a in cA.mats
                                                for b in cB.mats]))))
    expected = {}
    for labA, chA in reference_characters(cA):
        for labB, chB in reference_characters(cB):
            val = sum(chA[tA].conjugate() * chB[tB].conjugate() * tr
                      for (tA, tB), tr in trs.items()) / len(pairs)
            mult = int(round(val.real))
            expected[(labA, labB)] = (mult, abs(val - mult))
    assert list(table) == list(expected)
    for key, (mult, dev) in expected.items():
        assert table[key][0] == mult
        assert abs(table[key][1] - dev) < 1e-12


# -- the Heisenberg model: the row loop over coset representatives -----------


def reference_schrodinger_rho(model, w, t):
    """Row j: the coset of r_j + w, psi(t + beta(r_j, w)/2) times the phase
    psi(beta(rep, a)/2) of the split r_j + w = rep + a."""
    spec = model.spec
    psi = lambda c: unit_phase(c, model.M)
    reps = quotient_reps(spec, model.box)
    index = {r: i for i, r in enumerate(reps)}
    op = np.zeros((model.dim, model.dim), dtype=complex)
    for j, rj in enumerate(reps):
        v = add(spec, rj, w)
        rep = quotient_reduce(spec, v, model.box)
        ph = psi(model.half * form(spec, rep, sub(spec, v, rep)))
        op[j, index[rep]] = psi(t + model.half * form(spec, rj, w)) * ph
    return op


def _check_rho(rho, model):
    for w in vectors(model.spec.moduli):
        for t in range(model.M):
            assert np.abs(rho(w, t)
                          - reference_schrodinger_rho(model, w, t)).max() \
                < 1e-12


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_oscillator_rho_matches_row_loop(l, p):
    rep = OscillatorRep(l, p)
    ys = [list(y) for y in vectors((p,) * l)]
    assert rep._ys.tolist() == ys
    assert rep.heis.pts.tolist() == [[0] * l + y for y in ys]
    _check_rho(rep.rho, rep.heis)


def test_y_box_rho_matches_row_loop():
    model = SchrodingerModel(SympModule.standard(3, 1, 0, 1), (2, 0))
    assert model.selfdual
    _check_rho(model.rho, model)


# -- Gram-form predicates: the entry-by-entry loops ---------------------------


def reference_box_isotropic(spec, divs):
    p, M = spec.p, spec.modulus
    for i in range(spec.dim):
        for j in range(spec.dim):
            if spec.gram[i][j] % M == 0:
                continue
            e = min(divs[i], spec.exps[i]) + min(divs[j], spec.exps[j])
            if (p ** e * spec.gram[i][j]) % M:
                return False
    return True


def reference_box_invariant(spec, divs, gens):
    p = spec.p
    for g in gens:
        for j in range(spec.dim):
            cj = min(divs[j], spec.exps[j])
            for i in range(spec.dim):
                ci = p ** min(divs[i], spec.exps[i])
                if (g.mat[i][j] * p ** cj) % ci:
                    return False
    return True


def reference_is_symplectic(g):
    spec, M, dim = g.spec, g.spec.modulus, g.spec.dim
    for i in range(dim):
        for j in range(dim):
            s = sum(g.mat[k][i] * spec.gram[k][t] * g.mat[t][j]
                    for k in range(dim) for t in range(dim))
            if (s - spec.gram[i][j]) % M:
                return False
    return True


def reference_res_gram(spec, iso):
    p = spec.p
    out = []
    for gi in iso.res_coords:
        row = []
        for gj in iso.res_coords:
            val = (p ** (iso.uperp_box[gi] + iso.uperp_box[gj])
                   * spec.gram[gi][gj]) % spec.modulus
            assert val % p ** spec.n == 0
            row.append(val // p ** spec.n % p)
        out.append(row)
    return out


@pytest.mark.parametrize("args", [(3, 1, 0, 1), (3, 1, 1, 1), (3, 2, 1, 1),
                                  (5, 1, 0, 2), (3, 2, 2, 1)])
@pytest.mark.parametrize("side", ["B", "Bstar"])
def test_gram_predicates_match_entry_loops(args, side):
    """box_isotropic and _box_invariant on every box, the residue form
    (J in the order of res_coords), and is_symplectic on the generators and
    on perturbed generators, for the module of the lattice (side "B") and
    of its dual (the standard module at r - l)."""
    p, r, l, n = args
    spec = SympModule.standard(p, r, l if side == "B" else r - l, n)
    gens = invariance_generators(spec, transvection_generators(spec))
    els = elems(spec, gens)
    for divs in product(*[range(e + 1) for e in spec.exps]):
        assert box_isotropic(spec, divs) == reference_box_isotropic(spec, divs)
        assert _box_invariant(spec, divs, gens) == \
            reference_box_invariant(spec, divs, els)
    iso = canonical_isotropic(spec, transvection_generators(spec))
    k, l = len(iso.res_coords), iso.l_res
    J = [[1 if j == i + l else p - 1 if i == j + l else 0 for j in range(k)]
         for i in range(k)]
    assert reference_res_gram(spec, iso) == J
    rng = random.Random(sum(args))
    assert is_symplectic(spec, gens).all()
    for g in els:
        mat = [list(row) for row in g.mat]
        i, j = rng.randrange(spec.dim), rng.randrange(spec.dim)
        mat[i][j] += spec.p ** max(0, spec.exps[i] - spec.exps[j])
        for h in (g, GroupElem(spec, mat)):
            assert h.is_symplectic() == reference_is_symplectic(h)
