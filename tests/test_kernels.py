"""The numpy kernels against the pure-Python loops they replace.

`group_closure` must return the same elements in the same order as a plain
BFS over `GroupElem` products, `OscillatorRep.M_X` the same operator as a
loop over the points (x, y_j) of W, and the block-monomial form of
`RingWeilRep` the same operators, traces and summand characters as a loop
over the cosets of U-perp for one element at a time.
"""

import random
from functools import reduce
from itertools import product
from operator import mul

import numpy as np
import pytest

from weilrep.linalg import mat_inv, mat_mul, mat_vec
from weilrep.oscillator import OscillatorRep, sl2_elements, sp_elements
from weilrep.ring_rep import (_CHUNK, TwistedRep, abelianization_character,
                              build_ring_rep, character_norm, decompose,
                              embed_pair, summand_characters, traces)
from weilrep.rings import unit_phase
from weilrep.symplectic import (ClosureCapExceeded, FiniteGroup, GroupElem,
                                SympModule, group_closure, symplectic_group,
                                transvection_generators)
from weilrep.torus import TorusSpec, product_torus_multiplicities


def reference_closure(gens):
    """Sorted matrices of the closure, by BFS over GroupElem products."""
    ident = GroupElem.identity(gens[0].spec)
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
    gens = transvection_generators(SympModule.standard(*args))
    G = group_closure(gens)
    assert [g.mat for g in G] == reference_closure(gens)
    assert all(G.index[g.mat] == i for i, g in enumerate(G))
    assert G.gens == gens


def test_closure_cap_without_overflow():
    # Sp(6, F_5): a mixed-radix int64 key of 36 base-5 digits would overflow
    gens = transvection_generators(SympModule.standard(5, 3, 0, 0))
    with pytest.raises(ClosureCapExceeded):
        group_closure(gens, cap=1000)


def reference_M_X(rep, g):
    """The loop over (x, y_j): phi(w) = psi(-x.y/2) phi(0, y) on g^{-1} w."""
    p, l = rep.p, rep.l
    psi = lambda c: unit_phase(rep.scale * c, p)
    ginv = mat_inv(g, p)
    op = np.zeros((rep.dim, rep.dim), dtype=complex)
    for jrow, yj in enumerate(rep.ys):
        for x in product(range(p), repeat=l):
            v = mat_vec(ginv, tuple(x) + yj, p)
            vx, vy = v[:l], v[l:]
            ph = psi(-rep.half * sum(a * b for a, b in zip(vx, vy)))
            dot = sum(a * b for a, b in zip(x, yj))
            op[jrow, rep.ys.index(vy)] += psi(rep.half * dot) * ph
    return op / (p ** l)


def _check_M_X(l, p, elements):
    # scale 1 and a non-square scale
    nonsquare = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)
    for scale in (1, nonsquare):
        rep = OscillatorRep(l, p, scale)
        for g in elements:
            assert np.abs(rep.M_X(g) - reference_M_X(rep, g)).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7])
def test_M_X_matches_reference_on_sl2(p):
    _check_M_X(1, p, sl2_elements(p))


def test_M_X_matches_reference_on_sp4():
    _check_M_X(2, 3, random.Random(4).sample(sp_elements(2, 3), 200))


# -- RingWeilRep: the coset loop for one element at a time --------------------


def reference_reduce(iso, g):
    """Image of g in Sp(residue), one column at a time."""
    p = iso.spec.p
    k = len(iso.res_coords)
    if k == 0:
        return tuple()
    cols = []
    for gj in iso.res_coords:
        scale = p ** iso.uperp_box[gj]
        img = g.act(iso.spec.smul(scale, iso.spec.basis_vector(gj)))
        cols.append([(img[gi] // p ** iso.uperp_box[gi]) % p
                     for gi in iso.res_coords])
    R = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
    return mat_mul(iso.Tinv, mat_mul(R, iso.T, p), p)


def reference_project(iso, u):
    p = iso.spec.p
    vec = tuple((u[gi] // p ** iso.uperp_box[gi]) % p for gi in iso.res_coords)
    return mat_vec(iso.Tinv, vec, p) if vec else tuple()


def reference_rho(rep, ubar):
    if rep.sigma is None:
        return np.ones((1, 1), dtype=complex)
    return rep.sigma.rho(ubar, 0)


def reference_blocks(rep, g):
    """(row coset, column coset, phase, residue class) of S(g)."""
    spec, iso = rep.spec, rep.iso
    ginv = g.inverse()
    out = []
    for ci, x in enumerate(rep.cosets):
        y = ginv.act(x)
        xc = spec.quotient_reduce(y, iso.uperp_box)
        u = spec.sub(y, xc)
        ph = rep.psi(rep.half * spec.form(xc, u))
        out.append((ci, rep.cindex[xc], ph, reference_project(iso, u)))
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
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for ci, x in enumerate(rep.cosets):
        target = spec.add(x, w)
        xc = spec.quotient_reduce(target, rep.iso.uperp_box)
        u = spec.sub(target, xc)
        ph = rep.psi(t + rep.half * spec.form(x, w)) \
            * rep.psi(rep.half * spec.form(xc, u))
        cj = rep.cindex[xc]
        out[ci * s:(ci + 1) * s, cj * s:(cj + 1) * s] = \
            ph * reference_rho(rep, reference_project(rep.iso, u))
    return out


def reference_delta_vec(rep, point):
    spec = rep.spec
    out = np.zeros(rep.dim, dtype=complex)
    xc = spec.quotient_reduce(point, rep.iso.uperp_box)
    u = spec.sub(xc, point)
    ph = rep.psi(rep.half * spec.form(point, u))
    ci = rep.cindex[xc]
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


def _check_characters(rep, group, idx, twist=lambda g: 1.0):
    """summand_characters of the whole group, at the columns idx."""
    summands = decompose(rep, group)
    chars = summand_characters(rep, group, summands)
    assert chars.shape == (len(summands), len(group))
    for i in idx:
        g = group.elements[i]
        op = twist(g) * reference_op(rep, g)
        for si, sm in enumerate(summands):
            ref = np.einsum("ij,ji->", sm.projector, op)
            assert abs(chars[si, i] - ref) < 1e-12


def _sample_idx(n, k, seed):
    """k seeded indices plus both sides of every chunk boundary."""
    edges = {i for b in range(_CHUNK, n, _CHUNK) for i in (b - 1, b)}
    return sorted(set(random.Random(seed).sample(range(n), k)) | edges
                  | {0, n - 1})


def test_ring_ops_match_reference_on_every_element_3101():
    rep = build_ring_rep(SympModule.standard(3, 1, 0, 1))
    G = symplectic_group(rep.spec)
    _check_ops(rep, G.elements)
    _check_characters(rep, G, range(len(G)))


@pytest.mark.parametrize("args", [(3, 1, 1, 1), (5, 1, 0, 1)], ids=str)
def test_ring_ops_match_reference_on_large_groups(args):
    rep = build_ring_rep(SympModule.standard(*args))
    G = symplectic_group(rep.spec)
    assert len(G) > 2 * _CHUNK
    idx = _sample_idx(len(G), 150, seed=5)
    _check_ops(rep, [G.elements[i] for i in idx])
    _check_characters(rep, G, idx)
    whole = traces(rep, G.elements)
    for i in idx:
        assert abs(whole[i] - reference_trace(rep, G.elements[i])) < 1e-12
    cn, dev = character_norm(G, rep)
    assert cn == {(3, 1, 1, 1): 4, (5, 1, 0, 1): 3}[args] and dev < 1e-9


@pytest.mark.parametrize("flavor", ["B", "Bstar"])
def test_ring_ops_match_reference_on_generator_words_3211(flavor):
    rep = build_ring_rep(SympModule.standard(3, 2, 1, 1, flavor=flavor))
    assert rep.sigma is not None
    gens = transvection_generators(rep.spec)
    rng = random.Random(11)
    words = [reduce(mul, rng.choices(gens, k=2 * rep.spec.dim))
             for _ in range(40)]
    _check_ops(rep, words)
    # decompose needs only the generators; the characters are taken on
    # the words
    words_group = FiniteGroup(words, gens)
    _check_characters(rep, words_group, range(len(words_group)))
    for g in words[:10]:
        w = rng.choice(list(rep.spec.vectors()))
        t = rng.randrange(rep.M)
        assert np.abs(rep.heis_op(w, t)
                      - reference_heis_op(rep, w, t)).max() < 1e-12


@pytest.mark.parametrize("kinds", [(0, 0), (1, 0)], ids=str)
def test_ring_ops_match_reference_on_product_torus(kinds):
    specs = [TorusSpec(3, "unramified", u, 1) for u in kinds]
    (cA, cB), big, rep, _ = product_torus_multiplicities(specs)
    pairs = [(tA, tB) for tA in cA.C for tB in cB.C]
    elements = [embed_pair(big, cA.embed(tA), cB.embed(tB))
                for tA, tB in random.Random(2).sample(pairs, 40)]
    _check_ops(rep, elements)


def test_twisted_rep_matches_reference():
    rep = build_ring_rep(SympModule.standard(3, 1, 0, 1))
    G = symplectic_group(rep.spec)
    chi, k = abelianization_character(G, 1)
    assert k == 3
    twisted = TwistedRep(rep, chi)
    _check_ops(twisted, G.elements, twist=chi)
    _check_characters(twisted, G, range(len(G)), twist=chi)


@pytest.mark.parametrize("args", [(3, 1, 0, 1), (3, 1, 1, 1), (3, 2, 1, 1)],
                         ids=str)
def test_heis_op_and_delta_vec_match_reference(args):
    rep = build_ring_rep(SympModule.standard(*args))
    rng = random.Random(6)
    vecs = list(rep.spec.vectors())
    for w in rng.sample(vecs, 30):
        t = rng.randrange(rep.M)
        assert np.abs(rep.heis_op(w, t)
                      - reference_heis_op(rep, w, t)).max() < 1e-12
        assert np.abs(rep.delta_vec(w)
                      - reference_delta_vec(rep, w)).max() < 1e-12
