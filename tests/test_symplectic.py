import random
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (act, add, brute_force_symplectic_count, elems, form,
                       orbit_lists, quotient_reduce, quotient_reps,
                       reduce_level, reference_orbits, transvection,
                       tuple_generates_all_transvections, tuple_transvection,
                       vectors)
from weilrep import symplectic
from weilrep.ring_rep import (_box_invariant, abelianization_character,
                              canonical_isotropic)
from weilrep.symplectic import (ClosureCapExceeded, GroupElem, SympModule,
                                group_closure, orbits, symplectic_group,
                                transvection_generators)


def test_standard_module_shapes():
    m = SympModule.standard(3, 1, 0, 1)
    assert m.moduli == (9, 9)
    assert m.size() == 81
    assert form(m, (1, 0), (0, 1)) == 1

    m = SympModule.standard(3, 1, 1, 1)
    assert m.moduli == (3, 3)
    assert m.size() == 9
    assert form(m, (1, 0), (0, 1)) == 3

    m = SympModule.standard(3, 2, 1, 1)
    assert m.moduli == (3, 9, 3, 9)
    assert m.size() == 3 ** 6


def test_form_alternating_bilinear():
    random.seed(1)
    m = SympModule.standard(3, 2, 1, 1)
    vecs = [tuple(random.randrange(mod) for mod in m.moduli)
            for _ in range(20)]
    for v in vecs:
        assert form(m, v, v) == 0
        for w in vecs:
            assert (form(m, v, w) + form(m, w, v)) % m.modulus == 0
            u = add(m, v, w)
            for x in vecs[:5]:
                assert form(m, u, x) \
                    == (form(m, v, x) + form(m, w, x)) % m.modulus


def test_bstar_realization_matches_dual_side():
    """The Bstar flavor is the dual-basis module up to block relabeling."""
    p, r, l, n = 3, 2, 1, 1
    star = SympModule.standard(p, r, l, n, flavor="Bstar")
    # literal dual-side module on the basis (e_1..e_l, e_{l+1}..e_r,
    # w^{-1}f_1..w^{-1}f_l, f_{l+1}..f_r): unit pairing on the first block,
    # p-scaled pairing on the second
    moduli = [p ** (n + 1)] * l + [p ** n] * (r - l)
    moduli += moduli
    gram = [[0] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        c = 1 if i < l else p
        gram[i][r + i] = c
        gram[r + i][i] = -c % p ** (n + 1)
    literal = SympModule(p, n, moduli, gram)
    # relabeling: swap the two e-blocks and the two f-blocks
    perm = list(range(l, r)) + list(range(l)) + \
        list(range(r + l, 2 * r)) + list(range(r, r + l))
    assert tuple(literal.moduli[perm[i]] for i in range(2 * r)) == star.moduli
    for i in range(2 * r):
        for j in range(2 * r):
            assert literal.gram[perm[i]][perm[j]] % literal.modulus \
                == star.gram[i][j] % star.modulus


def test_transvection_examples():
    random.seed(2)
    m = SympModule.standard(3, 1, 0, 1)
    ident = GroupElem.identity(m)
    vecs = vectors(m.moduli)
    for _ in range(100):
        a = random.randrange(m.modulus)
        v = random.choice(vecs)
        t = transvection(m, a, v)
        assert t.is_symplectic()
        assert act(t, v) == v
    v = random.choice(vecs)
    assert transvection(m, 0, v) == ident
    a, b = 2, 5
    assert transvection(m, a, v) * transvection(m, b, v) \
        == transvection(m, a + b, v)


def test_matrix_constraint_enforced():
    m = SympModule.standard(3, 2, 1, 1)
    bad = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    bad[1][0] = 1   # needs divisibility by p: modulus 9 target, 3 source
    with pytest.raises(ValueError):
        GroupElem(m, bad)


def test_closure_orders():
    assert len(symplectic_group(SympModule.standard(3, 1, 0, 0))) == 24
    assert len(symplectic_group(SympModule.standard(3, 1, 0, 1))) == 648
    spec = SympModule.standard(3, 1, 1, 1)
    assert len(symplectic_group(spec)) == brute_force_symplectic_count(spec) \
        == 24


def test_closure_order_independent_of_generators():
    random.seed(3)
    spec = SympModule.standard(3, 1, 0, 1)
    gens = transvection_generators(spec)
    shuffled = list(gens)
    random.shuffle(shuffled)
    A = group_closure(spec, np.concatenate([gens[:8], gens[-8:]]))
    B = group_closure(spec, shuffled)
    assert np.isin(A.keys, B.keys).all()
    full = group_closure(spec, gens)
    assert (full.mats == B.mats).all() and (full.keys == B.keys).all()


def test_closure_cap():
    spec = SympModule.standard(3, 1, 0, 1)
    with pytest.raises(ClosureCapExceeded):
        group_closure(spec, transvection_generators(spec), cap=100)


def test_orbits_b1():
    spec = SympModule.standard(3, 1, 0, 1)
    G = symplectic_group(spec)
    label = orbits(spec, G.gens, spec.exps)
    assert label.dtype == np.int64 and label.shape == (spec.size(),)
    orbs = orbit_lists(label, spec.points())
    assert [len(o) for o in orbs] == [1, 8, 72]
    assert orbs[0] == [(0, 0)]
    for o in orbs:
        assert len(G) % len(o) == 0
    assert sum(len(o) for o in orbs) == spec.size()


def test_orbits_on_quotient():
    spec = SympModule.standard(3, 1, 0, 1)
    G = symplectic_group(spec)
    box = (1, 1)   # the submodule 3W
    orbs = orbit_lists(orbits(spec, G.gens, box), spec.points(box))
    assert [len(o) for o in orbs] == [1, 8]


def test_reduction_map():
    spec1 = SympModule.standard(3, 1, 0, 1)
    spec0 = SympModule.standard(3, 1, 0, 0)
    G = elems(spec1, symplectic_group(spec1).mats)
    ident = GroupElem.identity(spec1)
    assert reduce_level(ident, spec0) == GroupElem.identity(spec0)
    random.seed(4)
    for _ in range(50):
        g, h = random.choice(G), random.choice(G)
        assert reduce_level(g * h, spec0) \
            == reduce_level(g, spec0) * reduce_level(h, spec0)
    image = {reduce_level(g, spec0).mat for g in G}
    assert len(image) == 24
    assert len(G) // len(image) == 27


def test_inverse_and_symplectic_everywhere():
    spec = SympModule.standard(3, 1, 0, 1)
    G = elems(spec, symplectic_group(spec).mats)
    ident = GroupElem.identity(spec)
    random.seed(5)
    for g in random.sample(G, 40):
        assert g.is_symplectic()
        assert g * g.inverse() == ident


# SL2(Z/9) and the 24-element group of the scaled module standard(3, 1, 1, 1)
WORD_MODULES = [(3, 1, 0, 1), (3, 1, 1, 1)]
word = st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=12)


def _word(gens, letters):
    return reduce(mul, [gens[i % len(gens)] for i in letters])


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(WORD_MODULES), word, word)
def test_group_words_find_character_and_orbits(args, letters1, letters2):
    spec = SympModule.standard(*args)
    G = symplectic_group(spec)
    gens = elems(spec, G.gens)
    w1, w2 = _word(gens, letters1), _word(gens, letters2)
    for w in (w1, w2, w1 * w2):
        assert elems(spec, G.mats[[G.find(w)]]) == [w]
    chi, _ = abelianization_character(G, 1)
    assert abs(chi(w1 * w2) - chi(w1) * chi(w2)) < 1e-12
    # the orbits of <w1, w2> partition W and the U-perp cosets, and each is
    # closed under both words
    for box in (spec.exps, canonical_isotropic(spec).uperp_box):
        orbs = orbit_lists(orbits(spec, [w1, w2], box), spec.points(box))
        pts = [v for orb in orbs for v in orb]
        assert sorted(pts) == quotient_reps(spec, box)
        for orb in orbs:
            for g in (w1, w2):
                assert {quotient_reduce(spec, act(g, v), box)
                        for v in orb} == set(orb)


# -- the int64 point arrays against the tuple loops, on random modules --------


def _random_module_params():
    """Standard modules in both flavors, with equal and mixed moduli, also
    with the gram scaled by p (gram content one more), up to 3^8 points."""
    out = []
    for p in (3, 5):
        for r in (1, 2):
            for l in range(r + 1):
                for n in range(3):
                    for flavor in ("B", "Bstar"):
                        for scaled in (False, True):
                            spec = SympModule.standard(p, r, l, n, flavor)
                            if spec.size() <= 3 ** 8:
                                out.append((p, r, l, n, flavor, scaled))
    return out


MODULE_PARAMS = _random_module_params()


def _module(params):
    p, r, l, n, flavor, scaled = params
    spec = SympModule.standard(p, r, l, n, flavor)
    if scaled:
        spec = SympModule(p, n, spec.moduli,
                          [[p * x for x in row] for row in spec.gram])
    return spec


def _transvection_or_error(make, spec, a, v):
    try:
        return make(spec, a, v).mat
    except ValueError:
        return ValueError


modules = st.sampled_from(MODULE_PARAMS).map(_module)
seeds = st.integers(0, 2 ** 32)


@settings(deadline=None, max_examples=60)
@given(modules, seeds)
def test_points_are_the_product_order(spec, seed):
    assert spec.points().tolist() == [list(v) for v in vectors(spec.moduli)]
    rng = random.Random(seed)
    divs = tuple(rng.randrange(a + 2) for a in spec.exps)
    pts = spec.points(divs)
    assert pts.dtype == np.int64 and pts.flags["C_CONTIGUOUS"]
    assert pts.tolist() == [list(v) for v in quotient_reps(spec, divs)]


@settings(deadline=None, max_examples=60)
@given(modules, seeds)
def test_transvection_matches_tuple_loop(spec, seed):
    rng = random.Random(seed)
    for _ in range(10):
        a = rng.randrange(-spec.modulus, 2 * spec.modulus)
        v = tuple(rng.randrange(m) for m in spec.moduli)
        assert _transvection_or_error(transvection, spec, a, v) \
            == _transvection_or_error(tuple_transvection, spec, a, v)


def _valid_transvections(spec, rng, k):
    """Up to k transvections tau_{1,v} at random points v that are
    automorphisms of the module."""
    out = []
    for _ in range(k):
        v = tuple(rng.randrange(m) for m in spec.moduli)
        if _transvection_or_error(transvection, spec, 1, v) is not ValueError:
            out.append(transvection(spec, 1, v))
    return out


@settings(deadline=None, max_examples=60)
@given(modules, seeds)
def test_orbit_labels_match_tuple_bfs(spec, seed):
    rng = random.Random(seed)
    gens = _valid_transvections(spec, rng, 3) or [GroupElem.identity(spec)]
    divs = tuple(rng.randrange(a + 1) for a in spec.exps)
    for box in (spec.exps, divs):
        if not _box_invariant(spec, box, gens):
            continue
        act_mod = lambda g, v: quotient_reduce(spec, act(g, v), box)
        assert orbit_lists(orbits(spec, gens, box), spec.points(box)) \
            == reference_orbits(gens, quotient_reps(spec, box), act_mod)


@settings(deadline=None, max_examples=60)
@given(modules, seeds)
def test_transvection_certificate_matches_tuple_form(spec, seed):
    rng = random.Random(seed)
    vecs = [tuple(rng.randrange(m) for m in spec.moduli)
            for _ in range(rng.randrange(1, 4))]
    if any(_transvection_or_error(transvection, spec, 1, v) is ValueError
           for v in vecs):
        return
    assert symplectic._generates_all_transvections(spec, vecs) \
        == tuple_generates_all_transvections(spec, vecs)
    eye = np.eye(spec.dim, dtype=int)
    basis = [tuple(row) for row in np.concatenate([eye, eye[:-1] + eye[1:]])
             .tolist()]
    if all(_transvection_or_error(transvection, spec, 1, v) is not ValueError
           for v in basis):
        assert symplectic._generates_all_transvections(spec, basis) \
            == tuple_generates_all_transvections(spec, basis)
