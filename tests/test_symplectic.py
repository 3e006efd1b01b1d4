import itertools
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
                              canonical_isotropic, direct_sum,
                              faithful_model, invariance_generators)
from weilrep.symplectic import (ClosureCapExceeded, GroupElem,
                                StabilizerChain, SympModule, _lex_keys,
                                conjugacy_classes, group_closure, inverse,
                                orbits, symplectic_group,
                                transvection_generators)
from weilrep.torus import TorusContext, TorusSpec


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
    """The module of the dual lattice B* of invariant l is, up to block
    relabeling, the standard module at r - l."""
    p, r, l, n = 3, 2, 1, 1
    star = SympModule.standard(p, r, r - l, n)
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


def _check_inverse(spec, mats):
    """g g^-1 = g^-1 g = 1, rows reduced, for every g of the stack."""
    mods = np.array(spec.moduli)[:, None]
    inv = inverse(spec, mats)
    eye = np.eye(spec.dim, dtype=np.int64) % mods
    assert (mats @ inv % mods == eye).all()
    assert (inv @ mats % mods == eye).all()


# 3101, the model (3, 1, 1, 3) of `ring` 3111, 5101 and Sp(4, F_3)
@pytest.mark.parametrize("args", [(3, 1, 0, 1), (3, 1, 1, 3), (5, 1, 0, 1),
                                  (3, 2, 0, 0)], ids=str)
def test_inverse_on_closures(args):
    spec = SympModule.standard(*args)
    _check_inverse(spec, symplectic_group(spec).mats)


def test_inverse_on_mixed_moduli_words():
    """Words in the transvections of (3, 2, 1, 1) and the scaled-pair
    flip, which together generate more than the transvections do."""
    spec = SympModule.standard(3, 2, 1, 1)
    gens = elems(spec, invariance_generators(spec,
                                             transvection_generators(spec)))
    rng = random.Random(7)
    mats = np.array([reduce(mul, rng.choices(gens, k=12)).mat
                     for _ in range(200)])
    _check_inverse(spec, np.concatenate([mats, np.array(gens)]))


@pytest.mark.parametrize("factors", [
    [(3, "unramified", 0, 1)] * 2,
    [(3, "unramified", 0, 2), (3, "unramified", 1, 2)]], ids=str)
def test_inverse_on_product_sums(factors):
    """diag(a, b) over the torus elements a, b of two factors, on their
    orthogonal sum; the second sum has mixed moduli (27, 27, 9, 9)."""
    cA, cB = (TorusContext(TorusSpec(*f)) for f in factors)
    big = direct_sum(cA.module, cB.module)
    dA, d = cA.module.dim, big.dim
    stack = np.zeros((len(cA.mats), len(cB.mats), d, d), dtype=np.int64)
    stack[:, :, :dA, :dA] = cA.mats[:, None]
    stack[:, :, dA:, dA:] = cB.mats[None]
    _check_inverse(big, stack.reshape(-1, d, d))


def test_inverse_refuses_a_degenerate_pairing():
    """With the gram of 3101 scaled by p, the pairing of Z/9 with Z/9 through
    3 is not perfect, and the form does not determine g^-1."""
    spec = SympModule.standard(3, 1, 0, 1)
    scaled = SympModule(3, 1, spec.moduli,
                        [[3 * x for x in row] for row in spec.gram])
    with pytest.raises(ValueError, match="degenerate pairing"):
        inverse(scaled, np.eye(2, dtype=np.int64)[None])
    _check_inverse(spec, np.eye(2, dtype=np.int64)[None])


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
    ab, _ = abelianization_character(G)
    chi = lambda g: ab(g, 1)
    assert abs(chi(w1 * w2) - chi(w1) * chi(w2)) < 1e-12
    # the orbits of <w1, w2> partition W and the U-perp cosets, and each is
    # closed under both words
    for box in (spec.exps, canonical_isotropic(spec, G.gens).uperp_box):
        orbs = orbit_lists(orbits(spec, [w1, w2], box), spec.points(box))
        pts = [v for orb in orbs for v in orb]
        assert sorted(pts) == quotient_reps(spec, box)
        for orb in orbs:
            for g in (w1, w2):
                assert {quotient_reduce(spec, act(g, v), box)
                        for v in orb} == set(orb)


# -- the int64 point arrays against the tuple loops, on random modules --------


def _random_module_params():
    """Standard modules, with equal and mixed moduli, also with the gram
    scaled by p (gram content one more), up to 3^8 points."""
    out = []
    for p in (3, 5):
        for r in (1, 2):
            for l in range(r + 1):
                for n in range(3):
                    for scaled in (False, True):
                        spec = SympModule.standard(p, r, l, n)
                        if spec.size() <= 3 ** 8:
                            out.append((p, r, l, n, scaled))
    return out


MODULE_PARAMS = _random_module_params()


def _module(params):
    p, r, l, n, scaled = params
    spec = SympModule.standard(p, r, l, n)
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


def _ring_module(p, r, l, n):
    """The faithful model on which `ring` closes the group."""
    return SympModule.standard(p, r, l, faithful_model(r, l, n)[0])


# SL2(F_q) has q + 4 classes; the others are the class counts of the groups
# of Sp(4, F_3) and of `ring` 3101, 5101, 3111 and 3103
@pytest.mark.parametrize("spec,count", [
    *[(SympModule.standard(q, 1, 0, 0), q + 4) for q in (3, 5, 7)],
    (SympModule.standard(3, 2, 0, 0), 34),
    (_ring_module(3, 1, 0, 1), 25),
    (_ring_module(5, 1, 0, 1), 49),
    (_ring_module(3, 1, 1, 1), 79),
    (_ring_module(3, 1, 0, 3), 241),
], ids=repr)
def test_conjugacy_class_counts(spec, count):
    G = symplectic_group(spec)
    reps, sizes = conjugacy_classes(G)
    assert len(reps) == len(sizes) == count
    assert sizes.sum() == len(G) and (sizes > 0).all()
    assert (np.diff(reps) > 0).all()


@pytest.mark.parametrize("args", [(3, 1, 0, 1), (5, 1, 0, 1), (3, 1, 1, 1)],
                         ids=str)
def test_conjugacy_classes_are_the_conjugation_orbits(args):
    """Each class is {h g h^-1 : h in G} for its representative g, which is
    its first element; the classes cover G once; and the conjugate of each
    representative by every generator lies in its own class."""
    spec = _ring_module(*args)
    G = symplectic_group(spec)
    reps, sizes = conjugacy_classes(G)
    mods = np.array(spec.moduli)[:, None]
    Ginv = inverse(spec, G.mats)
    label = np.full(len(G), -1)
    for k, (i, size) in enumerate(zip(reps, sizes)):
        members = np.unique(G.find(G.mats @ G.mats[i] % mods @ Ginv))
        assert len(members) == size and members[0] == i
        assert (label[members] < 0).all()
        label[members] = k
    assert (label >= 0).all()
    conj = G.find(G.gens[:, None] @ G.mats[reps] % mods
                  @ inverse(spec, G.gens)[:, None])
    assert (label[conj] == np.arange(len(reps))).all()


def test_conjugacy_classes_refuse_a_generator_outside_the_group():
    """The upper unipotent group of SL2(F_3) with a lower unipotent
    generator, which does not normalize it."""
    spec = SympModule.standard(3, 1, 0, 0)
    U = group_closure(spec, [[[1, 1], [0, 1]]])
    with pytest.raises(ValueError, match="out of the group"):
        conjugacy_classes(symplectic.FiniteGroup(spec, U.mats,
                                                 [[[1, 0], [1, 1]]]))


# -- Sp(2l, F_p) off the stabilizer chain: G = R N ---------------------------


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_element_by_index_lists_the_group(l, p):
    """element(i) over every index is `elements()`, in its order, and
    sorted it is the enumerated group; the two level ranges are its
    factors, elements()[i |N| + k] = R[i] N[k]."""
    spec = SympModule.standard(p, l, 0, 0)
    chain = StabilizerChain(spec, transvection_generators(spec))
    every = chain.element(np.arange(chain.order()))
    assert (every == chain.elements()).all()
    assert (np.sort(_lex_keys(every, spec.moduli))
            == symplectic_group(spec).keys).all()
    R, N = chain.elements(0, l), chain.elements(l, 2 * l)
    assert len(R) * len(N) == chain.order()
    assert (every == (R[:, None] @ N[None] % p).reshape(every.shape)).all()


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_levels_from_l_on_are_the_siegel_unipotent_radical(l, p):
    """The levels that fix e_0..e_{l-1} list N = {[[1, B], [0, 1]] : B
    symmetric}, each element once."""
    spec = SympModule.standard(p, l, 0, 0)
    chain = StabilizerChain(spec, transvection_generators(spec))
    upper = [(i, j) for i in range(l) for j in range(i, l)]
    expected = []
    for entries in itertools.product(range(p), repeat=len(upper)):
        n = np.eye(2 * l, dtype=np.int64)
        for (i, j), b in zip(upper, entries):
            n[i, l + j] = n[j, l + i] = b
        expected.append(n)
    N = chain.elements(l, 2 * l)
    assert len(N) == p ** (l * (l + 1) // 2)
    assert (np.sort(_lex_keys(N, spec.moduli))
            == np.sort(_lex_keys(np.array(expected), spec.moduli))).all()
