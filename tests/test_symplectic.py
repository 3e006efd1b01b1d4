import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilrep.ring_rep import abelianization_character, canonical_isotropic
from weilrep.symplectic import (ClosureCapExceeded, GroupElem, SympModule,
                                brute_force_symplectic_count, group_closure,
                                orbits, reduce_level, symplectic_group,
                                transvection, transvection_generators)


def test_standard_module_shapes():
    m = SympModule.standard(3, 1, 0, 1)
    assert m.moduli == (9, 9)
    assert m.size() == 81
    assert m.form((1, 0), (0, 1)) == 1

    m = SympModule.standard(3, 1, 1, 1)
    assert m.moduli == (3, 3)
    assert m.size() == 9
    assert m.form((1, 0), (0, 1)) == 3

    m = SympModule.standard(3, 2, 1, 1)
    assert m.moduli == (3, 9, 3, 9)
    assert m.size() == 3 ** 6


def test_form_alternating_bilinear():
    random.seed(1)
    m = SympModule.standard(3, 2, 1, 1)
    vecs = [tuple(random.randrange(mod) for mod in m.moduli)
            for _ in range(20)]
    for v in vecs:
        assert m.form(v, v) == 0
        for w in vecs:
            assert (m.form(v, w) + m.form(w, v)) % m.modulus == 0
            u = m.add(v, w)
            for x in vecs[:5]:
                assert m.form(u, x) == (m.form(v, x) + m.form(w, x)) % m.modulus


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
    vecs = list(m.vectors())
    for _ in range(100):
        a = random.randrange(m.modulus)
        v = random.choice(vecs)
        t = transvection(m, a, v)
        assert t.is_symplectic()
        assert t.act(v) == v
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
    shuffled = gens[:]
    random.shuffle(shuffled)
    A = group_closure(gens[:8] + gens[-8:])
    B = group_closure(shuffled)
    assert {g.mat for g in A} <= {g.mat for g in B} or len(A) < len(B)
    full = group_closure(gens)
    assert {g.mat for g in full} == {g.mat for g in B}


def test_closure_cap():
    spec = SympModule.standard(3, 1, 0, 1)
    with pytest.raises(ClosureCapExceeded):
        group_closure(transvection_generators(spec), cap=100)


def test_orbits_b1():
    spec = SympModule.standard(3, 1, 0, 1)
    G = symplectic_group(spec)
    orbs = orbits(G.gens, spec.exps)
    assert [len(o) for o in orbs] == [1, 8, 72]
    assert orbs[0] == [(0, 0)]
    for o in orbs:
        assert len(G) % len(o) == 0
    assert sum(len(o) for o in orbs) == spec.size()


def test_orbits_on_quotient():
    spec = SympModule.standard(3, 1, 0, 1)
    G = symplectic_group(spec)
    box = (1, 1)   # the submodule 3W
    orbs = orbits(G.gens, box)
    assert [len(o) for o in orbs] == [1, 8]


def test_reduction_map():
    spec1 = SympModule.standard(3, 1, 0, 1)
    spec0 = SympModule.standard(3, 1, 0, 0)
    G = symplectic_group(spec1)
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
    G = symplectic_group(spec)
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
    w1, w2 = _word(G.gens, letters1), _word(G.gens, letters2)
    for w in (w1, w2, w1 * w2):
        assert G[G.find(w)] == w and w in G
    chi, _ = abelianization_character(G, 1)
    assert abs(chi(w1 * w2) - chi(w1) * chi(w2)) < 1e-12
    # the orbits of <w1, w2> partition W and the U-perp cosets, and each is
    # closed under both words
    for box in (spec.exps, canonical_isotropic(spec).uperp_box):
        orbs = orbits([w1, w2], box)
        pts = [v for orb in orbs for v in orb]
        assert sorted(pts) == spec.quotient_reps(box)
        for orb in orbs:
            for g in (w1, w2):
                assert {spec.quotient_reduce(g.act(v), box)
                        for v in orb} == set(orb)
