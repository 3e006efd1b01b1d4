import random

import numpy as np
import pytest

from weilrep.heisenberg import SchrodingerModel, heis_mul, standard_selfdual
from weilrep.symplectic import SympModule


def x_model(spec):
    return SchrodingerModel(spec, standard_selfdual(spec))


def character_norm(m):
    """(1/|H|) sum |tr rho(h)|^2; equals 1 iff irreducible."""
    total = 0.0
    count = 0
    for w in m.spec.vectors():
        base = np.trace(m.rho(w, 0))
        for t in range(m.M):
            total += abs(m.phase(t) * base) ** 2
            count += 1
    return total / count


def operator_gram(m):
    """G[v][w] = tr(rho(v,0) rho(w,0)^*) over all of W."""
    ops = np.stack([m.rho(v, 0) for v in sorted(m.spec.vectors())])
    return np.einsum("iab,jab->ij", ops, ops.conj())


def test_group_law_associative_exhaustive():
    spec = SympModule.standard(3, 1, 1, 1)
    H = [(w, t) for w in spec.vectors() for t in range(spec.modulus)]
    for h1 in H:
        for h2 in H:
            h12 = heis_mul(spec, h1, h2)
            for h3 in H[::7]:
                assert heis_mul(spec, h12, h3) \
                    == heis_mul(spec, h1, heis_mul(spec, h2, h3))


def test_inverse():
    spec = SympModule.standard(3, 1, 0, 1)
    random.seed(0)
    vecs = list(spec.vectors())
    ident = (spec.zero(), 0)
    for _ in range(30):
        h = (random.choice(vecs), random.randrange(9))
        inv = (spec.neg(h[0]), -h[1] % 9)
        assert heis_mul(spec, h, inv) == ident == heis_mul(spec, inv, h)


def test_dual_subgroup_examples():
    """dual_box is A* = {v : beta(v, a) = 0 for all a in A} on every box."""
    spec = SympModule.standard(3, 1, 0, 1)
    assert spec.dual_box(spec.exps) == (0, 0)
    assert spec.dual_box((0, 0)) == spec.exps
    assert spec.dual_box(standard_selfdual(spec)) == standard_selfdual(spec)
    for divs in ((0, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2)):
        box = spec.box_elements(divs)
        dual = {v for v in spec.vectors()
                if all(spec.form(v, a) == 0 for a in box)}
        assert set(spec.box_elements(spec.dual_box(divs))) == dual


def test_standard_selfdual_sizes():
    for (p, r, l, n, size) in ((3, 1, 0, 1, 9), (3, 1, 1, 1, 3),
                               (3, 2, 1, 1, 27)):
        spec = SympModule.standard(p, r, l, n)
        A = standard_selfdual(spec)
        assert spec.box_size(A) == size
        assert size ** 2 == spec.size()
        assert SchrodingerModel(spec, A).selfdual


def test_schrodinger_dimension_and_center():
    spec = SympModule.standard(3, 1, 0, 1)
    m = x_model(spec)
    assert m.dim == 9
    for t in range(9):
        assert np.allclose(m.rho(spec.zero(), t),
                           m.phase(t) * np.eye(9), atol=1e-9)


def test_schrodinger_is_homomorphism():
    spec = SympModule.standard(3, 1, 0, 1)
    random.seed(1)
    vecs = list(spec.vectors())
    for m in (x_model(spec), SchrodingerModel(spec, (2, 0))):
        for _ in range(60):
            h1 = (random.choice(vecs), random.randrange(9))
            h2 = (random.choice(vecs), random.randrange(9))
            prod_op = m.rho(*h1) @ m.rho(*h2)
            assert np.allclose(prod_op, m.rho(*heis_mul(spec, h1, h2)),
                               atol=1e-9)


def test_irreducibility_character_norm():
    for (p, r, l, n) in ((3, 1, 0, 0), (3, 1, 1, 1)):
        spec = SympModule.standard(p, r, l, n)
        assert abs(character_norm(x_model(spec)) - 1) < 1e-9


def test_rejects_non_selfdual():
    spec = SympModule.standard(3, 1, 0, 1)
    small = SchrodingerModel(spec, (1, 2))   # 3Z/9 x {0}: too small
    assert not small.selfdual
    with pytest.raises(ValueError):
        small.rho(spec.zero())
    # {(x1, 0, y1, 0)} in F_3^4 has the size of a self-dual box but is not
    # isotropic
    spec = SympModule.standard(3, 2, 0, 0)
    assert not SchrodingerModel(spec, (0, 1, 0, 1)).selfdual


def test_stone_von_neumann_character_match():
    """Models induced from different self-dual boxes agree pointwise."""
    spec = SympModule.standard(3, 1, 0, 1)
    mA = x_model(spec)
    mB = SchrodingerModel(spec, (2, 0))
    for w in spec.vectors():
        ta = np.trace(mA.rho(w, 0))
        tb = np.trace(mB.rho(w, 0))
        assert abs(ta - tb) < 1e-9


def test_operator_basis_gram():
    spec = SympModule.standard(3, 1, 1, 1)
    m = x_model(spec)
    G = operator_gram(m)
    vecs = sorted(spec.vectors())
    for i, v in enumerate(vecs):
        assert abs(G[i, i] - m.dim) < 1e-9
        for j in range(len(vecs)):
            if i != j:
                assert abs(G[i, j]) < 1e-9
    assert np.linalg.matrix_rank(G) == spec.size()


def test_operator_basis_gram_big():
    spec = SympModule.standard(3, 1, 0, 1)
    m = x_model(spec)
    G = operator_gram(m)
    off = G - m.dim * np.eye(spec.size())
    assert np.abs(off).max() < 1e-9
    assert np.linalg.matrix_rank(G) == spec.size()
