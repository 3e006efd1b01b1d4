import random

import numpy as np
import pytest

from reference import box_elements, form, heis_mul, vectors
from weilrep.heisenberg import SchrodingerModel, standard_selfdual
from weilrep.symplectic import SympModule


def x_model(spec):
    return SchrodingerModel(spec, standard_selfdual(spec))


def character_norm(m):
    """(1/|H|) sum |tr rho(h)|^2; equals 1 iff irreducible."""
    total = 0.0
    count = 0
    for w in m.spec.points():
        base = np.trace(m.rho(w, 0))
        for t in range(m.M):
            total += abs(m.phase(t) * base) ** 2
            count += 1
    return total / count


def operator_gram(m):
    """G[v][w] = tr(rho(v,0) rho(w,0)^*) over all of W."""
    ops = np.stack([m.rho(v, 0) for v in m.spec.points()])
    return np.einsum("iab,jab->ij", ops, ops.conj())


def _same(h1, h2):
    return np.array_equal(h1[0], h2[0]) and np.array_equal(h1[1], h2[1])


def test_group_law_associative_exhaustive():
    spec = SympModule.standard(3, 1, 1, 1)
    # every (w, t), w outer: H[i] = (W[i], T[i])
    W = np.repeat(spec.points(), spec.modulus, axis=0)
    T = np.tile(np.arange(spec.modulus), spec.size())
    h1 = (W[:, None, None], T[:, None, None])
    h2 = (W[None, :, None], T[None, :, None])
    h3 = (W[None, None, ::7], T[None, None, ::7])
    assert _same(heis_mul(spec, heis_mul(spec, h1, h2), h3),
                 heis_mul(spec, h1, heis_mul(spec, h2, h3)))


def test_inverse():
    spec = SympModule.standard(3, 1, 0, 1)
    random.seed(0)
    vecs = spec.points()
    ident = (np.zeros(spec.dim, dtype=np.int64), 0)
    for _ in range(30):
        h = (random.choice(vecs), random.randrange(9))
        inv = (-h[0] % spec.moduli, -h[1] % 9)
        assert _same(heis_mul(spec, h, inv), ident)
        assert _same(heis_mul(spec, inv, h), ident)


def test_dual_subgroup_examples():
    """dual_box is A* = {v : beta(v, a) = 0 for all a in A} on every box."""
    spec = SympModule.standard(3, 1, 0, 1)
    assert spec.dual_box(spec.exps) == (0, 0)
    assert spec.dual_box((0, 0)) == spec.exps
    assert spec.dual_box(standard_selfdual(spec)) == standard_selfdual(spec)
    for divs in ((0, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2)):
        box = box_elements(spec, divs)
        dual = {v for v in vectors(spec.moduli)
                if all(form(spec, v, a) == 0 for a in box)}
        assert set(box_elements(spec, spec.dual_box(divs))) == dual


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
        assert np.allclose(m.rho((0, 0), t),
                           m.phase(t) * np.eye(9), atol=1e-9)


def test_schrodinger_is_homomorphism():
    spec = SympModule.standard(3, 1, 0, 1)
    random.seed(1)
    vecs = spec.points()
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
        small.rho((0, 0))
    # {(x1, 0, y1, 0)} in F_3^4 has the size of a self-dual box but is not
    # isotropic
    spec = SympModule.standard(3, 2, 0, 0)
    assert not SchrodingerModel(spec, (0, 1, 0, 1)).selfdual


def test_stone_von_neumann_character_match():
    """Models induced from different self-dual boxes agree pointwise."""
    spec = SympModule.standard(3, 1, 0, 1)
    mA = x_model(spec)
    mB = SchrodingerModel(spec, (2, 0))
    for w in spec.points():
        ta = np.trace(mA.rho(w, 0))
        tb = np.trace(mB.rho(w, 0))
        assert abs(ta - tb) < 1e-9


def test_operator_basis_gram():
    spec = SympModule.standard(3, 1, 1, 1)
    m = x_model(spec)
    G = operator_gram(m)
    vecs = spec.points()
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
