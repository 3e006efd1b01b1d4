import random

import pytest

from weilrep.rings import QuadExt, legendre, unit_phase, vp


def close(a, b):
    return abs(a - b) <= 1e-9


def test_legendre_small_values():
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1     # squares mod 3 are {0, 1}
    assert legendre(4, 5) == 1      # 2^2 = 4
    assert legendre(0, 5) == 0


def test_legendre_multiplicative_on_units():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


# the additive character psi(x) = exp(2 pi i x / p^m) of Z/p^m is
# unit_phase(x, p^m)


def test_psi_examples():
    for p, m in ((3, 1), (3, 2), (5, 2)):
        psi = lambda x: unit_phase(x, p ** m)
        assert close(psi(0), 1)
        # forced by primitivity: a p-th root of unity that is not 1
        val = psi(p ** (m - 1))
        assert not close(val, 1)
        assert close(val ** p, 1)


def test_psi_homomorphism_exhaustive_p3_m2():
    psi = lambda x: unit_phase(x, 9)
    for a in range(9):
        for b in range(9):
            assert close(psi(a) * psi(b), psi(a + b))


def test_psi_primitive_sum_vanishes():
    for p, m in ((3, 1), (3, 2), (5, 1), (7, 1)):
        assert abs(sum(unit_phase(x, p ** m) for x in range(p ** m))) < 1e-9


def test_half_character():
    # x -> psi(x/2) through the inverse of 2 mod 9
    half = pow(2, -1, 9)
    for x in range(9):
        assert close(unit_phase(half * 2 * x, 9), unit_phase(x, 9))


def test_val_total():
    assert vp(0, 3, cap=2) == 2
    assert vp(3, 3) == 1
    assert vp(5, 3) == 0


def test_quad_norm_examples():
    ext = QuadExt(3, "unramified", 1, d=2)
    z = ext.elem(1, 1)
    assert ext.norm(z) == (1 - 2) % 3 == 2
    ram = QuadExt(3, "ramified", 3)
    w = ram.elem(1, 1)
    assert ram.norm(w) == (1 - 3) % 9


def test_quad_elements_of_different_extensions_differ():
    # same kind, level and coordinates; the extensions differ only in p or d
    for e1, e2 in ((QuadExt(3, "unramified", 1, d=2),
                    QuadExt(5, "unramified", 1, d=2)),
                   (QuadExt(5, "unramified", 1, d=2),
                    QuadExt(5, "unramified", 1, d=3))):
        z1, z2 = e1.elem(1, 0), e2.elem(1, 0)
        assert z1 != z2
        assert len({z1, z2}) == 2
        assert z1 == e1.one and hash(z1) == hash(e1.one)


def test_conjugation_involution_and_trace():
    random.seed(0)
    for ext in (QuadExt(3, "unramified", 2), QuadExt(3, "ramified", 4)):
        for _ in range(25):
            z = ext.elem(random.randrange(ext.mod_xi),
                         random.randrange(ext.mod_eta))
            assert ext.conj(ext.conj(z)) == z
            assert ext.trace(z) == (2 * z.xi) % ext.mod_xi


def test_norm_multiplicative_exhaustive():
    for level in (1, 2):
        ext = QuadExt(3, "unramified", level)
        els = list(ext.elements())
        for z in els:
            for w in els:
                assert ext.norm(ext.mul(z, w)) == \
                    (ext.norm(z) * ext.norm(w)) % ext.mod_xi


def test_norm_one_orders():
    assert len(QuadExt(3, "unramified", 1).norm_one_group()) == 4
    assert len(QuadExt(3, "unramified", 2).norm_one_group()) == 12
    ram = QuadExt(3, "ramified", 3)
    T = ram.norm_one_group()
    assert len(T) == 6
    minus_one = ram.elem(-1, 0)
    assert minus_one in T
    # {+-1} x congruence part
    T1 = ram.congruence_subgroup(T, 1)
    assert len(T1) == 3
    assert set(T) == {ram.mul(s, t)
                      for s in (ram.one, minus_one) for t in T1}


def test_norm_one_closure():
    for ext in (QuadExt(3, "unramified", 2), QuadExt(3, "ramified", 4),
                QuadExt(5, "unramified", 1)):
        T = ext.norm_one_group()
        Ts = set(T)
        for z in T:
            assert ext.inv(z) in Ts
            for w in T:
                assert ext.mul(z, w) in Ts


def test_congruence_filtration():
    ext = QuadExt(3, "unramified", 2)
    T = ext.norm_one_group()
    assert ext.congruence_subgroup(T, 0) == T
    assert len(T) // len(ext.congruence_subgroup(T, 1)) == 4
    with pytest.raises(ValueError):
        ext.congruence_subgroup(T, 99)


def test_ramified_congruence_collapse():
    # depth 2j and 2j+1 agree for j > 0
    ext = QuadExt(3, "ramified", 6)
    T = ext.norm_one_group()
    assert ext.congruence_subgroup(T, 2) == ext.congruence_subgroup(T, 3)
    assert ext.congruence_subgroup(T, 4) == ext.congruence_subgroup(T, 5)


def test_unit_phase_cache():
    assert close(unit_phase(3, 9), unit_phase(1, 3))
    assert close(unit_phase(9, 9), 1)
