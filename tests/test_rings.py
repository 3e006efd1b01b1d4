import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert ext.norm_of(1, 1) == (1 - 2) % 3 == 2
    ram = QuadExt(3, "ramified", 3)
    assert ram.norm_of(1, 1) == (1 - 3) % 9


def ring(ext):
    """Every element of the truncated ring, as an (M, 2) array."""
    return np.stack(np.divmod(np.arange(ext.mod_xi * ext.mod_eta),
                              ext.mod_eta), axis=1)


def conj(ext, a):
    return np.asarray(a) * (1, -1) % (ext.mod_xi, ext.mod_eta)


def as_set(a):
    return set(map(tuple, np.asarray(a).tolist()))


def test_conjugation_involution_and_trace():
    rng = np.random.default_rng(0)
    for ext in (QuadExt(3, "unramified", 2), QuadExt(3, "ramified", 4)):
        z = rng.integers(0, (ext.mod_xi, ext.mod_eta), size=(25, 2))
        assert (conj(ext, conj(ext, z)) == z).all()
        # z * conj(z) = N(z), and N(z + 1) - N(z) - 1 = Tr(z) = 2 xi
        xi, eta = z.T
        assert (ext.mul(z, conj(ext, z))
                == np.stack([ext.norm_of(xi, eta), 0 * xi], axis=1)).all()
        assert ((ext.norm_of(xi + 1, eta) - ext.norm_of(xi, eta) - 1)
                % ext.mod_xi == 2 * xi % ext.mod_xi).all()


def test_norm_multiplicative_exhaustive():
    for level in (1, 2):
        ext = QuadExt(3, "unramified", level)
        z = ring(ext)
        prod = ext.mul(z[:, None], z[None])
        assert (ext.norm_of(*np.moveaxis(prod, -1, 0))
                == np.multiply.outer(ext.norm_of(*z.T), ext.norm_of(*z.T))
                % ext.mod_xi).all()


def test_norm_one_orders():
    assert len(QuadExt(3, "unramified", 1).norm_one_group()) == 4
    assert len(QuadExt(3, "unramified", 2).norm_one_group()) == 12
    ram = QuadExt(3, "ramified", 3)
    T = ram.norm_one_group()
    assert T.shape == (6, 2)
    assert T.tolist() == sorted(T.tolist())
    assert (ram.mod_xi - 1, 0) in as_set(T)
    # {+-1} x congruence part
    T1 = ram.congruence_subgroup(T, 1)
    assert len(T1) == 3
    assert as_set(T) == as_set(ram.mul([[1, 0], [-1, 0]], T1[:, None])
                               .reshape(-1, 2))


def test_norm_one_closure():
    for ext in (QuadExt(3, "unramified", 2), QuadExt(3, "ramified", 4),
                QuadExt(5, "unramified", 1)):
        T = ext.norm_one_group()
        assert (ext.mul(T, conj(ext, T)) == (1, 0)).all()
        assert as_set(ext.mul(T[:, None], T[None]).reshape(-1, 2)) \
            == as_set(T)


def test_congruence_filtration():
    ext = QuadExt(3, "unramified", 2)
    T = ext.norm_one_group()
    assert (ext.congruence_subgroup(T, 0) == T).all()
    assert len(T) // len(ext.congruence_subgroup(T, 1)) == 4
    with pytest.raises(ValueError):
        ext.congruence_subgroup(T, 99)


def test_ramified_congruence_collapse():
    # depth 2j and 2j+1 agree for j > 0
    ext = QuadExt(3, "ramified", 6)
    T = ext.norm_one_group()
    for j in (1, 2):
        assert (ext.congruence_subgroup(T, 2 * j)
                == ext.congruence_subgroup(T, 2 * j + 1)).all()


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5, 7]),
       kind=st.sampled_from(["unramified", "ramified"]),
       level=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_array_group_law(p, kind, level, seed):
    if kind == "unramified":
        level = min(level, 3)
    ext = QuadExt(p, kind, level)
    mods = (ext.mod_xi, ext.mod_eta)
    z, w, v = np.random.default_rng(seed).integers(0, mods, size=(3, 200, 2))
    assert (ext.norm_of(*ext.mul(z, w).T)
            == ext.norm_of(*z.T) * ext.norm_of(*w.T) % ext.mod_xi).all()
    assert (ext.mul(ext.mul(z, w), v) == ext.mul(z, ext.mul(w, v))).all()
    assert (ext.mul(z, (1, 0)) == z).all() and (ext.mul((1, 0), z) == z).all()
    C = ext.norm_one_group()
    assert (ext.mul(C, conj(ext, C)) == (1, 0)).all()
    assert as_set(ext.mul(C[:, None], C[None]).reshape(-1, 2)) == as_set(C)
    if kind == "unramified":
        assert len(C) == (p + 1) * p ** (level - 1)
        return
    for j in range(1, (level - 1) // 2 + 1):
        assert (ext.congruence_subgroup(C, 2 * j)
                == ext.congruence_subgroup(C, 2 * j + 1)).all()


def test_unit_phase_cache():
    assert close(unit_phase(3, 9), unit_phase(1, 3))
    assert close(unit_phase(9, 9), 1)
