import random
from itertools import product

import numpy as np
import pytest

from weilrep.linalg import _rank_normal_form, mat_inv, mat_T
from weilrep.oscillator import (J_element, OscillatorRep, bruhat_decompose,
                                det_X, hasse_davenport_holds, mat_mul,
                                parabolic_elements, parabolic_identity_report,
                                sl2_elements, sp_elements, theta, weil_index)
from weilrep.rings import legendre


# -- the Bruhat factorization that the cell invariants replace ----------------


def _from_blocks(a, b, c, d, p):
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    rows += [list(rc) + list(rd) for rc, rd in zip(c, d)]
    return tuple(tuple(x % p for x in row) for row in rows)


def levi(a, p):
    """diag(a, (a^T)^{-1}) in the Siegel parabolic."""
    zero = tuple((0,) * len(a) for _ in a)
    return _from_blocks(a, zero, zero, mat_T(mat_inv(a, p)), p)


def unipotent(b, p):
    """[[I, b],[0, I]] with b symmetric."""
    l = len(b)
    eye = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    zero = tuple((0,) * l for _ in range(l))
    return _from_blocks(eye, b, zero, eye, p)


def tau_matrix(S, l, p):
    """e_i -> f_i, f_i -> -e_i for i in S, identity elsewhere."""
    g = [[0] * (2 * l) for _ in range(2 * l)]
    for i in range(l):
        if i in S:
            g[l + i][i] = 1
            g[i][l + i] = -1 % p
        else:
            g[i][i] = 1
            g[l + i][l + i] = 1
    return tuple(tuple(row) for row in g)


def reference_bruhat(g, l, p):
    """g = p1 tau_S p2 with p1, p2 in the Siegel parabolic: (p1, S, p2)."""
    g = tuple(tuple(x % p for x in row) for row in g)
    c = tuple(row[:l] for row in g[l:])
    u, w, r = _rank_normal_form(c, p)
    a1 = mat_T(mat_inv(u, p))
    g2 = mat_mul(levi(a1, p), mat_mul(g, levi(w, p), p), p)
    # symplecticity forces a12 = 0 and a11 symmetric w.r.t. the r-split
    bprime = [[0] * l for _ in range(l)]
    for i in range(r):
        for j in range(r):
            bprime[i][j] = -g2[i][j] % p
    for i in range(r, l):
        for j in range(r):
            bprime[i][j] = bprime[j][i] = -g2[i][j] % p
    bprime = tuple(map(tuple, bprime))
    S = frozenset(range(r))
    tau = tau_matrix(S, l, p)
    h = mat_mul(mat_inv(tau, p), mat_mul(unipotent(bprime, p), g2, p), p)
    assert not any(x for row in h[l:] for x in row[:l])
    p1 = mat_mul(levi(mat_inv(a1, p), p),
                 unipotent(tuple(tuple(-x % p for x in row)
                                 for row in bprime), p), p)
    p2 = mat_mul(h, levi(mat_inv(w, p), p), p)
    return p1, S, p2


def _check_against_reference(g, l, p):
    p1, S, p2 = reference_bruhat(g, l, p)
    assert mat_mul(p1, mat_mul(tau_matrix(S, l, p), p2, p), p) == g
    assert bruhat_decompose(g, l, p) == (
        det_X(p1, l, p) * det_X(p2, l, p) % p, len(S))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cell_invariants_match_factorization_sl2(p):
    for g in sl2_elements(p):
        _check_against_reference(g, 1, p)


def test_cell_invariants_match_factorization_sp4():
    l, p = 2, 3
    taus = [tau_matrix(S, l, p)
            for S in (frozenset(), {0}, {1}, {0, 1})]
    for g in (parabolic_elements(l, p) + taus + [J_element(l, p)]
              + random.Random(5).sample(sp_elements(l, p), 600)):
        _check_against_reference(g, l, p)


def test_weil_index_identities():
    for p in (3, 5, 7):
        w1 = weil_index(p, 1)
        assert abs(w1 ** 2 - legendre(-1, p)) < 1e-9
        for a in range(1, p):
            assert abs(abs(weil_index(p, a)) - 1) < 1e-9
            assert abs(weil_index(p, a) ** -1 * w1 - legendre(a, p)) < 1e-9


def test_weil_index_rejects_zero():
    with pytest.raises(ValueError):
        weil_index(5, 0)


def test_hasse_davenport():
    for p in (3, 5):
        assert hasse_davenport_holds(p)


def test_bruhat_parabolic_and_tau():
    p, l = 3, 2
    for g in parabolic_elements(l, p)[:50]:
        assert bruhat_decompose(g, l, p)[1] == 0
    for S in (frozenset(), frozenset([0]), frozenset([1]), frozenset([0, 1])):
        th, j = bruhat_decompose(tau_matrix(S, l, p), l, p)
        assert j == len(S)
        assert legendre(th, p) == 1


def test_bruhat_lower_left_nonzero_j1():
    # SL2 elements with nonzero lower-left entry lie in the open cell
    for g in sl2_elements(3):
        if g[1][0] % 3:
            assert bruhat_decompose(g, 1, 3)[1] == 1


def test_theta_factorization_independence():
    random.seed(0)
    p = 5
    els = sl2_elements(p)
    pars = parabolic_elements(1, p)
    for _ in range(50):
        g = random.choice(els)
        q = random.choice(pars)
        lhs = legendre(theta(mat_mul(q, g, p), 1, p), p)
        rhs = legendre(det_X(q, 1, p) * theta(g, 1, p), p)
        assert lhs == rhs


def test_canonical_rep_dimension():
    assert OscillatorRep(1, 3).dim == 3
    assert OscillatorRep(1, 5).dim == 5
    assert OscillatorRep(2, 3).dim == 9


def test_homomorphism_exhaustive_sl2():
    for p in (3, 5):
        rep = OscillatorRep(1, p)
        els = sl2_elements(p)
        ops = {g: rep.op(g) for g in els}
        worst = 0.0
        for g in els:
            A = ops[g]
            for h in els:
                worst = max(worst, float(np.abs(
                    A @ ops[h] - ops[mat_mul(g, h, p)]).max()))
        assert worst < 1e-8


def test_homomorphism_sampled_sp4():
    rep = OscillatorRep(2, 3)
    els = sp_elements(2, 3)
    assert len(els) == 51840
    random.seed(1)
    for _ in range(300):
        g, h = random.choice(els), random.choice(els)
        assert np.abs(rep.op(g) @ rep.op(h)
                      - rep.op(mat_mul(g, h, 3))).max() < 1e-8


def test_heisenberg_intertwining():
    random.seed(2)
    for p in (3, 5):
        rep = OscillatorRep(1, p)
        els = sl2_elements(p)
        W = list(product(range(p), repeat=2))
        for _ in range(200):
            g = random.choice(els)
            w = random.choice(W)
            t = random.randrange(p)
            U = rep.op(g)
            lhs = U @ rep.rho(w, t) @ np.linalg.inv(U)
            rhs = rep.rho(rep.heis_transform(g, w), t)
            assert np.abs(lhs - rhs).max() < 1e-8


def test_unitarity():
    for p in (3, 5):
        rep = OscillatorRep(1, p)
        for g in sl2_elements(p):
            U = rep.op(g)
            assert np.abs(U @ U.conj().T - np.eye(rep.dim)).max() < 1e-8


def test_parabolic_identities():
    for l, p in ((1, 3), (1, 5), (2, 3)):
        rep = OscillatorRep(l, p)
        rpt = parabolic_identity_report(rep)
        assert rpt["ok"], rpt


def test_J_scalar_value():
    # the flip operator carries the scalar (-1/q)^l omega(1)^{-l} q^{l/2}
    for l, p in ((1, 5), (1, 3)):
        rep = OscillatorRep(l, p)
        J = J_element(l, p)
        scal = legendre(-1, p) ** l * weil_index(p, 1) ** (-l) * p ** (l / 2)
        assert np.abs(rep.op(J) - scal * rep.M_X(J)).max() < 1e-8


def test_character_norm_is_orbit_count():
    for p in (3, 5):
        rep = OscillatorRep(1, p)
        els = sl2_elements(p)
        cn = sum(abs(np.trace(rep.op(g))) ** 2 for g in els) / len(els)
        assert abs(cn - 2) < 1e-6
