import random
from itertools import product

import numpy as np
import pytest

from elements import parabolic_elements, sl2_elements, sp_elements
from reference import (det_X, hasse_davenport_holds, mat_mul,
                       reference_bruhat, reference_invariants, tau_matrix)
from weilrep import oscillator
from weilrep.oscillator import (J_element, OscillatorRep, bruhat_decompose,
                                cell_invariants, parabolic_identity_report,
                                weil_index)
from weilrep.rings import legendre
from weilrep.symplectic import SympModule, symplectic_group


def _check_against_reference(g, l, p):
    p1, S, p2 = reference_bruhat(g, l, p)
    assert mat_mul(p1, mat_mul(tau_matrix(S, l, p), p2, p), p) == g
    assert bruhat_decompose(g, l, p) == (
        det_X(p1, l, p) * det_X(p2, l, p) % p, len(S))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cell_invariants_match_factorization_sl2(p):
    for g in sl2_elements(p):
        _check_against_reference(g, 1, p)


def sp4_cases():
    """The parabolic elements of Sp(4, F_3), the four tau_S, J and a
    600-element sample; as one stack they cross a 512-element chunk."""
    l, p = 2, 3
    taus = [tau_matrix(S, l, p)
            for S in (frozenset(), {0}, {1}, {0, 1})]
    return (parabolic_elements(l, p) + taus + [J_element(l, p)]
            + random.Random(5).sample(sp_elements(l, p), 600))


def test_cell_invariants_match_factorization_sp4():
    for g in sp4_cases():
        _check_against_reference(g, 2, 3)


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_stacked_cell_invariants_match_factorization(l, p):
    """The whole set as one stack, mixing every rank of C."""
    els = sl2_elements(p) if l == 1 else sp4_cases()
    th, j = cell_invariants(np.array(els), l, p)
    assert list(zip(th.tolist(), j.tolist())) == \
        [reference_invariants(g, l, p) for g in els]


def test_stacked_path_runs_no_per_element_elimination(monkeypatch):
    """ops eliminates once for C and once for K per 512-element chunk."""
    rep = OscillatorRep(2, 3)
    G = symplectic_group(SympModule.standard(3, 2, 0, 0))
    mats = G.mats[random.Random(6).sample(range(len(G)), 1000)]
    calls = []

    def counted(c, p):
        calls.append(len(c))
        return stacked(c, p)
    stacked = oscillator.rank_normal_form_stack
    monkeypatch.setattr(oscillator, "rank_normal_form_stack", counted)
    S = rep.ops(mats)
    assert calls == [512, 512, 488, 488]
    assert np.abs(S @ S.conj().swapaxes(1, 2) - np.eye(rep.dim)).max() < 1e-12
    assert bruhat_decompose(mats[0], 2, 3)[1] == np.linalg.matrix_rank(
        mats[0][2:, :2])


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
        lhs = legendre(bruhat_decompose(mat_mul(q, g, p), 1, p)[0], p)
        rhs = legendre(det_X(q, 1, p) * bruhat_decompose(g, 1, p)[0], p)
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
            rhs = rep.rho(np.asarray(g) @ w % p, t)
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
