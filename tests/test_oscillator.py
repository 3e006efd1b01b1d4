import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from elements import parabolic_elements, sl2_elements, sp_elements
from reference import (det_X, hasse_davenport_holds, mat_det, mat_mul,
                       reference_bruhat, reference_invariants, tau_matrix)
from weilrep import linalg, oscillator
from weilrep.oscillator import (J_element, OscillatorRep, bruhat_decompose,
                                cell_invariants, parabolic_identity_report,
                                siegel_parabolic, weil_index)
from weilrep.rings import legendre
from weilrep.symplectic import (StabilizerChain, SympModule, _lex_keys,
                                inverse, symplectic_group,
                                transvection_generators)


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
    600-element sample; as one stack they fill more than two chunks of
    `ops`."""
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


@pytest.fixture(scope="module")
def sp4():
    """The representation of Sp(4, F_3) and its 51,840 elements."""
    return (OscillatorRep(2, 3),
            symplectic_group(SympModule.standard(3, 2, 0, 0)))


def count_eliminations(monkeypatch):
    """The stack sizes of the eliminations `oscillator` runs from now on."""
    calls = []

    def counted(c, p):
        calls.append(len(c))
        return stacked(c, p)
    stacked = oscillator.rank_normal_form_stack
    monkeypatch.setattr(oscillator, "rank_normal_form_stack", counted)
    return calls


def test_stacked_path_runs_no_per_element_elimination(monkeypatch, sp4):
    """ops eliminates once for C and once for K on each chunk of
    `_chunks`, each elimination on the whole chunk."""
    rep, G = sp4
    mats = G.mats[random.Random(6).sample(range(len(G)), 1000)]
    sizes = [len(chunk) for chunk, _ in rep._chunks(mats)]
    calls = count_eliminations(monkeypatch)
    S = rep.ops(mats)
    assert len(sizes) > 2 and calls == [n for n in sizes for _ in "CK"]
    assert np.abs(S @ S.conj().swapaxes(1, 2) - np.eye(rep.dim)).max() < 1e-12
    assert bruhat_decompose(mats[0], 2, 3)[1] == np.linalg.matrix_rank(
        mats[0][2:, :2])


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_ops_builds_each_chunk_in_one_pass(l, p, monkeypatch):
    """On a drawn stack that crosses two chunk boundaries, `ops` runs
    `_chunks` of at most `linalg.BUDGET` dense entries, with one stacked
    elimination pair per chunk; each S(g) at a boundary is its one-element
    `op`, bit for bit."""
    rep = OscillatorRep(l, p)
    spec = SympModule.standard(p, l, 0, 0)
    chain = StabilizerChain(spec, transvection_generators(spec))
    n = next(linalg.chunks(1 << 20, rep.dim ** 2)).stop
    assert n * rep.dim ** 2 <= linalg.BUDGET < (n + 1) * rep.dim ** 2
    idx = np.random.default_rng(l * p).integers(0, chain.order(), 2 * n + 7)
    mats = chain.element(idx)
    assert [len(chunk) for chunk, _ in rep._chunks(mats)] == [n, n, 7]
    calls = count_eliminations(monkeypatch)
    S = rep.ops(mats)
    assert calls == [n, n, n, n, 7, 7]
    assert S.shape == (len(mats), rep.dim, rep.dim)
    for i in (n - 1, n, 2 * n - 1, 2 * n):
        assert np.array_equal(rep.op(mats[i]), S[i])
    empty = np.empty((0, 2 * l, 2 * l), dtype=np.int64)
    assert rep.ops(empty).shape == (0, rep.dim, rep.dim)


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_M_X_rows_are_the_coset_rows_times_a_phase(l, p):
    """For every g, g_c the first element of the group with g's bottom
    row (C, D): g J^T g_c^T J = [[1, B], [0, 1]] in integers mod p with B
    symmetric, and M_X(g) = diag(psi(yBy/2)) M_X(g_c), y over the basis."""
    rep = OscillatorRep(l, p)
    spec = SympModule.standard(p, l, 0, 0)
    mats = symplectic_group(spec).mats
    gram = np.array(spec.gram, dtype=np.int64)
    _, first, which = np.unique(mats[:, l:].reshape(len(mats), -1), axis=0,
                                return_index=True, return_inverse=True)
    reps = mats[first[which.ravel()]]
    n = mats @ gram.T @ reps.swapaxes(1, 2) @ gram % p
    one = np.eye(l, dtype=np.int64)
    assert (n[:, :l, :l] == one).all() and (n[:, l:, l:] == one).all()
    assert not n[:, l:, :l].any()
    B = n[:, :l, l:]
    assert (B == B.swapaxes(1, 2)).all()
    ys = rep._ys
    yBy = np.einsum("ya,nab,yb->ny", ys, B, ys)
    phase = np.exp(2j * np.pi * (pow(2, -1, p) * yBy % p) / p)
    for start in range(0, len(mats), 4096):
        part = slice(start, start + 4096)
        lhs = rep._M_X(mats[part] % p)
        rhs = phase[part, :, None] * rep._M_X(reps[part] % p)
        assert np.abs(lhs - rhs).max() < 1e-12


def siegel_factors(l, p):
    """The group of the standard module and its factors G = R N, read off
    the stabilizer chain."""
    spec = SympModule.standard(p, l, 0, 0)
    chain = StabilizerChain(spec, transvection_generators(spec))
    return (symplectic_group(spec).mats, chain.elements(0, l),
            chain.elements(l, 2 * l))


def dense_traces(rep, mats):
    """tr S(g) from the dense `ops`, 4,096 elements at a time."""
    return np.concatenate([np.trace(rep.ops(mats[i:i + 4096]), axis1=1,
                                    axis2=2)
                           for i in range(0, len(mats), 4096)])


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_character_norm_over_cosets_is_the_per_element_sum(l, p):
    """(1/|G|) sum_g |tr S(g)|^2 from the (|R|, |N|) product of coset
    diagonals and phases equals the mean of |tr|^2 of the dense `ops`
    over every element."""
    rep = OscillatorRep(l, p)
    mats, R, N = siegel_factors(l, p)
    whole = float(np.mean(np.abs(dense_traces(rep, mats)) ** 2))
    assert abs(rep.character_norm(R, N) - whole) < 1e-12


@pytest.mark.parametrize("l, p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_siegel_parabolic_is_the_C_zero_elements(l, p):
    mats, R, N = siegel_factors(l, p)
    par = siegel_parabolic(R, N, p)
    keys = _lex_keys(par, (p,) * (2 * l))
    assert len(np.unique(keys)) == len(par)
    C0 = mats[~mats[:, l:, :l].any(axis=(1, 2))]
    assert (np.sort(keys) == np.sort(_lex_keys(C0, (p,) * (2 * l)))).all()


def test_inverse_transpose_reads_the_blocks(sp4):
    """The transpose of `inverse` is J^T g J = [[D, -C], [-B, A]] off the
    blocks of g, for the group and for integer matrices that are not
    symplectic; it is g^{-T} on the group."""
    _, G = sp4
    rng = np.random.default_rng(2)
    for l, p in ((1, 5), (2, 3), (3, 7)):
        spec = SympModule.standard(p, l, 0, 0)
        gram = np.array(spec.gram, dtype=np.int64)
        g = rng.integers(-50, 50, (200, 2 * l, 2 * l))
        assert (inverse(spec, g).swapaxes(1, 2)
                == gram.T @ g @ gram % p).all()
    spec = SympModule.standard(3, 2, 0, 0)
    gram = np.array(spec.gram, dtype=np.int64)
    gt = inverse(spec, G.mats).swapaxes(1, 2)
    assert (gt == gram.T @ G.mats @ gram % 3).all()
    assert (G.mats.swapaxes(1, 2) @ gt % 3 == np.eye(4, dtype=int)).all()


def test_character_norm_streams_its_trace_products():
    """On Sp(4, F_3) = R N, `character_norm` builds the 1,920 x 27 traces
    of D F^T a chunk of R at a time: its peak stays under 1.5 MiB (one
    unchunked pass peaks at 1.69 MiB)."""
    rep = OscillatorRep(2, 3)
    spec = SympModule.standard(3, 2, 0, 0)
    chain = StabilizerChain(spec, transvection_generators(spec))
    R, N = chain.elements(0, 2), chain.elements(2, 4)
    rep.character_norm(R[:1], N)
    tracemalloc.start()
    try:
        rep.character_norm(R, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


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
        mats = symplectic_group(SympModule.standard(p, l, 0, 0)).mats
        rpt = parabolic_identity_report(rep, mats)
        assert rpt["ok"], rpt
        assert 0 <= rpt["parabolic_deviation"] <= 1e-8


def test_parabolic_deviation_is_the_two_build_deviation():
    """S(p) = m(p) M_X(p) from one M_X build deviates from (det A / p)
    M_X(p) by the same bits as `ops` against a second build of M_X."""
    for l, p in ((1, 5), (2, 3)):
        rep = OscillatorRep(l, p)
        mats = symplectic_group(SympModule.standard(p, l, 0, 0)).mats
        par = mats[~mats[:, l:, :l].any(axis=(1, 2))]
        zeta = np.array([legendre(mat_det(g[:l, :l].tolist(), p), p)
                         for g in par])
        dev = np.abs(rep.ops(par) - zeta[:, None, None] * rep._M_X(par))
        assert parabolic_identity_report(rep, mats)["parabolic_deviation"] \
            == float(dev.max())


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
