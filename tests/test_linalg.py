"""Property tests of the stacked modular-matrix layer on random small
matrices, against the tuple-of-rows reference elimination."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (_rank_normal_form, gauss_jordan, mat_det, mat_mul,
                       mat_rank, mat_T)
from weilrep.linalg import rank_normal_form_stack, symplectic_basis


@st.composite
def square(draw):
    """(a, p) with a square of size 1-4 and entries mod p."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    a = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    return a, p


def _det_cofactor(a):
    """Integer determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j]
               * _det_cofactor([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


@settings(deadline=None)
@given(square(), st.data())
def test_det_matches_cofactor_and_is_multiplicative(case, data):
    """The reference determinant, and det u = det(a)^{-1} of the stacked
    elimination, against cofactor expansion."""
    a, p = case
    n = len(a)
    b = tuple(tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
              for _ in range(n))
    assert mat_det(a, p) == _det_cofactor(a) % p
    assert mat_det(mat_mul(a, b, p), p) == mat_det(a, p) * mat_det(b, p) % p
    assert (mat_rank(a, p) == n) == (mat_det(a, p) != 0)
    _, _, r, det_u = rank_normal_form_stack([a], p)
    assert (r[0] == n) == (mat_det(a, p) != 0)
    if r[0] == n:
        assert det_u[0] * _det_cofactor(a) % p == 1


@settings(deadline=None)
@given(square())
def test_gauss_jordan_transform(case):
    a, p = case
    rref, pivots, u, _ = gauss_jordan(a, p)
    assert mat_mul(u, a, p) == rref
    assert mat_det(u, p) != 0
    assert mat_rank(a, p) == mat_rank(mat_T(a), p) == len(pivots)


@settings(deadline=None)
@given(square())
def test_rank_normal_form(case):
    c, p = case
    u, w, r = _rank_normal_form(c, p)
    n = len(c)
    target = tuple(tuple(int(i == j and i < r) for j in range(n))
                   for i in range(n))
    assert r == mat_rank(c, p)
    assert mat_mul(u, mat_mul(c, w, p), p) == target
    assert mat_det(u, p) and mat_det(w, p)


@st.composite
def matrix_stack(draw, square=True):
    """(stack, p): 1-8 matrices of one shape mod p, 1-4 rows and columns
    (equal when square), half the entries zero, so that every rank
    occurs."""
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    mat = st.tuples(*[st.tuples(*[entry] * n)] * m)
    return draw(st.lists(mat, min_size=1, max_size=8)), p


@settings(deadline=None)
@given(matrix_stack())
def test_stacked_rank_normal_form_matches_per_matrix(case):
    stack, p = case
    u, pivot, r, det = rank_normal_form_stack(np.array(stack), p)
    for c, ui, pi, ri, di in zip(stack, u.tolist(), pivot.tolist(),
                                 r.tolist(), det.tolist()):
        U, W, R = _rank_normal_form(c, p)
        assert tuple(map(tuple, ui)) == U and ri == R
        # w takes the pivot columns first, in order
        assert [W[c][i] for i, c in enumerate(np.flatnonzero(pi))] == [1] * R
        assert di == mat_det(U, p)


@settings(deadline=None)
@given(matrix_stack(square=False))
def test_rectangular_rank_normal_form_matches_gauss_jordan(case):
    """u, rank and pivot columns of (N, m, n) stacks."""
    stack, p = case
    u, pivot, r, _ = rank_normal_form_stack(np.array(stack), p)
    for c, ui, pi, ri in zip(stack, u.tolist(), pivot, r.tolist()):
        _, pivots, U, _ = gauss_jordan(c, p)
        assert tuple(map(tuple, ui)) == U
        assert ri == len(pivots) and np.flatnonzero(pi).tolist() == pivots


@st.composite
def alternating_form(draw):
    """(gram, p): a nondegenerate alternating form over F_p, dim 2-6."""
    p = draw(st.sampled_from([3, 5, 7]))
    dim = 2 * draw(st.integers(1, 3))
    gram = np.zeros((dim, dim), dtype=np.int64)
    gram[np.triu_indices(dim, 1)] = draw(st.lists(
        st.integers(0, p - 1), min_size=dim * (dim - 1) // 2,
        max_size=dim * (dim - 1) // 2))
    gram = (gram - gram.T) % p
    assume(mat_rank(gram.tolist(), p) == dim)
    return gram, p


@settings(deadline=None)
@given(alternating_form())
def test_symplectic_basis_is_symplectic(case):
    gram, p = case
    T = symplectic_basis(gram, p)
    k = len(gram) // 2
    J = np.block([[np.zeros((k, k), int), np.eye(k, dtype=int)],
                  [-np.eye(k, dtype=int), np.zeros((k, k), int)]])
    assert (T.T @ gram @ T % p == J % p).all()


def test_symplectic_basis_rejects_a_degenerate_form():
    gram = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        symplectic_basis(gram, 3)
    assert symplectic_basis(np.zeros((0, 0), dtype=np.int64), 3).shape \
        == (0, 0)
