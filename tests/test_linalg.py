"""Property tests of the modular-matrix layer on random small matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilrep.linalg import (_rank_normal_form, gauss_jordan, mat_det,
                            mat_inv, mat_inv_stack, mat_mul, mat_rank, mat_T)


@st.composite
def square(draw, k_max=3):
    """(a, p, k) with a square of size 1-4 and entries mod p^k."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, p ** k - 1)
    a = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    return a, p, k


def _eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _det_cofactor(a):
    """Integer determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j]
               * _det_cofactor([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


@settings(deadline=None)
@given(square())
def test_inverse_exists_exactly_for_units(case):
    a, p, k = case
    if mat_det(a, p):
        inv = mat_inv(a, p, k)
        assert mat_mul(inv, a, p ** k) == _eye(len(a))
        assert mat_mul(a, inv, p ** k) == _eye(len(a))
    else:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a, p, k)


@st.composite
def unit_stack(draw):
    """(stack, p, k): 1-6 square matrices of one size, invertible mod p."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, p ** k - 1)
    mat = st.tuples(*[st.tuples(*[entry] * n)] * n).filter(
        lambda a: mat_det(a, p))
    return draw(st.lists(mat, min_size=1, max_size=6)), p, k


@settings(deadline=None)
@given(unit_stack())
def test_batched_inverse_matches_mat_inv(case):
    stack, p, k = case
    inv = mat_inv_stack(np.array(stack), p, k)
    assert [tuple(map(tuple, x)) for x in inv.tolist()] == \
        [mat_inv(a, p, k) for a in stack]


def test_batched_inverse_rejects_a_singular_matrix():
    stack = np.array([[[1, 0], [0, 1]], [[1, 2], [2, 4]]])
    with pytest.raises(ZeroDivisionError):
        mat_inv_stack(stack, 3, 2)


@settings(deadline=None)
@given(square(k_max=1), st.data())
def test_det_matches_cofactor_and_is_multiplicative(case, data):
    a, p, _ = case
    n = len(a)
    b = tuple(tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
              for _ in range(n))
    assert mat_det(a, p) == _det_cofactor(a) % p
    assert mat_det(mat_mul(a, b, p), p) == mat_det(a, p) * mat_det(b, p) % p
    assert (mat_rank(a, p) == n) == (mat_det(a, p) != 0)


@settings(deadline=None)
@given(square(k_max=1))
def test_gauss_jordan_transform(case):
    a, p, _ = case
    rref, pivots, u, _ = gauss_jordan(a, p)
    assert mat_mul(u, a, p) == rref
    assert mat_det(u, p) != 0
    assert mat_rank(a, p) == mat_rank(mat_T(a), p) == len(pivots)


@settings(deadline=None)
@given(square(k_max=1))
def test_rank_normal_form(case):
    c, p, _ = case
    u, w, r = _rank_normal_form(c, p)
    n = len(c)
    target = tuple(tuple(int(i == j and i < r) for j in range(n))
                   for i in range(n))
    assert r == mat_rank(c, p)
    assert mat_mul(u, mat_mul(c, w, p), p) == target
    assert mat_det(u, p) and mat_det(w, p)
