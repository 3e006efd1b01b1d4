"""Integer matrices over F_p and Z/p^k: tuples of rows, or int64 stacks.

Every elimination in the package follows the pivot rule of `gauss_jordan`
(first nonzero entry at or below the current row, normalize the pivot row,
clear every other row).  It fixes the transforms u and w of
`_rank_normal_form`, and through them the theta invariant and hence the
Gauss sums in the reports, so it must not change.  The stacked rank normal
form `rank_normal_form_stack` runs the same rule on a numpy stack of
matrices at once, with a pivot-row counter per matrix, so its u and the
pivot columns of its w are those of `_rank_normal_form`.  `mat_inv_stack`
lifts its u; an inverse mod p^k is unique, so it agrees with `mat_inv`.
"""

from __future__ import annotations

import numpy as np


def gauss_jordan(a, p):
    """Row-reduce a mod p.

    Returns (rref, pivots, u, det): the reduced row echelon form, its pivot
    columns in order, an invertible u with u a = rref (mod p), and det(a)
    mod p (0 unless a is square of full rank).
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    # each row carries its row of u after the first cols entries
    m = [[x % p for x in row] + [int(i == j) for j in range(rows)]
         for i, row in enumerate(a)]
    pivots = []
    det = 1
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][col]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            f = m[i][col]
            if i != r and f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == rows:
            break
    if not (len(pivots) == rows == cols):
        det = 0
    return (tuple(tuple(row[:cols]) for row in m), pivots,
            tuple(tuple(row[cols:]) for row in m), det % p)


def mat_inv(a, p, k=1):
    """Inverse of a square matrix mod p^k: the F_p inverse, Newton-lifted."""
    n = len(a)
    _, _, x, det = gauss_jordan(a, p)
    if not det:
        raise ZeroDivisionError("singular matrix mod p")
    q, target = p, p ** k
    while q < target:
        q = min(q * q, target)
        # x <- x (2I - a x) mod q doubles the precision of x
        ax = mat_mul(a, x, q)
        x = mat_mul(x, [[2 * (i == j) - ax[i][j] for j in range(n)]
                        for i in range(n)], q)
    return x


def mat_inv_stack(a, p, k=1):
    """Inverses mod p^k of a stack of square matrices, an int64 (N, n, n)
    array: u of `rank_normal_form_stack`, the inverse mod p, Newton-lifted."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    target = p ** k
    if n * target ** 2 >= 2 ** 63:
        raise OverflowError(f"int64 products overflow mod {p}^{k}")
    x, _, r, _ = rank_normal_form_stack(a, p)
    if (r < n).any():
        raise ZeroDivisionError("singular matrix mod p")
    q = p
    while q < target:
        q = min(q * q, target)
        x = x @ (2 * np.eye(n, dtype=np.int64) - a @ x % q) % q
    return x


def _rank_normal_form(c, p):
    """Invertible u, w with u c w = diag(1_r, 0); returns (u, w, r)."""
    l = len(c)
    m, pivots, u, _ = gauss_jordan(c, p)
    r = len(pivots)
    # column operations: pivot columns to the front, then clear the rest
    perm = pivots + [j for j in range(l) if j not in pivots]
    w = [[0] * l for _ in range(l)]
    for j, cj in enumerate(perm):
        w[cj][j] = 1
        if j >= r:
            for i in range(r):
                w[perm[i]][j] = -m[i][cj] % p
    return u, tuple(map(tuple, w)), r


def rank_normal_form_stack(c, p):
    """`_rank_normal_form` of every matrix of an int64 (N, l, l) stack:
    (u, pivot, r, det u), pivot (N, l) marking the pivot columns, which
    its w takes first, in order.  det u is det(c)^{-1} when r = l.  A
    matrix without a pivot in a column keeps its rows."""
    m = np.asarray(c, dtype=np.int64) % p
    N, l, _ = m.shape
    inv_mod_p = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    m = np.concatenate([m, np.broadcast_to(np.eye(l, dtype=np.int64),
                                           m.shape)], axis=-1)
    n, r, det = np.arange(N), np.zeros(N, dtype=np.int64), np.ones(N, int)
    pivot = np.zeros((N, l), dtype=bool)
    for col in range(l):
        found = (m[:, :, col] != 0) & (np.arange(l) >= r[:, None])
        pivot[:, col] = has = found.any(axis=1)
        at = np.minimum(r, l - 1)
        piv = np.where(has, found.argmax(axis=1), at)
        top = m[n, piv]
        m[n, piv] = m[n, at]
        scale = np.where(has, inv_mod_p[top[:, col]], 1)
        det = det * np.where(piv == at, scale, p - scale) % p
        m[n, at] = top = top * scale[:, None] % p
        f = m[:, :, col] * has[:, None]
        f[n, at] = 0
        m = (m - f[:, :, None] * top[:, None]) % p
        r += has
    return m[:, :, l:], pivot, r, det


def mat_det(a, p):
    return gauss_jordan(a, p)[3]


def mat_rank(a, p):
    return len(gauss_jordan(a, p)[1])


def mat_mul(a, b, q):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q
                       for col in cols) for row in a)


def mat_vec(a, v, q):
    return tuple(sum(x * y for x, y in zip(row, v)) % q for row in a)


def mat_T(a):
    return tuple(zip(*a))
