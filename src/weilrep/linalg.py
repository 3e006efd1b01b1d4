"""Integer matrices over F_p, as int64 stacks.

One elimination runs on a numpy stack of matrices at once, with a
pivot-row counter per matrix: `rank_normal_form_stack` (first nonzero entry
at or below the current row, normalize the pivot row, clear every other
row).  It returns the rank and pivot columns, which depend on c alone, and
det u = det(c)^{-1} of the row operations u, tracked as they run; none of
these depends on the pivot rule, and u itself is never formed.  No
matrix is inverted here: `symplectic.inverse` reads g^{-1} off the form.
Every loop over a stack runs in `chunks`.
"""

from __future__ import annotations

import numpy as np

# the entries of any one work array of a chunked loop
BUDGET = 1 << 14


def chunks(n, width):
    """Slices that cover range(n) in order, BUDGET // width items each (at
    least one), for a loop that builds width entries per item."""
    step = max(1, BUDGET // width)
    return (slice(start, start + step) for start in range(0, n, step))


def rank_normal_form_stack(c, p):
    """Row reduction mod p of every matrix of an int64 (N, m, n) stack:
    (pivot, r, det u), for the invertible u (N, m, m) with u c in reduced
    row echelon form, pivot (N, n) marking its pivot columns and r (N,)
    the rank.  Taking the pivot columns first, in order, and clearing the
    others gives w with u c w = diag(1_r, 0).  det u is det(c)^{-1} when
    c is square of rank m.  A matrix without a pivot in a column keeps its
    rows."""
    m = np.asarray(c, dtype=np.int64) % p
    N, rows, cols = m.shape
    inv_mod_p = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    n, r, det = np.arange(N), np.zeros(N, dtype=np.int64), np.ones(N, int)
    pivot = np.zeros((N, cols), dtype=bool)
    for col in range(cols):
        found = (m[:, :, col] != 0) & (np.arange(rows) >= r[:, None])
        pivot[:, col] = has = found.any(axis=1)
        at = np.minimum(r, rows - 1)
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
    return pivot, r, det

