"""Integer matrices over F_p, as int64 stacks.

One elimination runs on a numpy stack of matrices at once, with a
pivot-row counter per matrix: `rank_normal_form_stack` (first nonzero entry
at or below the current row, normalize the pivot row, clear every other
row).  The package reads its rank and pivot columns, which depend on c
alone, and det u = det(c)^{-1}; neither depends on the pivot rule.  No
matrix is inverted here: `symplectic.inverse` reads g^{-1} off the form.
`symplectic_basis` needs no elimination: projecting a basis off a
hyperbolic plane that two of its vectors span leaves the others a basis
of the complement.  Every loop over a stack runs in `chunks`.
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
    (u, pivot, r, det u), u (N, m, m) invertible with u c in reduced row
    echelon form, pivot (N, n) marking its pivot columns and r (N,) the
    rank.  Taking the pivot columns first, in order, and clearing the
    others gives w with u c w = diag(1_r, 0).  det u is det(c)^{-1} when
    c is square of rank m.  A matrix without a pivot in a column keeps its
    rows."""
    m = np.asarray(c, dtype=np.int64) % p
    N, rows, cols = m.shape
    inv_mod_p = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    m = np.concatenate([m, np.broadcast_to(np.eye(rows, dtype=np.int64),
                                           (N, rows, rows))], axis=-1)
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
    return m[:, :, cols:], pivot, r, det


def symplectic_basis(gram, p):
    """T (dim, dim) whose columns (e_1..e_k, f_1..f_k) are a symplectic
    basis over F_p for a nondegenerate alternating Gram matrix:
    T^T gram T = [[0, 1], [-1, 0]] mod p.

    Greedy Gram-Schmidt from the standard basis: e is the first available
    vector, f the next one pairing with it, scaled to beta(e, f) = 1, and
    the other available vectors, projected off the plane (e, f), are a
    basis of its orthogonal complement, where the next step starts."""
    gram = np.asarray(gram, dtype=np.int64) % p
    dim = len(gram)
    avail = np.eye(dim, dtype=np.int64)
    es, fs = [], []
    while len(avail):
        e, pairs = avail[0], avail @ gram @ avail[0] % p
        if not pairs[1:].any():
            raise ValueError("degenerate residue form")
        j = 1 + int(np.argmax(pairs[1:] != 0))
        f = avail[j] * pow(int(-pairs[j]), -1, p) % p
        rest = np.delete(avail, [0, j], axis=0)
        avail = (rest - np.outer(rest @ gram @ f, e)
                 + np.outer(rest @ gram @ e, f)) % p
        es.append(e)
        fs.append(f)
    return np.array(es + fs, dtype=np.int64).reshape(dim, dim).T
