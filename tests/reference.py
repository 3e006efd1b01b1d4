"""Tuple-of-rows matrices over F_p and the Bruhat factorization built on
them: the references the stacked elimination and the cell invariants are
compared with."""


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


def mat_inv(a, p):
    """Inverse of a square matrix mod p: the u of `gauss_jordan`."""
    _, _, u, det = gauss_jordan(a, p)
    if not det:
        raise ZeroDivisionError("singular matrix mod p")
    return u


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


# -- the Bruhat factorization that the cell invariants replace ----------------


def det_X(par, l, p):
    """Determinant of the X-block of a parabolic element."""
    return mat_det(tuple(row[:l] for row in par[:l]), p)


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


def reference_invariants(g, l, p):
    """(theta, j) read off the reference factorization g = p1 tau_S p2."""
    p1, S, p2 = reference_bruhat(g, l, p)
    return det_X(p1, l, p) * det_X(p2, l, p) % p, len(S)
