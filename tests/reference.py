"""Tuple-of-rows matrices over F_p and the Bruhat factorization built on
them: the references the stacked elimination and the cell invariants are
compared with; points of W as tuples, with the transvection, orbit and
shell loops the int64 point arrays replace; group elements as checked
`GroupElem`s, with the one-element transvection and level reduction, and
`GroupElem` views of a stacked group; the breadth-first closure the
stabilizer chain replaces and the brute-force count of symplectic
matrices; the test-only Heisenberg product and stabilizer
representation, on arrays; the representation `ring` builds on the
faithful model of a standard module, and the character sums over every
group element that its sums over conjugacy classes replace; and the
test-only Gauss-sum, direct-sum and torus-character helpers."""

import math
from collections import Counter
from itertools import product

import numpy as np

from weilrep.linalg import rank_normal_form_stack
from weilrep.oscillator import weil_index, weil_index_quadratic_ext
from weilrep.ring_rep import RingWeilRep, faithful_model, summand_characters
from weilrep.rings import _roots, unit_phase
from weilrep.symplectic import (ClosureCapExceeded, GroupElem, SympModule,
                                _transvections)


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


# -- points of W as tuples: the loops the int64 point arrays replace ---------


def vectors(moduli):
    """Every point of the product of the Z/m, in lexicographic order."""
    return list(product(*[range(m) for m in moduli]))


def quotient_reps(spec, divs):
    """The representatives of W modulo the box with divisor exponents
    divs: coordinate i below p^min(divs_i, a_i)."""
    return vectors([spec.p ** min(c, a) for c, a in zip(divs, spec.exps)])


def quotient_reduce(spec, v, divs):
    """The representative of v modulo the box."""
    return tuple(x % spec.p ** min(c, a)
                 for x, c, a in zip(v, divs, spec.exps))


def box_elements(spec, divs):
    """The elements of the box submodule with divisor exponents divs."""
    ranges = [range(0, m, spec.p ** min(c, a))
              for c, m, a in zip(divs, spec.moduli, spec.exps)]
    return list(product(*ranges))


def add(spec, v, w):
    return tuple((a + b) % m for a, b, m in zip(v, w, spec.moduli))


def sub(spec, v, w):
    return tuple((a - b) % m for a, b, m in zip(v, w, spec.moduli))


def smul(spec, c, v):
    return tuple(c * a % m for a, m in zip(v, spec.moduli))


def form(spec, v, w):
    """beta(v, w) in Z/p^{n+1}, entry by entry."""
    return sum(vi * spec.gram[i][j] * wj for i, vi in enumerate(v)
               for j, wj in enumerate(w)) % spec.modulus


def act(g, v):
    """g v for a `GroupElem` g, row by row."""
    return tuple(sum(x * y for x, y in zip(row, v)) % m
                 for row, m in zip(g.mat, g.spec.moduli))


def tuple_transvection(spec, a, v):
    """w -> w + a*beta(v,w)/p^s*v, column by column, s the gram content."""
    dim = spec.dim
    ps = spec.p ** spec.form_content
    cols = []
    for j in range(dim):
        b = form(spec, v, tuple(int(i == j) for i in range(dim))) // ps
        cols.append([int(i == j) + a * b * v[i] for i in range(dim)])
    return GroupElem(spec, [[cols[j][i] for j in range(dim)]
                            for i in range(dim)])


def reference_orbits(gens, points, act):
    """Orbits by BFS over points, each sorted, ordered by (length, first
    point)."""
    remaining = set(points)
    out = []
    for start in sorted(points):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for v in frontier:
                for g in gens:
                    w = act(g, v)
                    if w not in orbit:
                        orbit.add(w)
                        new.append(w)
            frontier = new
        remaining -= orbit
        out.append(sorted(orbit))
    out.sort(key=lambda o: (len(o), o[0]))
    return out


# frontier rows multiplied by the generators at once in `bfs_closure`, and
# matrices scanned at once by `brute_force_symplectic_count`
CHUNK = 2048


def bfs_closure(spec, gens, cap=2_000_000):
    """Breadth-first closure of the generated subgroup, deduplicated by
    action: elements are int64 matrices with row i reduced mod moduli[i],
    kept as sorted byte keys, their entries as big-endian unsigned bytes,
    whose byte order is the lexicographic order of the matrices.  Returns
    the (N, d, d) stack in that order."""
    d = spec.dim
    mods = np.array(spec.moduli, dtype=np.int64)[:, None]
    entry = np.dtype(np.min_scalar_type(max(spec.moduli) - 1)
                     ).newbyteorder(">")
    key = np.dtype((np.void, d * d * entry.itemsize))

    def keys(mats):
        return np.ascontiguousarray(mats, dtype=entry).reshape(
            len(mats), -1).view(key).ravel()

    def mats(ks):
        return ks.view(entry).reshape(-1, d, d).astype(np.int64)

    gen_mats = np.asarray(gens, dtype=np.int64)
    seen = keys(np.eye(d, dtype=np.int64)[None] % mods)
    frontier = seen
    while len(frontier):
        new = []
        for start in range(0, len(frontier), CHUNK):
            x = mats(frontier[start:start + CHUNK])
            y = x[:, None] @ gen_mats[None] % mods
            ks = np.unique(keys(y.reshape(-1, d, d)))
            pos = np.searchsorted(seen, ks)
            known = seen[np.minimum(pos, len(seen) - 1)] == ks
            seen = np.insert(seen, pos[~known], ks[~known])
            if len(seen) > cap:
                raise ClosureCapExceeded(
                    f"group closure exceeded cap of {cap} elements")
            new.append(ks[~known])
        frontier = np.concatenate(new)
    return mats(seen)


def brute_force_symplectic_count(spec, limit=2_000_000):
    """Count constrained matrices preserving the form and invertible mod p,
    by direct scan in chunks of the stacked matrices."""
    p, d, M = spec.p, spec.dim, spec.modulus
    exps = np.array(spec.exps)
    step = p ** np.maximum(0, exps[:, None] - exps)
    sizes = (p ** exps[:, None] // step).ravel()
    total = math.prod(sizes.tolist())
    if total > limit:
        raise ClosureCapExceeded(
            f"brute-force scan of {total} matrices exceeds limit {limit}")
    G = np.array(spec.gram, dtype=np.int64)
    count = 0
    for start in range(0, total, CHUNK):
        flat = np.arange(start, min(start + CHUNK, total))
        g = np.stack(np.unravel_index(flat, sizes), axis=1).reshape(
            -1, d, d) * step
        g = g[~((g.transpose(0, 2, 1) @ G % M @ g - G) % M).any(axis=(1, 2))]
        count += int((rank_normal_form_stack(g, p)[1] == d).sum())
    return count


def tuple_generates_all_transvections(spec, vecs):
    """Every BFS orbit of <tau_{1,v} : v in vecs> on W meets a multiple of
    some v in vecs, or has a trivial transvection at its first point."""
    gens = [tuple_transvection(spec, 1, v) for v in vecs]
    multiples = {smul(spec, c, v) for v in vecs for c in range(spec.modulus)}
    ident = GroupElem.identity(spec)
    return all(not multiples.isdisjoint(orb)
               or tuple_transvection(spec, 1, orb[0]) == ident
               for orb in reference_orbits(gens, vectors(spec.moduli), act))


def orbit_lists(label, points):
    """Orbit numbers of points as the sorted tuple lists of each orbit, in
    orbit order."""
    return [[tuple(v) for v in points[label == k].tolist()]
            for k in range(label.max() + 1)]


# -- shells: the enumeration that shell_dimensions counts in closed form -----


def shell_counts(p, r, l, n):
    """The number of points of the quotient in each shell, point by point.

    Coordinate i runs over Z/p^{d_i}, with val_i = v_p(x_i) - d_i and
    v_p(0) = 99; s is the least t >= 0 with val + t >= the B* requirement,
    and the point lies in ('E', 0) at s = 0, in ('E1', s - 1) when also
    val + s >= the B requirement, and in ('E', s) otherwise.
    """
    dens = np.array([n] * l + [n + 1] * (2 * r - l))
    b_req = np.array([1] * l + [0] * (2 * r - l))
    bstar_req = np.array([0] * r + [-1] * l + [0] * (r - l))
    total = p ** int(dens.sum())
    chunk = 1 << 16
    counts = Counter()
    for start in range(0, total, chunk):
        x = np.stack(np.unravel_index(np.arange(start, min(start + chunk,
                                                           total)),
                                      p ** dens), axis=1)
        v = np.where(x == 0, 99, 0)
        for e in range(1, n + 2):
            v += (x != 0) & (x % p ** e == 0)
        vals = v - dens
        s = np.full(len(x), -1)
        for t in range(n + 3):
            s[(s < 0) & (vals + t >= bstar_req).all(axis=1)] = t
        assert (s >= 0).all(), "unclassifiable vector"
        e1 = (s > 0) & (vals + s[:, None] >= b_req).all(axis=1)
        counts.update(zip(np.where(e1, "E1", "E").tolist(),
                          (s - e1).tolist()))
    return dict(counts)


# -- test-only group structure, on arrays ------------------------------------


def heis_mul(spec, h1, h2):
    """(w1, t1)(w2, t2) = (w1 + w2, t1 + t2 + beta(w1, w2)/2) for int64
    points w (..., dim) reduced mod the moduli and integers t (...),
    broadcasting."""
    (w1, t1), (w2, t2) = h1, h2
    M = spec.modulus
    beta = (np.asarray(w1) @ np.array(spec.gram) % M * w2).sum(axis=-1) % M
    return ((np.asarray(w1) + w2) % np.array(spec.moduli),
            (t1 + t2 + pow(2, -1, M) * beta) % M)


def psi(rep, c):
    """The central character psi(c) = exp(2 pi i c / M) of a ring model."""
    return unit_phase(c, rep.M)


def sigma_gx(rep, G, x):
    """The stabilizer representation attached to the coset of x.

    Returns (stabilizer elements, operator map g -> matrix on the sigma
    space): sigma(g) rho(g^{-1}x - x, beta(x, g^{-1}x)/2).
    """
    spec = rep.spec
    x = np.asarray(x, dtype=np.int64)
    mods = np.array(spec.moduli)
    quot = spec.p ** np.minimum(rep.iso.uperp_box, spec.exps)
    stab = elems(spec, G.mats[~((G.mats @ x - x) % quot).any(axis=1)])

    def op(g):
        y = np.asarray(g.inverse()) @ x % mods
        t = pow(2, -1, rep.M) * int(x @ np.array(spec.gram) % rep.M @ y)
        return rep.sigma_op(g) @ (psi(rep, t)
                                  * rep.rho_res(rep.iso.residues((y - x)
                                                                 % mods)))

    return stab, op


# -- group elements as checked tuples ----------------------------------------


def transvection(spec, a, v):
    """tau_{a,v} of one point v, as checked by `GroupElem`."""
    v = np.asarray(v, dtype=np.int64).reshape(1, spec.dim)
    return GroupElem(spec, _transvections(spec, v, a)[0].tolist())


def reduce_level(g, target):
    """Functorial reduction of an automorphism to a lower level."""
    if target.p != g.spec.p or target.dim != g.spec.dim:
        raise ValueError("incompatible reduction target")
    if any(te > se for te, se in zip(target.exps, g.spec.exps)):
        raise ValueError("target moduli must divide source moduli")
    return GroupElem(target, [list(row) for row in g.mat])


def elems(spec, mats):
    """The `GroupElem` of each matrix of a stack, in order."""
    return [GroupElem(spec, m, check=False) for m in np.asarray(mats).tolist()]


# -- test-only Gauss-sum, direct-sum and torus-character helpers -------------


def build_ring_rep(spec):
    """The representation that `ring` builds for a standard module: the
    canonical one on its faithful model."""
    level, lifted = faithful_model(spec.r, spec.l, spec.n)
    return RingWeilRep(SympModule.standard(spec.p, spec.r, spec.l, level)
                       if lifted else spec)


def per_element_norm(chi):
    """(1/|G|) sum |chi(g)|^2 of a character given by its values on every
    element of G, with its deviation from the nearest integer."""
    val = float(np.sum(np.abs(chi) ** 2)) / len(chi)
    return int(round(val)), abs(val - round(val))


def per_element_sums(rep, group, summands):
    """The Gram matrix (1/|G|) sum_g chi_i(g) chi_j(g)* of the summand
    characters and the `per_element_norm` of their sum, tr S(g), each
    summed over every element of the group."""
    chars = summand_characters(rep, group.mats, summands)
    return (chars @ chars.conj().T / len(group),
            per_element_norm(chars.sum(axis=0)))


def hasse_davenport_holds(p, tol=1e-9):
    """-omega'(1) = (-omega(1))^2 for the quadratic extension."""
    w1 = weil_index(p, 1)
    wp = weil_index_quadratic_ext(p)
    return abs(-wp - (-w1) ** 2) <= tol


def embed_pair(gA, gB):
    """diag(gA, gB) of two square matrices."""
    gA, gB = np.asarray(gA), np.asarray(gB)
    out = np.zeros((len(gA) + len(gB),) * 2, dtype=np.int64)
    out[:len(gA), :len(gA)], out[len(gA):, len(gA):] = gA, gB
    return out


def tensor_intertwiner(repAB, repA, repB):
    """Permutation intertwiner from H_A (x) H_B onto the direct-sum model."""
    if repAB.dim != repA.dim * repB.dim:
        raise ValueError("dimension mismatch")
    # row (a, b, sa, sb) of the sum: coset (a, b) is coset a * |B| + b and
    # the residue basis is the tensor basis; column (a, sa, b, sb)
    nA, nB = repA.heis.dim, repB.heis.dim
    cols = np.arange(repAB.dim).reshape(nA, repA.sdim, nB, repB.sdim)
    out = np.zeros((repAB.dim, repAB.dim), dtype=complex)
    out[np.arange(repAB.dim), cols.transpose(0, 2, 1, 3).ravel()] = 1.0
    return out


def chi_blj(ctx, b, lam, j):
    """The congruence-subgroup character cut out by the trace form, as its
    values on C (meaningful on its domain).

    Unramified: defined on T_j for j < lam <= 3j, conductor lam iff b is a
    unit; value psi(-b*d*eta_t / (2 p^lam)).  Ramified: defined on
    T_{2j+1} for j < lam <= 3j+1, conductor 2*lam; value
    psi((-1)^lam * b * eta_t / (2 p^lam)).
    """
    coeff, mod = ctx._blj_coeff(b, lam, j)
    return np.array(_roots(mod))[coeff * ctx.eta % mod]


def char_order(chi):
    """The order of a torus character in the character group."""
    o1 = chi.ctx.o1 // math.gcd(chi.ctx.o1, chi.a) if chi.a else 1
    o2 = chi.ctx.o2 // math.gcd(chi.ctx.o2, chi.b) if chi.b else 1
    return o1 * o2 // math.gcd(o1, o2)
