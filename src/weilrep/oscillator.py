"""The canonical Weil representation of Sp(2l, F_p), p odd.

The model lives on functions indexed by Y-cosets for the standard polar
decomposition W = X + Y; operators are S(g) = m(g) p^{j(g)/2} M_X(g) with
m built from the Weil index (normalized quadratic Gauss sum) and the theta
invariant of a Bruhat factorization g = p1 tau_S p2 through the Siegel
parabolic.  The scalar normalization makes g -> S(g) a genuine homomorphism
splitting the metaplectic extension.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import product

import numpy as np

from .heisenberg import SchrodingerModel, standard_selfdual
from .linalg import (gauss_jordan, mat_det, mat_inv, mat_mul, mat_rank,
                     mat_T, mat_vec)
from .rings import QuadExt, legendre, unit_phase
from .symplectic import SympModule, symplectic_group


def _blocks(g, l):
    a = tuple(tuple(g[i][j] for j in range(l)) for i in range(l))
    b = tuple(tuple(g[i][j + l] for j in range(l)) for i in range(l))
    c = tuple(tuple(g[i + l][j] for j in range(l)) for i in range(l))
    d = tuple(tuple(g[i + l][j + l] for j in range(l)) for i in range(l))
    return a, b, c, d


def _from_blocks(a, b, c, d, p):
    l = len(a)
    out = []
    for i in range(l):
        out.append(tuple(list(a[i]) + list(b[i])))
    for i in range(l):
        out.append(tuple(list(c[i]) + list(d[i])))
    return tuple(tuple(x % p for x in row) for row in out)


def levi(a, p):
    """diag(a, (a^T)^{-1}) in the Siegel parabolic."""
    l = len(a)
    ait = mat_T(mat_inv(a, p))
    zero = tuple(tuple(0 for _ in range(l)) for _ in range(l))
    return _from_blocks(a, zero, zero, ait, p)


def unipotent(b, p):
    """[[I, b],[0, I]] with b symmetric."""
    l = len(b)
    eye = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    zero = tuple(tuple(0 for _ in range(l)) for _ in range(l))
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


# -- Bruhat factorization g = p1 tau_S p2 ------------------------------------


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


def bruhat_decompose(g, l, p):
    """Factor g = p1 tau_S p2 with p1, p2 in the Siegel parabolic.

    Returns (p1, S, p2, j) with j = |S| = rank of the lower-left block
    = l - dim(X cap gX).
    """
    g = tuple(tuple(x % p for x in row) for row in g)
    _, _, c, _ = _blocks(g, l)
    u, w, r = _rank_normal_form(c, p)
    a1 = mat_T(mat_inv(u, p))
    a2 = w
    g2 = mat_mul(levi(a1, p), mat_mul(g, levi(a2, p), p), p)
    a, _, c2, _ = _blocks(g2, l)
    E = tuple(tuple(int(i == j and i < r) for j in range(l)) for i in range(l))
    if c2 != E:
        raise AssertionError("rank normal form failed")
    # symplecticity forces a12 = 0 and a11 symmetric w.r.t. the r-split
    bprime = [[0] * l for _ in range(l)]
    for i in range(r):
        for j in range(r):
            bprime[i][j] = (-a[i][j]) % p
    for i in range(r, l):
        for j in range(r):
            bprime[i][j] = (-a[i][j]) % p
            bprime[j][i] = (-a[i][j]) % p
    bprime = tuple(tuple(row) for row in bprime)
    g3 = mat_mul(unipotent(bprime, p), g2, p)
    S = frozenset(range(r))
    tau = tau_matrix(S, l, p)
    h = mat_mul(mat_inv(tau, p), g3, p)
    _, _, ch, _ = _blocks(h, l)
    if any(x % p for row in ch for x in row):
        raise AssertionError("Bruhat reduction left a nonzero c-block")
    p1 = mat_mul(levi(mat_inv(a1, p), p), unipotent(
        tuple(tuple((-x) % p for x in row) for row in bprime), p), p)
    p2 = mat_mul(h, levi(mat_inv(a2, p), p), p)
    assert mat_mul(p1, mat_mul(tau, p2, p), p) == g
    return p1, S, p2, r


def det_X(par, l, p):
    """Determinant of the X-block of a parabolic element."""
    a = tuple(tuple(par[i][j] for j in range(l)) for i in range(l))
    return mat_det(a, p)


def theta(g, l, p) -> int:
    """Square class (as a canonical unit) of the Rao-type invariant."""
    p1, _, p2, _ = bruhat_decompose(g, l, p)
    return det_X(p1, l, p) * det_X(p2, l, p) % p


def j_invariant(g, l, p) -> int:
    _, _, c, _ = _blocks(g, l)
    return mat_rank(c, p)


# -- Weil index --------------------------------------------------------------


@lru_cache(maxsize=None)
def weil_index(p: int, a: int, scale: int = 1) -> complex:
    """Normalized Gauss sum: q^{-1/2} sum_t eta(a t^2), eta = (1/2)psi-bar."""
    if a % p == 0:
        raise ValueError("Weil index needs a unit argument")
    half = pow(2, -1, p)
    s = sum(unit_phase(scale * half * a * t * t, p) for t in range(p))
    return s / cmath.sqrt(p)


def weil_index_quadratic_ext(p: int, scale: int = 1, d: int | None = None) -> complex:
    """omega'(1) for the residue quadratic extension F_{p^2}."""
    ext = QuadExt(p, "unramified", 1, d=d)
    half = pow(2, -1, p)
    total = 0
    for z in ext.elements():
        z2 = ext.mul(z, z)
        total += unit_phase(scale * half * ext.trace(z2), p)
    return total / p


def hasse_davenport_holds(p: int, scale: int = 1, tol: float = 1e-9) -> bool:
    """-omega'(1) = (-omega(1))^2 for the quadratic extension."""
    w1 = weil_index(p, 1, scale)
    wp = weil_index_quadratic_ext(p, scale)
    return abs(-wp - (-w1) ** 2) <= tol


# -- element enumeration -----------------------------------------------------


def sl2_elements(p):
    out = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            out.append(((a, b), (c, d)))
    return out


@lru_cache(maxsize=None)
def sp_elements(l, p):
    """All of Sp(2l, F_p) for desk-scale parameters."""
    if l == 1:
        return tuple(sl2_elements(p))
    spec = SympModule.standard(p, l, 0, 0)
    G = symplectic_group(spec, cap=2_000_000)
    return tuple(g.mat for g in G)


# -- the canonical representation --------------------------------------------


class OscillatorRep:
    """Canonical Weil representation of Sp(2l, F_p) on p^l basis functions.

    Basis functions are indexed by Y = F_p^l in lexicographic order; a
    function is determined by its values on (0, y) through
    phi(x, y) = psi(-x.y/2) phi(0, y).
    """

    def __init__(self, l: int, p: int, scale: int = 1):
        self.l = l
        self.p = p
        self.scale = scale % p
        if self.scale % p == 0:
            raise ValueError("character scale must be a unit")
        self.dim = p ** l
        self.ys = [y for y in product(range(p), repeat=l)]
        self.yindex = {y: i for i, y in enumerate(self.ys)}
        self.half = pow(2, -1, p)
        self._op_cache: dict = {}
        self._omega1 = weil_index(p, 1, self.scale)
        # the model polarized by X: its coset representatives (0, y) run
        # over Y in the order of self.ys, so rho acts on the same basis
        spec = SympModule.standard(p, l, 0, 0)
        self.heis = SchrodingerModel(spec, standard_selfdual(spec), self.scale)

    def psi(self, c: int) -> complex:
        return unit_phase(self.scale * c, self.p)

    def _split(self, w):
        return w[:self.l], w[self.l:]

    def _basis_eval(self, w):
        """(index, phase) with phi(w) = phase * phi(0, y_index)."""
        x, y = self._split(w)
        dot = sum(a * b for a, b in zip(x, y))
        return self.yindex[y], self.psi(-self.half * dot)

    def M_X(self, g) -> np.ndarray:
        p, l = self.p, self.l
        ginv = mat_inv(g, p)
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for jrow, yj in enumerate(self.ys):
            for x in product(range(p), repeat=l):
                w = tuple(x) + yj
                v = mat_vec(ginv, w, p)
                i, ph = self._basis_eval(v)
                dot = sum(a * b for a, b in zip(x, yj))
                op[jrow, i] += self.psi(self.half * dot) * ph
        return op / (p ** l)

    def m_scalar(self, g) -> complex:
        th = theta(g, self.l, self.p)
        j = j_invariant(g, self.l, self.p)
        return (1.0 / weil_index(self.p, th, self.scale)) * self._omega1 ** (1 - j)

    def op(self, g) -> np.ndarray:
        g = tuple(tuple(x % self.p for x in row) for row in g)
        cached = self._op_cache.get(g)
        if cached is not None:
            return cached
        j = j_invariant(g, self.l, self.p)
        out = self.m_scalar(g) * (self.p ** (j / 2.0)) * self.M_X(g)
        self._op_cache[g] = out
        return out

    def rho(self, w, t: int = 0) -> np.ndarray:
        """Heisenberg operator on the same basis (central character psi)."""
        return self.heis.rho(w, t)

    def heis_transform(self, g, w):
        """g.(w,t) = (gw, t)."""
        return mat_vec(g, w, self.p)


def parabolic_elements(l, p):
    """All symplectic elements with vanishing lower-left block."""
    out = []
    for g in sp_elements(l, p):
        _, _, c, _ = _blocks(g, l)
        if all(x % p == 0 for row in c for x in row):
            out.append(g)
    return out


def J_element(l, p):
    """[[0, I],[-I, 0]]: inverse of tau_{1..l}."""
    eye = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    zero = tuple(tuple(0 for _ in range(l)) for _ in range(l))
    neg = tuple(tuple((-x) % p for x in row) for row in eye)
    return _from_blocks(zero, eye, neg, zero, p)


def parabolic_identity_report(rep: OscillatorRep, tol: float = 1e-8):
    """Check S(p) = (det_X p / q) M_X(p) on the parabolic, and the J scalar."""
    l, p = rep.l, rep.p
    failures = []
    for g in parabolic_elements(l, p):
        zeta = legendre(det_X(g, l, p), p)
        dev = np.abs(rep.op(g) - zeta * rep.M_X(g)).max()
        if dev > tol:
            failures.append((g, dev))
    J = J_element(l, p)
    scal = (legendre(-1, p) ** l) * rep._omega1 ** (-l) * p ** (l / 2.0)
    devJ = np.abs(rep.op(J) - scal * rep.M_X(J)).max()
    ok = not failures and devJ <= tol
    return {"parabolic_failures": failures, "J_deviation": devJ, "ok": ok}
