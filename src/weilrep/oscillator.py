"""The canonical Weil representation of Sp(2l, F_p), p odd.

The model lives on functions indexed by Y-cosets for the standard polar
decomposition W = X + Y; operators are S(g) = m(g) p^{j(g)/2} M_X(g) with
m built from the Weil index (normalized quadratic Gauss sum) of Rao's
invariant theta and from j = rank C, both read off one elimination of the
lower-left block C of g.  The scalar normalization makes g -> S(g) a genuine
homomorphism splitting the metaplectic extension.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import product

import numpy as np

from .heisenberg import SchrodingerModel, standard_selfdual
from .linalg import (_rank_normal_form, mat_det, mat_inv, mat_mul, mat_T,
                     mat_vec)
from .rings import QuadExt, _roots, legendre, unit_phase
from .symplectic import SympModule, symplectic_group


# -- the Bruhat cell of g -----------------------------------------------------


def bruhat_decompose(g, l, p):
    """Invariants (theta, j) of the cell P tau_S P of g, P the Siegel
    parabolic, from one elimination u C w = diag(1_j, 0) of the C block.

    j = |S| = rank C = l - dim(X cap gX).  With A' = u^{-T} A w, the
    factorization g = p1 tau_S p2 has det_X(p1) = det u and det_X(p2) =
    det(A'_22) / det w, A'_22 the last l - j rows and columns of A'; theta
    is their product mod p.
    """
    a = tuple(row[:l] for row in g[:l])
    c = tuple(row[:l] for row in g[l:])
    u, w, j = _rank_normal_form(c, p)
    a2 = mat_mul(mat_T(mat_inv(u, p)), mat_mul(a, w, p), p)
    a22 = tuple(row[j:] for row in a2[j:])
    return mat_det(u, p) * mat_det(a22, p) * pow(mat_det(w, p), -1, p) % p, j


def det_X(par, l, p):
    """Determinant of the X-block of a parabolic element."""
    return mat_det(tuple(row[:l] for row in par[:l]), p)


def theta(g, l, p) -> int:
    """Rao's invariant x(g) as a unit mod p; its square class enters S(g)."""
    return bruhat_decompose(g, l, p)[0]


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
    x, y = np.divmod(np.arange(p * p), p)
    # psi(Tr(z^2) / 2) for z = x + y nu, with Tr(z^2) = 2 (x^2 + d y^2)
    ks = scale * half * 2 * (x * x + ext.d * y * y) % p
    return sum(_roots(p)[k] for k in ks.tolist()) / p


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
    """All of Sp(2l, F_p), sorted; equal rows are one shared tuple."""
    mats = symplectic_group(SympModule.standard(p, l, 0, 0)).mats
    rows = list(product(range(p), repeat=2 * l))
    radix = p ** np.arange(2 * l - 1, -1, -1)
    return tuple(tuple(rows[i] for i in m) for m in (mats @ radix).tolist())


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
        self.half = pow(2, -1, p)
        # M_X sums over the points (x, y_j), x inner, y_j outer; row j of
        # the operator collects the points with y = y_j
        self._points = np.array([x + y for y in self.ys for x in self.ys],
                                dtype=np.int64)
        self._rows = np.repeat(np.arange(self.dim), self.dim)
        self._roots = np.array(_roots(p))
        dots = (self._points[:, :l] * self._points[:, l:]).sum(axis=1)
        self._in_phase = self._roots[self.scale * self.half * dots % p]
        self._radix = p ** np.arange(l - 1, -1, -1)  # index of y in self.ys
        self._op_cache: dict = {}
        self._omega1 = weil_index(p, 1, self.scale)
        # the model polarized by X: its coset representatives (0, y) run
        # over Y in the order of self.ys, so rho acts on the same basis
        spec = SympModule.standard(p, l, 0, 0)
        self.heis = SchrodingerModel(spec, standard_selfdual(spec), self.scale)

    def M_X(self, g) -> np.ndarray:
        """S(g) up to the scalar m(g) p^{j/2}: one matrix product maps every
        point (x, y_j) by g^{-1}, the phases are gathered from the p-th
        roots, and np.add.at sums them into row j in point order."""
        p, l = self.p, self.l
        ginv = np.array(mat_inv(g, p), dtype=np.int64)
        v = self._points @ ginv.T % p
        dots = (v[:, :l] * v[:, l:]).sum(axis=1)
        phase = self._roots[-self.scale * self.half * dots % p]
        op = np.zeros((self.dim, self.dim), dtype=complex)
        np.add.at(op, (self._rows, v[:, l:] @ self._radix),
                  self._in_phase * phase)
        return op / (p ** l)

    def op(self, g) -> np.ndarray:
        """S(g) = m(g) p^{j/2} M_X(g), with m(g) = omega(theta)^{-1}
        omega(1)^{1-j} and (theta, j) from one elimination of the C block
        (`bruhat_decompose`)."""
        p = self.p
        g = tuple(tuple(x % p for x in row) for row in g)
        cached = self._op_cache.get(g)
        if cached is not None:
            return cached
        th, j = bruhat_decompose(g, self.l, p)
        m = (1.0 / weil_index(p, th, self.scale)) * self._omega1 ** (1 - j)
        out = m * (p ** (j / 2.0)) * self.M_X(g)
        self._op_cache[g] = out
        return out

    def rho(self, w, t: int = 0) -> np.ndarray:
        """Heisenberg operator on the same basis (central character psi):
        the Schrodinger model on the box X."""
        return self.heis.rho(w, t)

    def heis_transform(self, g, w):
        """g.(w,t) = (gw, t)."""
        return mat_vec(g, w, self.p)


def parabolic_elements(l, p):
    """All symplectic elements with vanishing lower-left block."""
    out = []
    for g in sp_elements(l, p):
        if all(g[l + i][j] % p == 0 for i in range(l) for j in range(l)):
            out.append(g)
    return out


def J_element(l, p):
    """[[0, I],[-I, 0]]: inverse of tau_{1..l}."""
    return tuple(tuple(int(j == i + l) if i < l else -(j == i - l) % p
                       for j in range(2 * l)) for i in range(2 * l))


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
