"""The canonical Weil representation of Sp(2l, F_p), p odd.

The model lives on functions indexed by Y-cosets for the standard polar
decomposition W = X + Y; operators are S(g) = m(g) p^{j(g)/2} M_X(g) with
m built from the Weil index (normalized quadratic Gauss sum) of Rao's
invariant theta and from j = rank C, both read off eliminations of the
lower-left block C of g and of one matrix built from C and D.  The scalar normalization makes g -> S(g) a genuine
homomorphism splitting the metaplectic extension.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .heisenberg import SchrodingerModel, standard_selfdual
from .linalg import rank_normal_form_stack
from .rings import QuadExt, _roots, legendre, unit_phase
from .symplectic import SympModule, symplectic_group

# stacked operators and traces take the elements this many at a time, which
# bounds their work arrays whatever the group order; with 1024 the process
# running the 17,496-element sums of `ring --p 3 --r 1 --l 1 --n 1` peaked
# 1.1 MB higher than with 512
_CHUNK = 512


# -- the Bruhat cell of g -----------------------------------------------------


def cell_invariants(mats, l, p):
    """Invariants (theta, j) of the cell P tau_S P of each matrix of an
    int64 (N, 2l, 2l) stack, P the Siegel parabolic, as two (N,) arrays,
    from the stacked elimination u C w = diag(1_j, 0) and one of K below.

    j = |S| = rank C = l - dim(X cap gX).  With A' = u^{-T} A w, the
    factorization g = p1 tau_S p2 has X-block determinants det u for p1
    and det(A'_22) / det w for p2, A'_22 the last l - j rows and columns
    of A'; theta is their product mod p.  The element with blocks A' and D' = u D w^{-T}
    is symplectic, so det A'_22 = det(D'_22)^{-1}.  For K, the matrix with
    the columns of C at the pivot columns of C and those of D elsewhere,
    u K is block triangular up to the column order of w, with diagonal
    blocks 1_j and D'_22; so theta = det(K)^{-1}.
    """
    mats = np.asarray(mats, dtype=np.int64) % p
    _, pivot, j, _ = rank_normal_form_stack(mats[:, l:, :l], p)
    K = np.where(pivot[:, None], mats[:, l:, :l], mats[:, l:, l:])
    return rank_normal_form_stack(K, p)[3], j


def bruhat_decompose(g, l, p):
    """`cell_invariants` of one matrix: (theta, j) as ints."""
    th, j = cell_invariants(np.asarray(g, dtype=np.int64)[None], l, p)
    return int(th[0]), int(j[0])


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


# -- the canonical representation --------------------------------------------


class OscillatorRep:
    """Canonical Weil representation of Sp(2l, F_p) on p^l basis functions.

    Basis functions are indexed by Y = F_p^l in lexicographic order, the
    rows of `_ys`; a function is determined by its values on (0, y)
    through phi(x, y) = psi(-x.y/2) phi(0, y).
    """

    def __init__(self, l: int, p: int, scale: int = 1):
        self.l = l
        self.p = p
        self.scale = scale % p
        if self.scale % p == 0:
            raise ValueError("character scale must be a unit")
        self.dim = p ** l
        self.half = pow(2, -1, p)
        # the model polarized by X: its coset representatives are the
        # points (0, y), and their y blocks _ys are the basis, so rho acts
        # on the same basis
        spec = SympModule.standard(p, l, 0, 0)
        self.heis = SchrodingerModel(spec, standard_selfdual(spec), self.scale)
        self._ys = self.heis.pts[:, l:]
        # g^{-1} = J^{-1} g^T J for symplectic g, and J^{-1} = J^T
        self._gram = np.array(spec.gram, dtype=np.int64)
        # M_X sums over the points z = (x, y_j), x inner, y_j outer; row j
        # of the operator collects the points with y = y_j
        self._rows = np.repeat(np.arange(self.dim), self.dim)
        self._roots = np.array(_roots(p))
        self._radix = p ** np.arange(l - 1, -1, -1)  # index of y in _ys
        # index of y + y' in _ys at [index of y, index of y']
        self._add = (self._ys[:, None] + self._ys) % p @ self._radix
        # the products z_a z_b of every point z, a row per (a, b)
        z = np.concatenate([np.tile(self._ys, (self.dim, 1)),
                            np.repeat(self._ys, self.dim, axis=0)], axis=1)
        self._zz = (z[:, :, None] * z[:, None]).reshape(len(z), -1).T * 1.0
        self._omega1 = weil_index(p, 1, self.scale)
        # m(theta, j) p^{j/2} at [theta, j], theta a unit
        self._scalar = np.array([[0j] * (l + 1)] + [
            [(1.0 / weil_index(p, th, self.scale)) * self._omega1 ** (1 - j)
             * (p ** (j / 2.0)) for j in range(l + 1)] for th in range(1, p)])

    def _terms(self, mats):
        """The term of each point z = (x, y_j) in row j of M_X(g), for a
        stack reduced mod p: its column, the index of v_Y for v = z g^{-T},
        from the addition table of Y; and its phase exponent, the form
        (x.y - v_X.v_Y)/2 at z, from one float product (exact here)."""
        p, l, N = self.p, self.l, len(mats)
        gt = self._gram.T @ mats @ self._gram % p  # g^{-T}
        index = lambda v: v % p @ self._radix
        cols = self._add[index(self._ys @ gt[:, l:, l:])[:, :, None],
                         index(self._ys @ gt[:, :l, l:])[:, None]]
        xy = np.eye(2 * l, k=l, dtype=np.int64)  # the form x.y
        form = self.scale * self.half * (
            xy - gt[..., :l] @ gt[..., l:].swapaxes(1, 2)) % p
        return (cols.reshape(N, -1),
                (form.reshape(N, -1) @ self._zz).astype(np.int64) % p)

    def _M_X(self, mats) -> np.ndarray:
        """M_X of a stack: the phases of the terms summed into their rows
        and columns in point order, by bincount on a flat index."""
        cols, e = self._terms(mats)
        N, d = len(mats), self.dim
        flat = ((np.arange(N)[:, None] * d + self._rows) * d + cols).ravel()
        vals = self._roots[e].ravel()
        op = np.bincount(flat, vals.real, N * d * d) \
            + 1j * np.bincount(flat, vals.imag, N * d * d)
        return op.reshape(N, d, d) / d

    def _chunks(self, mats):
        """The chunks of a stack, reduced mod p, each with its scalars
        m(g) p^{j/2}, m(g) = omega(theta)^{-1} omega(1)^{1-j}."""
        mats = np.asarray(mats, dtype=np.int64)
        for start in range(0, len(mats), _CHUNK):
            chunk = mats[start:start + _CHUNK] % self.p
            yield start, chunk, self._scalar[cell_invariants(chunk, self.l,
                                                             self.p)]

    def ops(self, mats) -> np.ndarray:
        """S(g) = m(g) p^{j/2} M_X(g) for every matrix of an int64
        (N, 2l, 2l) stack, _CHUNK at a time: (N, p^l, p^l)."""
        out = np.empty((len(mats), self.dim, self.dim), dtype=complex)
        for start, chunk, m in self._chunks(mats):
            out[start:start + _CHUNK] = m[:, None, None] * self._M_X(chunk)
        return out

    def traces(self, mats) -> np.ndarray:
        """tr S(g) for every matrix of a stack, _CHUNK at a time, from the
        terms on the diagonal of M_X alone: (N,)."""
        out = np.empty(len(mats), dtype=complex)
        for start, chunk, m in self._chunks(mats):
            cols, e = self._terms(chunk)
            out[start:start + _CHUNK] = m * np.where(
                cols == self._rows, self._roots[e], 0).sum(axis=1) / self.dim
        return out

    def M_X(self, g) -> np.ndarray:
        """S(g) up to the scalar m(g) p^{j/2}."""
        return self._M_X(np.asarray(g, dtype=np.int64)[None] % self.p)[0]

    def op(self, g) -> np.ndarray:
        """S(g), the one-element view of `ops`."""
        return self.ops(np.asarray(g, dtype=np.int64)[None])[0]

    def rho(self, w, t: int = 0) -> np.ndarray:
        """Heisenberg operator on the same basis (central character psi):
        the Schrodinger model on the box X."""
        return self.heis.rho(w, t)


def J_element(l, p):
    """[[0, I],[-I, 0]]: inverse of tau_{1..l}."""
    return tuple(tuple(int(j == i + l) if i < l else -(j == i - l) % p
                       for j in range(2 * l)) for i in range(2 * l))


def parabolic_identity_report(rep: OscillatorRep, tol: float = 1e-8):
    """Check S(p) = (det A / q) M_X(p) on the parabolic, the elements of
    Sp(2l, F_p) with C = 0, and the J scalar."""
    l, p = rep.l, rep.p
    mats = symplectic_group(SympModule.standard(p, l, 0, 0)).mats
    par = mats[~mats[:, l:, :l].any(axis=(1, 2))]
    signs = np.array([legendre(x, p) for x in range(p)])
    failures = []
    for start in range(0, len(par), _CHUNK):
        chunk = par[start:start + _CHUNK]
        # det u of the X-block A is 1 / det A: one square class
        zeta = signs[rank_normal_form_stack(chunk[:, :l, :l], p)[3]]
        dev = np.abs(rep.ops(chunk) - zeta[:, None, None] * rep._M_X(chunk))
        failures += [(g.tolist(), d) for g, d in
                     zip(chunk, dev.max(axis=(1, 2)).tolist()) if d > tol]
    J = J_element(l, p)
    scal = (legendre(-1, p) ** l) * rep._omega1 ** (-l) * p ** (l / 2.0)
    devJ = np.abs(rep.op(J) - scal * rep.M_X(J)).max()
    ok = not failures and devJ <= tol
    return {"parabolic_failures": failures, "J_deviation": devJ, "ok": ok}
