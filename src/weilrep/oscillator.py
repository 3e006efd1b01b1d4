"""The canonical Weil representation of Sp(2l, F_p), p odd.

The model lives on functions indexed by Y-cosets for the standard polar
decomposition W = X + Y; operators are S(g) = m(g) p^{j(g)/2} M_X(g) with
m built from the Weil index (normalized quadratic Gauss sum) of Rao's
invariant theta and from j = rank C, both read off eliminations of the
lower-left block C of g and of one matrix built from C and D.  The scalar
normalization makes g -> S(g) a genuine homomorphism splitting the
metaplectic extension.  The scalar depends on the bottom block row (C, D)
alone, and the elements with one (C, D) form a coset of the Siegel
unipotent radical whose M_X differ by one phase per row; so stacked
operators take the scalar, and traces the diagonal of M_X as well, once
per distinct (C, D).
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .heisenberg import SchrodingerModel, standard_selfdual
from .linalg import chunks, rank_normal_form_stack
from .rings import QuadExt, _roots, legendre, unit_phase
from .symplectic import SympModule, _lex_keys, inverse


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
    pivot, j, _ = rank_normal_form_stack(mats[:, l:, :l], p)
    K = np.where(pivot[:, None], mats[:, l:, :l], mats[:, l:, l:])
    return rank_normal_form_stack(K, p)[2], j


def bruhat_decompose(g, l, p):
    """`cell_invariants` of one matrix: (theta, j) as ints."""
    th, j = cell_invariants(np.asarray(g, dtype=np.int64)[None], l, p)
    return int(th[0]), int(j[0])


# -- Weil index --------------------------------------------------------------


@lru_cache(maxsize=None)
def weil_index(p: int, a: int) -> complex:
    """Normalized Gauss sum: q^{-1/2} sum_t eta(a t^2), eta = (1/2)psi-bar,
    psi(x) = exp(2 pi i x / p)."""
    if a % p == 0:
        raise ValueError("Weil index needs a unit argument")
    half = pow(2, -1, p)
    s = sum(unit_phase(half * a * t * t, p) for t in range(p))
    return s / cmath.sqrt(p)


def weil_index_quadratic_ext(p: int) -> complex:
    """omega'(1) for the residue quadratic extension F_{p^2}."""
    ext = QuadExt(p, "unramified", 1)
    half = pow(2, -1, p)
    x, y = np.divmod(np.arange(p * p), p)
    # psi(Tr(z^2) / 2) for z = x + y nu, with Tr(z^2) = 2 (x^2 + d y^2)
    ks = half * 2 * (x * x + ext.d * y * y) % p
    return sum(_roots(p)[k] for k in ks.tolist()) / p


# -- the canonical representation --------------------------------------------


class OscillatorRep:
    """Canonical Weil representation of Sp(2l, F_p) on p^l basis functions.

    Basis functions are indexed by Y = F_p^l in lexicographic order, the
    rows of `_ys`; a function is determined by its values on (0, y)
    through phi(x, y) = psi(-x.y/2) phi(0, y).
    """

    def __init__(self, l: int, p: int):
        self.l = l
        self.p = p
        self.dim = p ** l
        self.half = pow(2, -1, p)
        # the model polarized by X: its coset representatives are the
        # points (0, y), and their y blocks _ys are the basis, so rho acts
        # on the same basis
        self.spec = spec = SympModule.standard(p, l, 0, 0)
        self.heis = SchrodingerModel(spec, standard_selfdual(spec))
        self._ys = self.heis.pts[:, l:]
        # M_X sums over the points z = (x, y_j), x inner, y_j outer; row j
        # of the operator collects the points with y = y_j
        self._rows = np.repeat(np.arange(self.dim), self.dim)
        # psi at each phase exponent of `_terms`, unreduced: (2l)^2 terms < p^3
        self._roots = np.array(_roots(p))[np.arange(4 * l * l * p ** 3) % p]
        self._radix = p ** np.arange(l - 1, -1, -1)  # index of y in _ys
        # index of y + y' in _ys at p^l (index of y) + index of y'
        self._add = ((self._ys[:, None] + self._ys) % p @ self._radix).ravel()
        # the products z_a z_b of every point z, a row per (a, b)
        z = np.concatenate([np.tile(self._ys, (self.dim, 1)),
                            np.repeat(self._ys, self.dim, axis=0)], axis=1)
        self._zz = (z[:, :, None] * z[:, None]).reshape(len(z), -1).T * 1.0
        # the products y_a y_b of every y, a row per (a, b)
        self._yy = (self._ys[:, :, None] * self._ys[:, None]).reshape(
            self.dim, -1).T
        self._omega1 = weil_index(p, 1)
        # m(theta, j) p^{j/2} at [theta, j], theta a unit
        self._scalar = np.array([[0j] * (l + 1)] + [
            [(1.0 / weil_index(p, th)) * self._omega1 ** (1 - j)
             * (p ** (j / 2.0)) for j in range(l + 1)] for th in range(1, p)])

    def _terms(self, mats):
        """The term of each point z = (x, y_j) in row j of M_X(g), for a
        stack reduced mod p: its column, the index of v_Y for v = z g^{-T},
        from the addition table of Y; and its phase exponent, the form
        (x.y - v_X.v_Y)/2 at z, from one float product (exact here) and
        not reduced mod p, which `_roots` absorbs."""
        p, l, N = self.p, self.l, len(mats)
        gt = inverse(self.spec, mats).swapaxes(1, 2)  # g^{-T}
        index = lambda v: v % p @ self._radix
        cols = self._add[index(self._ys @ gt[:, l:, l:])[:, :, None] * self.dim
                         + index(self._ys @ gt[:, :l, l:])[:, None]]
        xy = np.eye(2 * l, k=l, dtype=np.int64)  # the form x.y
        form = self.half * (
            xy - gt[..., :l] @ gt[..., l:].swapaxes(1, 2)) % p
        return (cols.reshape(N, -1),
                (form.reshape(N, -1) @ self._zz).astype(np.int64))

    def _M_X(self, mats) -> np.ndarray:
        """M_X of a stack: the phases of the terms summed into their rows
        and columns in point order, by bincount on a flat index, into one
        complex array scaled in place (no other chunk-sized complex array)."""
        cols, e = self._terms(mats)
        N, d = len(mats), self.dim
        flat = ((np.arange(N)[:, None] * d + self._rows) * d + cols).ravel()
        op = 1j * np.bincount(flat, self._roots.imag[e].ravel(), N * d * d)
        op += np.bincount(flat, self._roots.real[e].ravel(), N * d * d)
        op /= d
        return op.reshape(N, d, d)

    def _cosets(self, mats):
        """The distinct bottom rows (C, D) of an int64 stack, keyed with no
        reduced copy of it: the index of the first element with each, the
        row of each element, and the scalar m(g) p^{j/2} of each row,
        m(g) = omega(theta)^{-1} omega(1)^{1-j}."""
        l, p = self.l, self.p
        _, first, which = np.unique(_lex_keys(mats[:, l:], (p,) * l),
                                    return_index=True, return_inverse=True)
        return first, which, self._scalar[cell_invariants(mats[first], l, p)]

    def _chunks(self, mats):
        """The `chunks` of a stack, p^{2l} terms of M_X per element, reduced
        mod p, with their scalars from `_cosets` of the whole stack."""
        mats = np.asarray(mats, dtype=np.int64)
        _, which, m = self._cosets(mats)
        for part in chunks(len(mats), self.dim ** 2):
            yield mats[part] % self.p, m[which[part]]

    def iter_ops(self, mats):
        """S(g) = m(g) p^{j/2} M_X(g) for every matrix of an int64
        (N, 2l, 2l) stack, in order, one (n, p^l, p^l) array per chunk of
        `_chunks`."""
        for chunk, m in self._chunks(mats):
            yield m[:, None, None] * self._M_X(chunk)

    def ops(self, mats) -> np.ndarray:
        """The concatenation of `iter_ops`: (N, p^l, p^l)."""
        return np.concatenate([np.empty((0, self.dim, self.dim), complex),
                               *self.iter_ops(mats)])

    def _diagonals(self, reps, m) -> np.ndarray:
        """The diagonal of m M_X(g) for each matrix g of an int64 stack
        with scalars m, from the p^{2l} terms per element of each of their
        `chunks`: (N, p^l)."""
        d = self.dim
        diag = np.empty((len(reps), d), dtype=complex)
        for part in chunks(len(reps), d * d):
            chunk = reps[part] % self.p
            cols, e = self._terms(chunk)
            on = np.where(cols == self._rows, self._roots[e], 0)
            diag[part] = on.reshape(len(chunk), d, d).sum(
                axis=2) * (m[part, None] / d)
        return diag

    def _phases(self, B) -> np.ndarray:
        """psi(yBy/2) at each y of the basis for each B of an int64
        (N, l, l) stack of symmetric matrices: (N, p^l), the row phases
        of M_X([[1, B], [0, 1]] g) over those of M_X(g)."""
        e = self.half * B.reshape(len(B), -1) @ self._yy % self.p
        return self._roots[e]

    def traces(self, mats) -> np.ndarray:
        """tr S(g) for every matrix of an int64 (N, 2l, 2l) stack, which
        must be symplectic: (N,).

        The elements with one bottom row (C, D) form a coset N g_c of the
        Siegel unipotent radical N, g_c the first of them in the stack, and
        g g_c^{-1} = [[1, B], [0, 1]] with B symmetric; `inverse` reads
        g_c^{-1} off the form, which gives the inverse only for symplectic
        g_c.  As g^{-T} = n^{-T} g_c^{-T} for n = g g_c^{-1}, the point z =
        (x, y) goes to the same v = z g^{-T} as z' = (x - yB, y) under
        g_c^{-T}, and x.y = (x - yB).y + yBy.  So substituting x -> x - yB
        in the sum over x of row y of M_X(g) gives row y of M_X(g) =
        psi(yBy/2) times row y of M_X(g_c), with no use of S being a
        homomorphism; and m(g) = m(g_c) reads (C, D) alone.  The diagonal
        diag_c of m M_X(g_c) is built once per coset (`_diagonals`), and tr
        S(g) = sum_y psi(yBy/2) diag_c[y] (`_phases`): p^l terms per
        element, not p^{2l}.  Both passes run in `chunks`."""
        mats, l, p = np.asarray(mats, np.int64), self.l, self.p
        first, which, m = self._cosets(mats)
        diag = self._diagonals(mats[first], m)
        # the last l columns [[-B_c^T], [A_c^T]] of each g_c^{-1}
        right = inverse(self.spec, mats[first])[..., l:]
        out = np.empty(len(mats), dtype=complex)
        for part in chunks(len(mats), self.dim):
            c = which[part]
            B = mats[part, :l] @ right[c] % p
            out[part] = (self._phases(B) * diag[c]).sum(axis=1)
        return out

    def character_norm(self, R, N) -> float:
        """(1/|G|) sum_g |tr S(g)|^2 over G = R N, for int64 stacks of the
        whole Siegel unipotent radical N and of one element of each left
        coset r N.

        As g -> g^{-1} permutes G, the sum is over the n r^{-1}, and n
        r^{-1} runs over the right coset N r^{-1}: with D the diagonals of
        m M_X at the r^{-1} and F the phases psi(yBy/2) of the n (as in
        `traces`), the traces are the entries of the (|R|, |N|) product
        D F^T, summed over the `chunks` of R, each r building the p^{2l}
        terms of its diagonal and |N| traces.  The r^{-1} have distinct
        bottom rows, since their cosets N r^{-1} are distinct; so each
        scalar is one elimination."""
        l, total = self.l, 0.0
        F = self._phases(N[:, :l, l:]).T
        for part in chunks(len(R), max(self.dim ** 2, len(N))):
            rinv = inverse(self.spec, R[part])
            D = self._diagonals(
                rinv, self._scalar[cell_invariants(rinv, l, self.p)])
            total += float(np.sum(np.abs(D @ F) ** 2))
        return total / (len(R) * len(N))

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


def siegel_parabolic(R, N, p):
    """The Siegel parabolic {g : C = 0} of G = R N, N the Siegel unipotent
    radical and R one element of each left coset r N (int64 stacks): as
    C(r n) = C(r), it is the r n with C(r) = 0, an int64 stack."""
    l = R.shape[-1] // 2
    par = R[~R[:, l:, :l].any(axis=(1, 2))][:, None] @ N[None] % p
    return par.reshape(-1, 2 * l, 2 * l)


def parabolic_identity_report(rep: OscillatorRep, mats, tol: float = 1e-8):
    """Check S(p) = m(p) M_X(p) = (det A / q) M_X(p), one M_X per element,
    on the elements with C = 0 of a stack of Sp(2l, F_p); and J's scalar."""
    l, p = rep.l, rep.p
    par = mats[~mats[:, l:, :l].any(axis=(1, 2))]
    signs = np.array([legendre(x, p) for x in range(p)])
    failures, worst = [], 0.0
    for chunk, m in rep._chunks(par):
        # det u of the X-block A is 1 / det A: one square class
        zeta = signs[rank_normal_form_stack(chunk[:, :l, :l], p)[2]]
        M = rep._M_X(chunk)
        dev = np.abs(m[:, None, None] * M - zeta[:, None, None] * M)
        failures += [(g.tolist(), d) for g, d in
                     zip(chunk, dev.max(axis=(1, 2)).tolist()) if d > tol]
        worst = max(worst, float(dev.max()))
    J = J_element(l, p)
    scal = (legendre(-1, p) ** l) * rep._omega1 ** (-l) * p ** (l / 2.0)
    devJ = np.abs(rep.op(J) - scal * rep.M_X(J)).max()
    ok = not failures and devJ <= tol
    return {"parabolic_failures": failures, "parabolic_deviation": worst,
            "J_deviation": devJ, "ok": ok}
