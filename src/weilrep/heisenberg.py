"""Heisenberg groups over finite rings and their induced models on boxes.

H(W) = W x F with (w,t)(w',t') = (w+w', t+t'+beta(w,w')/2).  A coordinate
box A = {v : p^{c_i} | v_i} splits every point of W as y = xc + u with xc
in the box of representatives of W/A and u in A; the induced model lives on
functions phi with phi(xc + u) = psi(beta(xc,u)/2) phi(xc) (times a residue
operator of u when A is only coisotropic, see `ring_rep`).  Operators are
matrices on the coset basis of W/A.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .rings import _roots
from .symplectic import SympModule


def heis_mul(spec: SympModule, h1, h2):
    (w1, t1), (w2, t2) = h1, h2
    M = spec.modulus
    half = pow(2, -1, M)
    t = (t1 + t2 + half * spec.form(w1, w2)) % M
    return (spec.add(w1, w2), t)


def box_isotropic(spec: SympModule, divs) -> bool:
    """Whether the box with divisor exponents divs is isotropic."""
    p, M = spec.p, spec.modulus
    for i in range(spec.dim):
        for j in range(spec.dim):
            if spec.gram[i][j] % M == 0:
                continue
            e = min(divs[i], spec.exps[i]) + min(divs[j], spec.exps[j])
            if (p ** e * spec.gram[i][j]) % M:
                return False
    return True


def standard_selfdual(spec: SympModule) -> tuple:
    """Divisor exponents of the box X spanned by the first half of the
    coordinates; its coset representatives are the points (0, y)."""
    half = spec.dim // 2
    return (0,) * half + spec.exps[half:]


class SchrodingerModel:
    """The coset split of W over a coordinate box A, and for a self-dual A
    the induced (Schrodinger) model of the Heisenberg group.

    Coset representatives are `spec.quotient_reps(box)`, first coordinate
    most significant; `split` and `translate` work on whole int64 arrays
    of points and return coset indices in that order.
    """

    def __init__(self, spec: SympModule, box, scale: int = 1):
        self.spec = spec
        self.box = tuple(box)
        self.scale = scale
        self.M = spec.modulus
        self.half = pow(2, -1, self.M)
        self.reps = spec.quotient_reps(self.box)
        self.dim = len(self.reps)
        self.selfdual = (spec.box_size(self.box) ** 2 == spec.size()
                         and box_isotropic(spec, self.box))
        self.mods = np.array(spec.moduli, dtype=np.int64)
        self.gram = np.array(spec.gram, dtype=np.int64)
        cmods = [spec.p ** min(c, a) for c, a in zip(self.box, spec.exps)]
        self._coset_mods = np.array(cmods, dtype=np.int64)
        self._radix = np.array([prod(cmods[i + 1:]) for i in range(spec.dim)],
                               dtype=np.int64)
        self.pts = np.array(self.reps, dtype=np.int64).reshape(self.dim,
                                                               spec.dim)
        # beta(x, .) of every representative x, as rows
        self._pts_gram = self.pts @ self.gram % self.M
        self._roots = np.array(_roots(self.M))
        self._rows = np.arange(self.dim)

    def phase(self, e) -> np.ndarray:
        """psi(e) for integer exponents e."""
        return self._roots[self.scale * e % self.M]

    def split(self, y):
        """Split points y of W, an int64 (..., dim) array reduced mod the
        moduli, as y = xc + u with xc a coset representative and u in A.

        Returns the index of xc in `reps`, the exponent beta(xc, u)/2 mod M
        of the phase psi, and u.
        """
        xc = y % self._coset_mods
        u = y - xc
        form = (xc @ self.gram % self.M * u).sum(axis=-1)
        return xc @ self._radix, form * self.half % self.M, u

    def translate(self, w, t: int = 0):
        """The element (w, t) on every representative x: the coset index of
        x + w, the exponent t + beta(x, w)/2 + beta(xc, u)/2 of its phase,
        and the part u in A of x + w = xc + u."""
        w = np.array(w, dtype=np.int64)
        cj, e, u = self.split((self.pts + w) % self.mods)
        return cj, t + self._pts_gram @ w % self.M * self.half + e, u

    def rho(self, w, t: int = 0) -> np.ndarray:
        """Operator of (w,t): rho(w,t)phi(x) = psi(t + beta(x,w)/2) phi(x+w)."""
        if not self.selfdual:
            raise ValueError("the box is not self-dual")
        cj, e, _ = self.translate(w, t)
        op = np.zeros((self.dim, self.dim), dtype=complex)
        op[self._rows, cj] = self.phase(e)
        return op
