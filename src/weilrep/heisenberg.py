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


def box_isotropic(spec: SympModule, divs) -> bool:
    """Whether the box with divisor exponents divs is isotropic."""
    return not spec.box_form(divs).any()


def standard_selfdual(spec: SympModule) -> tuple:
    """Divisor exponents of the box X spanned by the first half of the
    coordinates; its coset representatives are the points (0, y)."""
    half = spec.dim // 2
    return (0,) * half + spec.exps[half:]


class SchrodingerModel:
    """The coset split of W over a coordinate box A, and for a self-dual A
    the induced (Schrodinger) model of the Heisenberg group.

    Coset representatives are the rows of `pts = spec.points(box)`;
    `split` and `translate` work on whole int64 arrays of points and
    return coset indices in that order.
    """

    def __init__(self, spec: SympModule, box):
        self.spec = spec
        self.box = tuple(box)
        self.M = spec.modulus
        self.half = pow(2, -1, self.M)
        self.pts = spec.points(self.box)
        self.dim = len(self.pts)
        self.selfdual = (spec.box_size(self.box) ** 2 == spec.size()
                         and box_isotropic(spec, self.box))
        self.mods = np.array(spec.moduli, dtype=np.int64)
        self.gram = np.array(spec.gram, dtype=np.int64)
        cmods = [spec.p ** min(c, a) for c, a in zip(self.box, spec.exps)]
        self._coset_mods = np.array(cmods, dtype=np.int64)
        self._radix = np.array([prod(cmods[i + 1:]) for i in range(spec.dim)],
                               dtype=np.int64)
        # beta(x, .) of every representative x, as rows
        self._pts_gram = self.pts @ self.gram % self.M
        self._roots = np.array(_roots(self.M))

    def phase(self, e) -> np.ndarray:
        """psi(e) = exp(2 pi i e / M) for integer exponents e."""
        return self._roots[e % self.M]

    def split(self, y):
        """Split points y of W, an int64 (..., dim) array reduced mod the
        moduli, as y = xc + u with xc a coset representative and u in A.

        Returns the index of xc in `pts`, the exponent beta(xc, u)/2 mod M
        of the phase psi, and u.
        """
        xc = y % self._coset_mods
        u = y - xc
        form = (xc @ self.gram % self.M * u).sum(axis=-1)
        return xc @ self._radix, form * self.half % self.M, u

    def translate(self, w, t=0):
        """The elements (w, t) on every representative x, for points w an
        int64 (..., dim) array and levels t of shape (...): the coset index
        of x + w, the exponent t + beta(x, w)/2 + beta(xc, u)/2 of its
        phase, and the part u in A of x + w = xc + u, each with an axis
        over x after those of w."""
        w = np.asarray(w, dtype=np.int64)[..., None, :]
        cj, e, u = self.split((self.pts + w) % self.mods)
        beta = (w * self._pts_gram).sum(axis=-1)
        return cj, np.asarray(t)[..., None] + beta % self.M * self.half + e, u

    def rho(self, w, t=0) -> np.ndarray:
        """Operator of (w,t): rho(w,t)phi(x) = psi(t + beta(x,w)/2) phi(x+w);
        a stack (..., dim, dim) for points w (..., dim) and levels t (...)."""
        if not self.selfdual:
            raise ValueError("the box is not self-dual")
        cj, e, _ = self.translate(w, t)
        op = np.zeros(cj.shape + (self.dim,), dtype=complex)
        np.put_along_axis(op, cj[..., None], self.phase(e)[..., None], axis=-1)
        return op
