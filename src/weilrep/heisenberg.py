"""Heisenberg groups over finite rings and their Schrodinger models.

H(W) = W x F with (w,t)(w',t') = (w+w', t+t'+beta(w,w')/2).  A self-dual
subgroup A gives the induced model on functions phi with
phi(a+w) = psi(beta(w,a)/2) phi(w); operators are matrices on the coset
basis of W/A.
"""

from __future__ import annotations

import numpy as np

from .rings import unit_phase
from .symplectic import SympModule


def heis_mul(spec: SympModule, h1, h2):
    (w1, t1), (w2, t2) = h1, h2
    M = spec.modulus
    half = pow(2, -1, M)
    t = (t1 + t2 + half * spec.form(w1, w2)) % M
    return (spec.add(w1, w2), t)


def heis_inv(spec: SympModule, h):
    w, t = h
    return (spec.neg(w), (-t) % spec.modulus)


class Submodule:
    """A subgroup of (W, +), as an explicit sorted element list."""

    def __init__(self, spec: SympModule, elements, box=None):
        self.spec = spec
        self.elements = sorted(set(elements))
        self.box = box  # divisor exponents when this is a coordinate box
        self._elemset = set(self.elements)
        self._rep_cache = {}

    @classmethod
    def from_box(cls, spec: SympModule, divs):
        return cls(spec, spec.box_elements(divs), box=tuple(divs))

    @classmethod
    def from_gens(cls, spec: SympModule, gens):
        seen = {spec.zero()}
        frontier = [spec.zero()]
        while frontier:
            new = []
            for v in frontier:
                for g in gens:
                    w = spec.add(v, g)
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
            frontier = new
        return cls(spec, seen)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, v):
        return v in self._elemset

    def coset_rep(self, v):
        """Canonical representative of v + A (lexicographic minimum)."""
        if self.box is not None:
            return self.spec.quotient_reduce(v, self.box)
        v = self.spec.reduce(v)
        if v in self._rep_cache:
            return self._rep_cache[v]
        rep = min(self.spec.add(v, a) for a in self.elements)
        self._rep_cache[v] = rep
        return rep

    def coset_reps(self):
        if self.box is not None:
            return self.spec.quotient_reps(self.box)
        seen = {}
        for v in sorted(self.spec.vectors()):
            r = self.coset_rep(v)
            seen.setdefault(r, r)
        return sorted(seen)


def dual_subgroup(sub: Submodule) -> Submodule:
    """A* = {v : psi(beta(v,a)) = 1 for all a} (psi primitive)."""
    spec = sub.spec
    gens = sub.elements
    out = [v for v in spec.vectors()
           if all(spec.form(v, a) == 0 for a in gens)]
    return Submodule(spec, out)


def standard_selfdual(spec: SympModule) -> Submodule:
    """The e-coordinate span: first half of the coordinates."""
    half = spec.dim // 2
    divs = [0] * half + [spec.exps[i] for i in range(half, spec.dim)]
    return Submodule.from_box(spec, divs)


class SchrodingerModel:
    """Induced model of the Heisenberg representation from a self-dual A."""

    def __init__(self, spec: SympModule, A: Submodule, scale: int = 1):
        self.spec = spec
        self.A = A
        self.scale = scale
        size = spec.size()
        if len(A) * len(A) != size:
            raise ValueError("A is not self-dual: |A|^2 != |W|")
        if any(spec.form(a, b) != 0 for a in A.elements for b in A.elements):
            raise ValueError("A is not isotropic")
        self.reps = A.coset_reps()
        self.index = {r: i for i, r in enumerate(self.reps)}
        self.dim = len(self.reps)
        self.M = spec.modulus
        self.half = pow(2, -1, self.M)

    def psi(self, x: int) -> complex:
        return unit_phase(self.scale * x, self.M)

    def _locate(self, v):
        """Split v = a + rep with a in A; return (rep index, phase psi(beta(rep,a)/2))."""
        rep = self.A.coset_rep(v)
        a = self.spec.sub(v, rep)
        ph = self.psi(self.half * self.spec.form(rep, a))
        return self.index[rep], ph

    def rho(self, w, t: int = 0) -> np.ndarray:
        """Operator of (w,t): rho(w,t)phi(w') = psi(t + beta(w',w)/2) phi(w'+w)."""
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for j, rj in enumerate(self.reps):
            c, ph = self._locate(self.spec.add(rj, w))
            op[j, c] = self.psi(t + self.half * self.spec.form(rj, w)) * ph
        return op

    def character_norm(self) -> float:
        """(1/|H|) sum |tr rho(h)|^2; equals 1 iff irreducible."""
        total = 0.0
        count = 0
        for w in self.spec.vectors():
            base = np.trace(self.rho(w, 0))
            for t in range(self.M):
                total += abs(self.psi(t) * base) ** 2
                count += 1
        return total / count


def intertwiner(model_b: SchrodingerModel, model_a: SchrodingerModel) -> np.ndarray:
    """Raw finite-sum intertwiner from the A-model to the B-model.

    I phi(w) = sum_{b in B/(A cap B)} phi(w+b) psi(beta(b,w)/2); unitary only
    after scalar normalization.
    """
    spec = model_a.spec
    B, A = model_b.A, model_a.A
    inter = set(B._elemset) & set(A._elemset)
    # coset representatives of B modulo A∩B
    reps_b = []
    seen = set()
    for b in B.elements:
        key = min(spec.add(b, x) for x in inter)
        if key not in seen:
            seen.add(key)
            reps_b.append(b)
    out = np.zeros((model_b.dim, model_a.dim), dtype=complex)
    for j, w in enumerate(model_b.reps):
        for b in reps_b:
            c, ph = model_a._locate(spec.add(w, b))
            out[j, c] += model_a.psi(model_a.half * spec.form(b, w)) * ph
    return out


def op_basis_gram(model: SchrodingerModel) -> np.ndarray:
    """Gram matrix G[v][w] = tr(rho(v,0) rho(w,0)^*) over all of W."""
    vecs = sorted(model.spec.vectors())
    ops = [model.rho(v, 0) for v in vecs]
    k = len(vecs)
    G = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            G[i, j] = np.trace(ops[i] @ ops[j].conj().T)
    return G
