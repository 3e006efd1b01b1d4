"""Exact arithmetic in Z/p^m (p odd) and its quadratic extensions.

Everything here is integer arithmetic plus unit-circle phases; no floating
point enters except through roots of unity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from itertools import product


@lru_cache(maxsize=None)
def _roots(den: int):
    return tuple(cmath.exp(2j * cmath.pi * k / den) for k in range(den))


def unit_phase(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den), cached per denominator."""
    return _roots(den)[num % den]


def vp(x: int, p: int, cap: int = 64) -> int:
    """p-adic valuation of the integer x, with vp(0) = cap."""
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, with (0/p) = 0."""
    a = a % p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for d in range(2, p):
        if legendre(d, p) == -1:
            return d
    raise ValueError(f"no quadratic nonresidue mod {p}?")


class QuadExt:
    """Truncated quadratic extension of Z_p.

    unramified: adjoin nu with nu^2 = d (d a nonresidue unit); truncation at
    level m keeps both coordinates mod p^m.

    ramified: adjoin pi with pi^2 = p; truncation at pi-level s keeps
    xi mod p^ceil(s/2) and eta mod p^floor(s/2), mirroring O''/pi^s.
    """

    def __init__(self, p: int, kind: str, level: int, d: int | None = None):
        if kind not in ("unramified", "ramified"):
            raise ValueError(f"unknown kind {kind!r}")
        if level < 1:
            raise ValueError("truncation level must be >= 1")
        self.p = p
        self.kind = kind
        self.level = level
        if kind == "unramified":
            self.d = smallest_nonresidue(p) if d is None else d % p ** level
            if legendre(self.d % p, p) != -1:
                raise ValueError(f"d={d} is not a nonresidue unit mod {p}")
            self.mod_xi = p ** level
            self.mod_eta = p ** level
        else:
            self.d = None
            self.mod_xi = p ** ((level + 1) // 2)
            self.mod_eta = p ** (level // 2) if level // 2 > 0 else 1

    # -- element constructors ------------------------------------------------

    def elem(self, xi: int, eta: int) -> "QuadElem":
        return QuadElem(self, xi % self.mod_xi, eta % self.mod_eta)

    @property
    def one(self):
        return self.elem(1, 0)

    def elements(self):
        for xi, eta in product(range(self.mod_xi), range(self.mod_eta)):
            yield self.elem(xi, eta)

    def units(self):
        return [z for z in self.elements() if self.is_unit(z)]

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a: "QuadElem", b: "QuadElem") -> "QuadElem":
        if self.kind == "unramified":
            xi = a.xi * b.xi + self.d * a.eta * b.eta
        else:
            xi = a.xi * b.xi + self.p * a.eta * b.eta
        eta = a.xi * b.eta + a.eta * b.xi
        return self.elem(xi, eta)

    def conj(self, a: "QuadElem") -> "QuadElem":
        return self.elem(a.xi, -a.eta)

    def norm(self, a: "QuadElem") -> int:
        """N(a) = a * conj(a), an integer mod the xi-modulus."""
        return self.norm_of(a.xi, a.eta)

    def norm_of(self, xi, eta):
        """N(xi + eta * nu) of integers or integer arrays xi, eta."""
        nu2 = self.d if self.kind == "unramified" else self.p
        return (xi * xi - nu2 * eta * eta) % self.mod_xi

    def trace(self, a: "QuadElem") -> int:
        return (2 * a.xi) % self.mod_xi

    def is_unit(self, a: "QuadElem") -> bool:
        return self.norm(a) % self.p != 0

    def inv(self, a: "QuadElem") -> "QuadElem":
        n = self.norm(a)
        if n % self.p == 0:
            raise ZeroDivisionError("not a unit")
        ninv = pow(n, -1, self.mod_xi)
        c = self.conj(a)
        return self.elem(c.xi * ninv, c.eta * ninv)

    def pow(self, a: "QuadElem", k: int) -> "QuadElem":
        if k < 0:
            return self.pow(self.inv(a), -k)
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    # -- congruence structure --------------------------------------------------

    def val_pi(self, a: "QuadElem") -> int:
        """Valuation in the uniformizer of the extension, capped at level."""
        if self.kind == "unramified":
            v = min(vp(a.xi, self.p, cap=self.level),
                    vp(a.eta, self.p, cap=self.level))
            return min(v, self.level)
        v = min(2 * vp(a.xi, self.p, cap=self.level),
                2 * vp(a.eta, self.p, cap=self.level) + 1)
        return min(v, self.level)

    def norm_one_group(self) -> list:
        """All truncated elements of norm 1, sorted canonically."""
        out = [z for z in self.elements() if self.norm(z) == 1]
        out.sort(key=lambda z: (z.xi, z.eta))
        return out

    def congruence_subgroup(self, group: list, j: int) -> list:
        """T_j = elements g of the group with g - 1 in pi^j O''."""
        if j < 0:
            raise ValueError("j must be >= 0")
        if j > self.level:
            raise ValueError(
                f"congruence depth {j} exceeds truncation level {self.level}")
        one = self.one
        out = [g for g in group
               if self.val_pi(self.elem(g.xi - one.xi, g.eta - one.eta)) >= j]
        return out

    def __repr__(self):
        if self.kind == "unramified":
            return f"QuadExt({self.p}, unramified, level={self.level}, d={self.d})"
        return f"QuadExt({self.p}, ramified, pi-level={self.level})"


@dataclass(frozen=True)
class QuadElem:
    ext: QuadExt
    xi: int
    eta: int

    def __mul__(self, other):
        return self.ext.mul(self, other)

    def conj(self):
        return self.ext.conj(self)

    def norm(self):
        return self.ext.norm(self)

    def trace(self):
        return self.ext.trace(self)

    def inv(self):
        return self.ext.inv(self)

    def __pow__(self, k):
        return self.ext.pow(self, k)

    def _key(self):
        ext = self.ext
        return (ext.p, ext.kind, ext.level, ext.d, self.xi, self.eta)

    def __eq__(self, other):
        return isinstance(other, QuadElem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"({self.xi},{self.eta})"
