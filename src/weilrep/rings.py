"""Exact arithmetic in Z/p^m (p odd) and its quadratic extensions.

Everything here is integer arithmetic plus unit-circle phases; no floating
point enters except through roots of unity.  An element xi + eta * nu of a
quadratic extension is a pair (xi, eta): `QuadExt` computes on (..., 2) int
arrays of pairs, and `QuadElem` is one pair of Python ints.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import NamedTuple

import numpy as np


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


class QuadElem(NamedTuple):
    """An element xi + eta * nu of a truncated quadratic extension."""

    xi: int
    eta: int


class QuadExt:
    """Truncated quadratic extension of Z_p, on (..., 2) int arrays of
    (xi, eta) for xi + eta * nu.

    unramified: adjoin nu with nu^2 = d, d the smallest quadratic nonresidue
    mod p; truncation at level m keeps both coordinates mod p^m.

    ramified: adjoin pi with pi^2 = p; truncation at pi-level s keeps
    xi mod p^ceil(s/2) and eta mod p^floor(s/2), mirroring O''/pi^s.
    """

    def __init__(self, p: int, kind: str, level: int):
        if kind not in ("unramified", "ramified"):
            raise ValueError(f"unknown kind {kind!r}")
        if level < 1:
            raise ValueError("truncation level must be >= 1")
        self.p = p
        self.kind = kind
        self.level = level
        if kind == "unramified":
            self.d = smallest_nonresidue(p)
            self.nu2 = self.d
            self.mod_xi = p ** level
            self.mod_eta = p ** level
        else:
            self.d = None
            self.nu2 = p
            self.mod_xi = p ** ((level + 1) // 2)
            self.mod_eta = p ** (level // 2) if level // 2 > 0 else 1

    def mul(self, a, b) -> np.ndarray:
        """The product of (..., 2) int arrays of (xi, eta), broadcast."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        xi = a[..., 0] * b[..., 0] + self.nu2 * a[..., 1] * b[..., 1]
        eta = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
        return np.stack([xi % self.mod_xi, eta % self.mod_eta], axis=-1)

    def norm_of(self, xi, eta):
        """N(xi + eta * nu) of integers or integer arrays xi, eta."""
        return (xi * xi - self.nu2 * eta * eta) % self.mod_xi

    def val_pi(self, a) -> np.ndarray:
        """Valuation in the uniformizer of a (..., 2) int array of (xi, eta),
        capped at the level."""
        powers = self.p ** np.arange(1, self.level + 1)
        v = (np.asarray(a)[..., None] % powers == 0).sum(axis=-1)
        if self.kind == "unramified":
            return v.min(axis=-1)
        return np.minimum(np.minimum(2 * v[..., 0], 2 * v[..., 1] + 1),
                          self.level)

    def norm_one_group(self) -> np.ndarray:
        """The truncated elements of norm 1 as an (N, 2) array, in
        (xi, eta) order."""
        xi, eta = np.divmod(np.arange(self.mod_xi * self.mod_eta),
                            self.mod_eta)
        keep = self.norm_of(xi, eta) == 1
        return np.stack([xi[keep], eta[keep]], axis=1)

    def congruence_subgroup(self, group, j: int) -> np.ndarray:
        """T_j: the rows g of an (N, 2) array with g - 1 in pi^j O''."""
        if j < 0:
            raise ValueError("j must be >= 0")
        if j > self.level:
            raise ValueError(
                f"congruence depth {j} exceeds truncation level {self.level}")
        group = np.asarray(group)
        return group[self.val_pi(group - (1, 0)) >= j]

    def __repr__(self):
        if self.kind == "unramified":
            return f"QuadExt({self.p}, unramified, level={self.level}, d={self.d})"
        return f"QuadExt({self.p}, ramified, pi-level={self.level})"
