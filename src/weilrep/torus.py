"""Norm-one tori of quadratic extensions inside Sp over Z/p^{n+1}.

Base parameters are fixed at r = 1 over Q_p with an unramified character
(conductor 0), so the torus of a quadratic extension embeds 2x2:
multiplication on a suitable lattice basis gives [[x, y],[d y, x]] in the
unramified case and [[x, y],[p y, x]] in the ramified case.  The finite
torus C is an (N, 2) int array of pairs (xi, eta) in (xi, eta) order, and
all group arithmetic runs on such arrays.  Characters are carried on a
two-cyclic-factor coordinate system with conductor metadata; multiplicities
in the Weil representation are exact rounded inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oscillator import weil_index
from .rings import (QuadElem, QuadExt, _roots, legendre,
                    smallest_nonresidue, unit_phase)
from .ring_rep import RingWeilRep, direct_sum, direct_sum_isotropic, traces
from .symplectic import SympModule


@dataclass(frozen=True)
class TorusSpec:
    p: int
    kind: str                 # "unramified" | "ramified"
    u_val: int = 0            # valuation of the twist element (unramified)
    n: int = 1                # truncation level of the symplectic module

    def __post_init__(self):
        if self.kind not in ("unramified", "ramified"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "unramified" and self.u_val not in (0, 1):
            raise ValueError("u_val must be 0 or 1")
        if self.kind == "ramified" and self.u_val:
            raise ValueError("ramified tori have no u_val parameter")


class TorusContext:
    """Finite quotient C of the torus, its module, embedding and Weil model.

    Built once: C as the (N, 2) array `elems` of pairs (xi, eta) in
    (xi, eta) order, viewed as the list `C` of `QuadElem`; the (N, 2, 2)
    embedding stack `mats` and the operators S(t) of every t in C as one
    `MonomialOps`; the congruence depth val_pi(t - 1) of every t (T_j is
    depth >= j); the (K, N) character table, row a * o2 + b holding the
    character with exponents (a, b) on the two cyclic generators; its
    conductors; and the distinct unit norms, each with its first unit in
    (xi, eta) order.
    """

    def __init__(self, tspec: TorusSpec):
        self.tspec = tspec
        p, n = tspec.p, tspec.n
        self.p = p
        self.n = n
        self.d = smallest_nonresidue(p)
        if tspec.kind == "unramified":
            if tspec.u_val == 0:
                self.level = n + 1
                self.module = SympModule.standard(p, 1, 0, n)
            else:
                self.level = n
                self.module = SympModule.standard(p, 1, 1, n)
            self.ext = QuadExt(p, "unramified", self.level)
        else:
            self.level = 2 * (n + 1)
            self.module = SympModule.standard(p, 1, 0, n)
            self.ext = QuadExt(p, "ramified", self.level)
        ext = self.ext
        self.elems = ext.norm_one_group()
        self.C = [QuadElem(*t) for t in self.elems.tolist()]
        # the index in C of the pair (xi, eta) at xi * mod_eta + eta
        self._at = np.full(ext.mod_xi * ext.mod_eta, -1)
        self._at[self.elems @ (ext.mod_eta, 1)] = np.arange(len(self.C))
        self.eta = self.elems[:, 1]
        self.depth = ext.val_pi(self.elems - (1, 0))
        self.o1, self.o2, (i, j) = _two_cyclic_coordinates(self)
        a, b = np.divmod(np.arange(self.o1 * self.o2), self.o2)
        self.table = (np.array(_roots(self.o1))[np.outer(a, i) % self.o1]
                      * np.array(_roots(self.o2))[np.outer(b, j) % self.o2])
        self.chars = [TorusChar(self, int(a[k]), int(b[k]), k)
                      for k in range(len(a))]
        nontrivial = np.abs(self.table - 1) > 1e-9
        self.conductors = np.where(nontrivial, self.depth, -1).max(axis=1) + 1
        xi, eta = np.divmod(np.arange(ext.mod_xi * ext.mod_eta), ext.mod_eta)
        norms = ext.norm_of(xi, eta)
        unit = norms % p != 0
        # the distinct norms of units (and of units with xi a unit), each
        # with its first unit in (xi, eta) order
        self.norm_reps = {}
        for unit_xi, keep in ((False, unit), (True, unit & (xi % p != 0))):
            first = np.sort(np.unique(norms[keep], return_index=True)[1])
            self.norm_reps[unit_xi] = (norms[keep][first],
                                       np.stack([xi[keep], eta[keep]],
                                                axis=1)[first])
        # t = xi + eta nu acts as [[xi, eta], [nu^2 eta, xi]]
        xi, eta = self.elems.T
        self.mats = (np.stack([xi, eta, ext.nu2 * eta, xi], axis=1)
                     .reshape(-1, 2, 2)
                     % np.array(self.module.moduli)[:, None])
        self.rep = RingWeilRep(self.module)
        self.dim = self.rep.dim
        self.ops = self.rep.blocks(self.mats)

    def index_of(self, t) -> int:
        """The index in C of the pair t = (xi, eta)."""
        ext = self.ext
        i = int(self._at[t[0] % ext.mod_xi * ext.mod_eta + t[1] % ext.mod_eta])
        if i < 0:
            raise KeyError(f"{tuple(t)} is not an element of C")
        return i

    def _indices(self, a) -> np.ndarray:
        """The index in C of each pair of an (..., 2) array of elements."""
        return self._at[a @ (self.ext.mod_eta, 1)]

    # -- congruence subgroups ----------------------------------------------------

    def subgroup(self, j: int) -> np.ndarray:
        """Image of the j-th congruence subgroup in the finite quotient, as
        an array of pairs."""
        return self.elems[self.depth >= min(j, self.level)]

    def visibility_depth(self) -> int:
        """Smallest j whose congruence subgroup is trivial here."""
        return int(self.depth[self.depth < self.level].max(initial=-1)) + 1

    # -- characters ---------------------------------------------------------------

    def character_of(self, values) -> "TorusChar":
        """The character with the given values on C, in the order of C."""
        dev = np.abs(self.table - np.asarray(values)).max(axis=1)
        hits = np.flatnonzero(dev < 1e-9)
        if len(hits) != 1:
            raise ValueError("the values are not a character of C")
        return self.chars[hits[0]]

    def conductor(self, chi: "TorusChar") -> int:
        return int(self.conductors[chi.row])

    # -- distinguished characters ---------------------------------------------------

    def _blj_coeff(self, b, lam: int, j: int):
        """(coeff, p^lam) with chi_{b,lam,j}(t) = psi(coeff * eta_t / p^lam);
        b may be an integer array."""
        mod = self.p ** lam
        half = pow(2, -1, mod)
        if self.tspec.kind == "unramified":
            if not (j < lam <= 3 * j):
                raise ValueError("need j < lam <= 3j")
            return (-half * b * self.d) % mod, mod
        if not (j < lam <= 3 * j + 1):
            raise ValueError("need j < lam <= 3j+1")
        return (((-1) ** lam) * half * b) % mod, mod

    def eta0(self, t) -> int:
        """The excluded conductor-one character, by its closed form.

        eta0(g) = (2 d (x-1) / p) with the convention (0/p) = +1; requires
        the unramified kind.
        """
        if self.tspec.kind != "unramified":
            raise ValueError("eta0 lives on unramified tori")
        val = legendre(2 * self.d * (t.xi - 1), self.p)
        return 1 if val == 0 else val

    def eta0_via_hilbert90(self, t) -> int:
        """eta0 through a solution g = z * conj(z)^{-1}, that is
        z^2 = N(z) g, among the residue units z."""
        if self.tspec.kind != "unramified":
            raise ValueError("eta0 lives on unramified tori")
        p = self.p
        ext1 = QuadExt(p, "unramified", 1)
        z = np.stack(np.divmod(np.arange(p * p), p), axis=1)
        norms = ext1.norm_of(z[:, 0], z[:, 1])
        hits = (norms != 0) & (ext1.mul(z, z) == norms[:, None]
                               * np.asarray(t) % p).all(axis=1)
        if not hits.any():
            raise ArithmeticError("no Hilbert-90 solution found")
        return legendre(int(norms[np.argmax(hits)]), p)

    # -- the multiplicity table -------------------------------------------------

    def multiplicities(self):
        vals = self.table.conj() @ self.ops.traces() / len(self.C)
        mults = np.rint(vals.real).astype(int)
        return [{"char": chi, "conductor": int(cond), "mult": int(mult),
                 "deviation": float(abs(val - mult))}
                for chi, cond, mult, val in zip(self.chars, self.conductors,
                                                mults, vals)]

    # -- the appearance rule -------------------------------------------------------

    @cached_property
    def eta0_char(self) -> "TorusChar":
        """The excluded conductor-one character eta0, as a row of the
        table; requires the unramified kind."""
        return self.character_of([self.eta0(t) for t in self.C])

    def _weight_datum(self, chi: "TorusChar"):
        """Where the weight vector of chi starts, or None when chi does not
        appear: () for the delta at 0; (j, a, e) for the weight sum over T_j
        of the delta at model_point(a, e), with a from `_match_b`; (1,) for
        the search over the seeds of T_1, the case u = 1 at conductor <= 1,
        where every character but eta0 appears."""
        cond = self.conductor(chi)
        if self.tspec.u_val == 1:
            if cond <= 1:
                return None if chi.row == self.eta0_char.row else (1,)
            if cond % 2 == 0:
                return None
            j = (cond + 1) // 2
            a, e = self._match_b(chi, cond, j, j, unit_xi=True), -j
        else:
            if cond == 0:
                return ()
            if cond % 2:
                return None
            j = cond // 2
            if self.tspec.kind == "ramified":
                a, e = self._match_b(chi, j, j // 2, j), -1 - j
            else:
                a, e = self._match_b(chi, 2 * j, j, j), -j
        return None if a is None else (j, a, e)

    def appearance_predicate(self, chi: "TorusChar") -> bool:
        return self._weight_datum(chi) is not None

    # -- eigenvectors ----------------------------------------------------------------

    def model_point(self, a, pi_exponent: int):
        """Module coordinates of pi^e * a under the truncation dictionary.

        Points v of the ambient plane map to the module through w = p^{m+1} v
        with n = 2m+1; pi_exponent counts powers of the extension uniformizer
        applied to a (so p-powers count twice for the ramified kind).  The
        point is an int64 array reduced mod the moduli.
        """
        p = self.p
        m = (self.n - 1) // 2
        if self.tspec.kind == "unramified":
            if pi_exponent % 1:
                raise ValueError("unramified exponent must be integral")
            e_tot = (m + 1) + pi_exponent
            if e_tot < 0:
                raise ValueError("point not visible at this truncation")
            w = p ** e_tot * np.array([a.xi, self.d * a.eta])
        else:
            e_tot = 2 * (m + 1) + pi_exponent
            # the lattice basis contains the inverse uniformizer, so odd
            # total exponent -1 is still representable
            if e_tot < -1:
                raise ValueError("point not visible at this truncation")
            if e_tot % 2 == 0:
                w = p ** (e_tot // 2) * np.array([a.xi, p * a.eta])
            else:
                w = p ** ((e_tot + 1) // 2) * np.array([a.eta, a.xi])
        return w % np.array(self.module.moduli)

    def _coset_reps(self, sub) -> np.ndarray:
        """Indices in C of the first element of each coset of the subgroup
        sub (an array of pairs), in the order of C."""
        cosets = self._indices(self.ext.mul(self.elems[:, None], sub[None]))
        firsts = np.sort(cosets.min(axis=1))
        return firsts[np.r_[True, firsts[1:] != firsts[:-1]]]

    def _match_b(self, chi, lam: int, j: int, restrict_j: int,
                 unit_xi: bool = False):
        """The first unit a, in (xi, eta) order, with
        chi = chi_{N(a), lam, j} on T_restrict_j, or None."""
        norms, units = self.norm_reps[unit_xi]
        coeff, mod = self._blj_coeff(norms % self.p ** lam, lam, j)
        sub = self.depth >= min(restrict_j, self.level)
        vals = np.array(_roots(mod))[np.outer(coeff, self.eta[sub]) % mod]
        match = (np.abs(vals - self.table[chi.row, sub]) < 1e-9).all(axis=1)
        if not match.any():
            return None
        xi, eta = units[np.argmax(match)]
        return QuadElem(int(xi), int(eta))

    def eigenvector(self, chi: "TorusChar"):
        """Explicit weight vector for an appearing character: the start
        that `_weight_datum` names, summed as chi(g^{-1}) S(g) over the
        torus cosets."""
        datum = self._weight_datum(chi)
        if datum is None:
            raise ValueError("character does not appear")
        if not datum:
            return self.rep.delta_vec(np.zeros(2, dtype=np.int64))
        j, *at = datum
        sub = self.subgroup(j)
        if at:
            return self._weight_sum(chi, sub, self.model_point(*at))
        for c in self.rep.heis.pts:
            for sv in np.eye(self.rep.sdim, dtype=complex):
                vec = self._weight_sum(chi, sub, c, sigma_vec=sv)
                if np.linalg.norm(vec) > 1e-8:
                    return vec
        raise ValueError("character does not appear")

    def _weight_sum(self, chi, sub, point, sigma_vec=None):
        """sum of chi(g^{-1}) S(g) applied to the delta seed at point, over
        the coset representatives g of sub in C."""
        seed = self.rep.delta_vec(point, sigma_vec=sigma_vec)
        reps = self._coset_reps(sub)
        inverses = self._indices(self.elems[reps] * (1, -1)
                                 % (self.ext.mod_xi, self.ext.mod_eta))
        return self.table[chi.row, inverses] @ self.ops[reps].apply(seed)

    def eigen_residual(self, chi, vec) -> float:
        """max over t in C of |S(t) vec - chi(t) vec| / |vec|."""
        nrm = np.linalg.norm(vec)
        if nrm < 1e-12:
            raise ValueError("zero candidate eigenvector")
        vals = self.table[chi.row]
        dev = np.linalg.norm(self.ops.apply(vec) - vals[:, None] * vec, axis=1)
        return float(dev.max() / nrm)


@dataclass
class TorusChar:
    """Character of the finite torus quotient on two cyclic coordinates:
    row `row` of the context's character table."""

    ctx: TorusContext
    a: int                    # exponent on the prime-to-p generator
    b: int                    # exponent on the p-part generator
    row: int

    def __call__(self, t) -> complex:
        return complex(self.ctx.table[self.row, self.ctx.index_of(t)])

    @property
    def label(self) -> str:
        return f"chi[{self.a},{self.b}]"

    def __repr__(self):
        return self.label


def _power(ext, a, k) -> np.ndarray:
    """a^k for an (..., 2) array a and nonnegative integers k broadcasting
    against a[..., 0], by repeated squaring."""
    k = np.asarray(k)
    out = np.broadcast_to((1, 0), np.broadcast(a[..., 0], k).shape + (2,))
    while k.any():
        out = np.where((k % 2 == 1)[..., None], ext.mul(out, a), out)
        a, k = ext.mul(a, a), k // 2
    return out


def _two_cyclic_coordinates(ctx):
    """C = (prime-to-p) x (p-part), both cyclic: the generator orders
    (o1, o2) and the coordinates (i, j) with t = g1^i g2^j of each t in C.
    g1 (g2) is the p_part-th (A-th) power of the first element of C whose
    such power has the largest order."""
    ext, C, N = ctx.ext, ctx.elems, len(ctx.elems)
    p_part = ext.p ** next(e for e in range(N) if N % ext.p ** (e + 1))
    divisors = np.array([k for k in range(1, N + 1) if N % k == 0])
    # the order of t is the least divisor k of N with t^k = 1, and that of
    # t^e is ord(t) / gcd(ord(t), e)
    ones = (_power(ext, C[:, None], divisors) == (1, 0)).all(axis=-1)
    orders = divisors[np.argmax(ones, axis=1)]
    gens = []
    for e in (p_part, N // p_part):
        power_orders = orders // np.gcd(orders, e)
        first = np.argmax(power_orders)
        gens.append((_power(ext, C[first], e), int(power_orders[first])))
    (g1, o1), (g2, o2) = gens
    if o1 * o2 != N:
        raise AssertionError("torus quotient is not two-cyclic as expected")
    i, j = np.divmod(np.arange(N), o2)
    at = ctx._indices(ext.mul(_power(ext, g1, i), _power(ext, g2, j)))
    if (np.sort(at) != np.arange(N)).any():
        raise AssertionError("generator decomposition failed")
    coords = np.empty((2, N), dtype=int)
    coords[:, at] = i, j
    return o1, o2, coords


# -- top-level operations -----------------------------------------------------


def multiplicity_report(ctx: TorusContext):
    """Computed and predicted multiplicity tables, and whether they agree."""
    table = ctx.multiplicities()
    computed = {rec["char"].label: rec["mult"] for rec in table}
    predicted = {rec["char"].label: int(ctx.appearance_predicate(rec["char"]))
                 for rec in table}
    return {"table": table, "computed": computed, "predicted": predicted,
            "raw_match": computed == predicted,
            "sum_mult": sum(computed.values())}


def product_torus_multiplicities(tspecs: list):
    """Multiplicity table of a product torus acting on the orthogonal sum."""
    ctxs = [TorusContext(ts) for ts in tspecs]
    if len(ctxs) != 2:
        raise NotImplementedError("products of two factors are supported")
    cA, cB = ctxs
    big = direct_sum(cA.module, cB.module)
    iso = direct_sum_isotropic(big, cA.rep.iso, cB.rep.iso)
    rep = RingWeilRep(big, iso)
    dA, dB = cA.module.dim, cB.module.dim
    stack = np.zeros((len(cA.C), len(cB.C), dA + dB, dA + dB), dtype=np.int64)
    stack[:, :, :dA, :dA] = cA.mats[:, None]
    stack[:, :, dA:, dA:] = cB.mats[None]
    T = traces(rep, stack.reshape(-1, dA + dB, dA + dB))
    T = T.reshape(len(cA.C), len(cB.C))
    vals = cA.table.conj() @ T @ cB.table.conj().T / T.size
    mults = np.rint(vals.real).astype(int)
    table = {(chA.label, chB.label): (int(mults[i, k]),
                                      float(abs(vals[i, k] - mults[i, k])))
             for i, chA in enumerate(cA.chars)
             for k, chB in enumerate(cB.chars)}
    return ctxs, big, rep, table


def residue_operator_check(ctx: TorusContext, tol: float = 1e-8):
    """Entrywise check of the closed operator formulas at the residue level.

    Valid for the context of the non-autodual unramified kind at n = 1: the
    model is the residue oscillator representation; the distinguished basis
    phi_s is indexed by points s on the nu-line, and the operators of torus
    elements have an explicit Gauss-coefficient form.
    """
    if (ctx.tspec.kind, ctx.tspec.u_val, ctx.n) != ("unramified", 1, 1):
        raise ValueError("residue check needs the non-autodual unramified "
                         "kind at n = 1")
    p, d = ctx.p, ctx.d
    q = p
    # basis change to the phi_s labels: column s is the delta seed at s*nu,
    # the point (0, d s) in the nu' basis
    P = np.stack([ctx.rep.delta_vec(np.array([0, d * s % p]))
                  for s in range(q)], axis=1)
    Pinv = np.linalg.inv(P)
    w1 = weil_index(p, 1)
    gamma0 = 1  # the trace form over the prime field needs no correction
    results = []
    for t, S in zip(ctx.C, ctx.ops.dense()):
        op = Pinv @ S @ P
        x, y = t.xi % p, t.eta % p
        if y == 0:
            # t is +-1 at the residue: identity, or the signed flip s -> -s
            expected = np.zeros((q, q), dtype=complex)
            sign = 1 if x == 1 else legendre(-1, p)
            for s in range(q):
                expected[s if x == 1 else (-s) % p, s] = sign
        else:
            yinv = pow(y, -1, p)
            half = pow(2, -1, p)
            c = legendre(gamma0 * d * y, p) / (w1 * q ** 0.5)
            expected = np.zeros((q, q), dtype=complex)
            for s in range(q):
                for tt in range(q):
                    argument = (half * gamma0 * d * yinv
                                * (x * (s * s + tt * tt) - 2 * s * tt)) % p
                    expected[tt, s] = c * unit_phase(argument, p)
        dev = float(np.abs(op - expected).max())
        rec = {"t": (t.xi, t.eta), "deviation": dev, "ok": dev <= tol}
        if not (x == 1 and y == 0):
            # trace of the residue operator negates the excluded character
            eta0 = ctx.eta0(t)
            tr = complex(np.trace(op))
            rec["trace_consistent"] = abs(tr + eta0) < 1e-6
            rec["ok"] = rec["ok"] and rec["trace_consistent"]
        results.append(rec)
    return results
