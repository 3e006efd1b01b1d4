"""Norm-one tori of quadratic extensions inside Sp over Z/p^{n+1}.

Base parameters are fixed at r = 1 over Q_p with an unramified character
(conductor 0), so the torus of a quadratic extension embeds 2x2:
multiplication on a suitable lattice basis gives [[x, y],[d y, x]] in the
unramified case and [[x, y],[p y, x]] in the ramified case.  Characters are
carried on a two-cyclic-factor coordinate system with conductor metadata;
multiplicities in the Weil representation are exact rounded inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .oscillator import weil_index
from .rings import QuadExt, legendre, smallest_nonresidue, unit_phase
from .ring_rep import (RingWeilRep, abelianization_character, direct_sum,
                       direct_sum_isotropic, embed_pair, traces)
from .symplectic import (ClosureCapExceeded, GroupElem, SympModule,
                         symplectic_group)


@dataclass(frozen=True)
class TorusSpec:
    p: int
    kind: str                 # "unramified" | "ramified"
    u_val: int = 0            # valuation of the twist element (unramified)
    n: int = 1                # truncation level of the symplectic module
    d: int | None = None      # nonresidue for the unramified extension

    def __post_init__(self):
        if self.kind not in ("unramified", "ramified"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "unramified" and self.u_val not in (0, 1):
            raise ValueError("u_val must be 0 or 1")
        if self.kind == "ramified" and self.u_val:
            raise ValueError("ramified tori have no u_val parameter")

    @property
    def mu(self) -> int:
        # e = 1, conductor 0, trivial different
        return -self.u_val if self.kind == "unramified" else -1


class TorusContext:
    """Finite quotient of the torus, its module, embedding and Weil model,
    and the operators S(t) of every t in C as one `MonomialOps`."""

    def __init__(self, tspec: TorusSpec):
        self.tspec = tspec
        p, n = tspec.p, tspec.n
        self.p = p
        self.n = n
        self.d = (smallest_nonresidue(p) if tspec.d is None else tspec.d)
        if tspec.kind == "unramified":
            if tspec.u_val == 0:
                self.level = n + 1
                self.module = SympModule.standard(p, 1, 0, n)
            else:
                self.level = n
                self.module = SympModule.standard(p, 1, 1, n)
            self.ext = QuadExt(p, "unramified", self.level, d=self.d)
        else:
            self.level = 2 * (n + 1)
            self.module = SympModule.standard(p, 1, 0, n)
            self.ext = QuadExt(p, "ramified", self.level)
        self.C = self.ext.norm_one_group()
        self._index = {t: i for i, t in enumerate(self.C)}
        self.rep = RingWeilRep(self.module)
        self.dim = self.rep.dim
        self._emb_cache = {}
        self._subgroups = {}
        self.ops = self.rep.blocks([self.embed(t) for t in self.C])

    # -- embedding -------------------------------------------------------------

    def embed(self, t) -> GroupElem:
        g = self._emb_cache.get(t)
        if g is None:
            if self.tspec.kind == "unramified":
                mat = [[t.xi, t.eta], [self.d * t.eta, t.xi]]
            else:
                mat = [[t.xi, t.eta], [self.p * t.eta, t.xi]]
            g = GroupElem(self.module, mat)
            self._emb_cache[t] = g
        return g

    # -- congruence subgroups ----------------------------------------------------

    def subgroup(self, j: int):
        """Image of the j-th congruence subgroup in the finite quotient."""
        j = min(j, self.level)
        sub = self._subgroups.get(j)
        if sub is None:
            sub = self._subgroups[j] = self.ext.congruence_subgroup(self.C, j)
        return sub

    def visibility_depth(self) -> int:
        """Smallest j whose congruence subgroup is trivial here."""
        for j in range(self.level + 1):
            if len(self.subgroup(j)) == 1:
                return j
        return self.level

    # -- characters ---------------------------------------------------------------

    def characters(self) -> list:
        return _characters_of(self)

    def conductor(self, chi: "TorusChar") -> int:
        for lam in range(self.level + 1):
            sub = self.subgroup(lam)
            if all(abs(chi(t) - 1) < 1e-9 for t in sub):
                return lam
        raise ValueError(
            f"conductor not resolvable within truncation depth {self.level}")

    # -- distinguished characters ---------------------------------------------------

    def chi_blj(self, b: int, lam: int, j: int):
        """The congruence-subgroup character cut out by the trace form.

        Unramified: defined on T_j for j < lam <= 3j, conductor lam iff b is
        a unit; value psi(-b*d*eta_t / (2 p^lam)).  Ramified: defined on
        T_{2j+1} for j < lam <= 3j+1, conductor 2*lam; value
        psi((-1)^lam * b * eta_t / (2 p^lam)).
        """
        p = self.p
        mod = p ** lam
        half = pow(2, -1, mod)
        if self.tspec.kind == "unramified":
            if not (j < lam <= 3 * j):
                raise ValueError("need j < lam <= 3j")
            coeff = (-half * b * self.d) % mod
        else:
            if not (j < lam <= 3 * j + 1):
                raise ValueError("need j < lam <= 3j+1")
            coeff = (((-1) ** lam) * half * b) % mod

        def value(t):
            return unit_phase(coeff * t.eta, mod)
        return value

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
        """eta0 through a solution g = z * conj(z)^{-1} at the residue level."""
        if self.tspec.kind != "unramified":
            raise ValueError("eta0 lives on unramified tori")
        ext1 = QuadExt(self.p, "unramified", 1, d=self.d % self.p)
        g1 = ext1.elem(t.xi, t.eta)
        for z in ext1.units():
            if ext1.mul(z, ext1.inv(ext1.conj(z))) == g1:
                return legendre(ext1.norm(z), self.p)
        raise ArithmeticError("no Hilbert-90 solution found")

    def theta_j(self, eta: int, j: int):
        """The unique congruence element with prescribed nu-coordinate.

        Unramified: the element of T_j whose eta-part is p^j * eta;
        ramified: the element of T_{2j+1} with eta-part p^j * eta.
        """
        p = self.p
        if self.tspec.kind == "unramified":
            if j < 1:
                raise ValueError("need j >= 1")
            sub = self.subgroup(j)
        else:
            sub = self.subgroup(2 * j + 1)
        target = (p ** j * eta) % self.ext.mod_eta
        hits = [t for t in sub
                if t.eta == target and (t.xi - 1) % p == 0]
        if len(hits) != 1:
            raise ValueError(
                f"theta_{j}({eta}) not determined at truncation "
                f"{self.level}: {len(hits)} candidates")
        return hits[0]

    # -- the multiplicity table -------------------------------------------------

    def multiplicities(self):
        chars = self.characters()
        trs = dict(zip(self.C, self.ops.traces()))
        out = []
        for chi in chars:
            acc = sum(chi(t).conjugate() * trs[t] for t in self.C)
            val = acc / len(self.C)
            mult = int(round(val.real))
            dev = abs(val - mult)
            out.append({"char": chi, "conductor": self.conductor(chi),
                        "mult": mult, "deviation": dev})
        return out

    # -- predicted appearance ------------------------------------------------------

    def appearance_predicate(self, chi: "TorusChar") -> bool:
        cond = self.conductor(chi)
        if cond == 0:
            return True
        if self.tspec.kind == "unramified" and self.tspec.u_val == 0:
            return cond % 2 == 0
        if self.tspec.kind == "ramified":
            if cond % 2:
                return False
            j = cond // 2
            sub = self.subgroup(j)
            norms = sorted({self.ext.norm(a) for a in self.ext.units()})
            for b in norms:
                f = self.chi_blj(b % self.p ** j, j, j // 2)
                if all(abs(chi(t) - f(t)) < 1e-9 for t in sub):
                    return True
            return False
        # unramified, non-autodual
        if cond == 1:
            return any(abs(chi(t) - self.eta0(t)) > 1e-9 for t in self.C)
        if cond % 2 == 0:
            return False
        j = (cond - 1) // 2
        sub = self.subgroup(j + 1)
        cands = sorted({self.ext.norm(a) for a in self.ext.units()
                        if a.xi % self.p != 0})
        for b in cands:
            f = self.chi_blj(b % self.p ** cond, cond, j + 1)
            if all(abs(chi(t) - f(t)) < 1e-9 for t in sub):
                return True
        return False

    # -- eigenvectors ----------------------------------------------------------------

    def model_point(self, a, pi_exponent: int):
        """Module coordinates of pi^e * a under the truncation dictionary.

        Points v of the ambient plane map to the module through w = p^{m+1} v
        with n = 2m+1; pi_exponent counts powers of the extension uniformizer
        applied to a (so p-powers count twice for the ramified kind).
        """
        p = self.p
        m = (self.n - 1) // 2
        if self.tspec.kind == "unramified":
            if pi_exponent % 1:
                raise ValueError("unramified exponent must be integral")
            e_tot = (m + 1) + pi_exponent
            if e_tot < 0:
                raise ValueError("point not visible at this truncation")
            scale = p ** e_tot
            return self.module.reduce((scale * a.xi, scale * self.d * a.eta))
        e_tot = 2 * (m + 1) + pi_exponent
        # the lattice basis contains the inverse uniformizer, so odd total
        # exponent -1 is still representable
        if e_tot % 2 == 0:
            if e_tot < 0:
                raise ValueError("point not visible at this truncation")
            s = p ** (e_tot // 2)
            return self.module.reduce((s * a.xi, s * p * a.eta))
        if e_tot < -1:
            raise ValueError("point not visible at this truncation")
        s = p ** ((e_tot + 1) // 2)
        return self.module.reduce((s * a.eta, s * a.xi))

    def _coset_reps_mod(self, sub):
        reps, covered = [], set()
        for t in self.C:
            if t not in covered:
                reps.append(t)
                covered.update(t * s for s in sub)
        return reps

    def _match_b(self, chi, lam: int, j: int, restrict_j: int,
                 unit_xi: bool = False):
        """Find a unit a with chi = chi_{N(a), lam, j} on the subgroup."""
        sub = self.subgroup(restrict_j)
        for a in self.ext.units():
            if unit_xi and a.xi % self.p == 0:
                continue
            b = self.ext.norm(a)
            f = self.chi_blj(b % self.p ** lam, lam, j)
            if all(abs(chi(t) - f(t)) < 1e-9 for t in sub):
                return a
        return None

    def eigenvector(self, chi: "TorusChar"):
        """Explicit weight vector for an appearing character.

        Built as sum over torus cosets of chi(g^{-1}) S(g) applied to the
        delta seed at the distinguished point of the appropriate shell.
        """
        cond = self.conductor(chi)
        mu = self.tspec.mu
        if self.tspec.kind == "unramified" and self.tspec.u_val == 0:
            if cond == 0:
                return self.rep.delta_vec(self.module.zero())
            if cond % 2:
                raise ValueError("character does not appear")
            j = cond // 2
            a = self._match_b(chi, 2 * j, j, j)
            if a is None:
                raise ValueError("character does not appear")
            point = self.model_point(a, mu // 2 - j)
            return self._weight_sum(chi, self.subgroup(j), point)
        if self.tspec.kind == "ramified":
            if cond == 0:
                return self.rep.delta_vec(self.module.zero())
            if cond % 2:
                raise ValueError("character does not appear")
            j = cond // 2
            a = self._match_b(chi, j, j // 2, j)
            if a is None:
                raise ValueError("character does not appear")
            point = self.model_point(a, mu - j)
            return self._weight_sum(chi, self.subgroup(j), point)
        # unramified, non-autodual
        if cond <= 1:
            if cond == 1 and not self.appearance_predicate(chi):
                raise ValueError("character does not appear")
            sub = self.subgroup(1)
            for c in self.rep.cosets:
                for s in range(self.rep.sdim):
                    sv = np.zeros(self.rep.sdim, dtype=complex)
                    sv[s] = 1.0
                    vec = self._weight_sum(chi, sub, c, sigma_vec=sv)
                    if np.linalg.norm(vec) > 1e-8:
                        return vec
            raise ValueError("character does not appear")
        if cond % 2 == 0:
            raise ValueError("character does not appear")
        j = (cond - 1) // 2
        a = self._match_b(chi, cond, j + 1, j + 1, unit_xi=True)
        if a is None:
            raise ValueError("character does not appear")
        point = self.model_point(a, (mu - 1) // 2 - j)
        return self._weight_sum(chi, self.subgroup(j + 1), point)

    def _weight_sum(self, chi, sub, point, sigma_vec=None):
        """sum of chi(g^{-1}) S(g) applied to the delta seed at point, over
        the coset representatives g of sub in C."""
        seed = self.rep.delta_vec(point, sigma_vec=sigma_vec)
        reps = self._coset_reps_mod(sub)
        weights = np.array([chi(g.inv()) for g in reps])
        return weights @ self.ops.apply(seed)[[self._index[g] for g in reps]]

    def eigen_residual(self, chi, vec) -> float:
        """max over t in C of |S(t) vec - chi(t) vec| / |vec|."""
        nrm = np.linalg.norm(vec)
        if nrm < 1e-12:
            raise ValueError("zero candidate eigenvector")
        vals = np.array([chi(t) for t in self.C])
        dev = np.linalg.norm(self.ops.apply(vec) - vals[:, None] * vec, axis=1)
        return float(dev.max() / nrm)


@dataclass
class TorusChar:
    """Character of the finite torus quotient on two cyclic coordinates."""

    ctx: TorusContext
    a: int                    # exponent on the prime-to-p generator
    b: int                    # exponent on the p-part generator
    _table: dict

    def __call__(self, t) -> complex:
        return self._table[t]

    @property
    def order(self) -> int:
        o1 = self.ctx._o1 // gcd(self.ctx._o1, self.a) if self.a else 1
        o2 = self.ctx._o2 // gcd(self.ctx._o2, self.b) if self.b else 1
        return o1 * o2 // gcd(o1, o2)

    @property
    def label(self) -> str:
        return f"chi[{self.a},{self.b}]"

    def __repr__(self):
        return self.label


def _order_of(ext, t):
    k = 1
    cur = t
    one = ext.one
    while cur != one:
        cur = ext.mul(cur, t)
        k += 1
        if k > 10 ** 6:
            raise ArithmeticError("order computation ran away")
    return k


def _characters_of(ctx: TorusContext) -> list:
    """All characters of the abelian group C = (prime-to-p) x (p-part)."""
    ext = ctx.ext
    C = ctx.C
    N = len(C)
    p = ctx.p
    p_part = 1
    while N % (p_part * p) == 0:
        p_part *= p
    A = N // p_part
    g1 = max(C, key=lambda t: _order_of(ext, ext.pow(t, p_part)))
    g1 = ext.pow(g1, p_part)
    g2 = max(C, key=lambda t: _order_of(ext, ext.pow(t, A)))
    g2 = ext.pow(g2, A)
    o1, o2 = _order_of(ext, g1), _order_of(ext, g2)
    if o1 * o2 != N:
        raise AssertionError("torus quotient is not two-cyclic as expected")
    ctx._o1, ctx._o2 = o1, o2
    coords = {}
    for i in range(o1):
        gi = ext.pow(g1, i)
        for j in range(o2):
            coords[ext.mul(gi, ext.pow(g2, j))] = (i, j)
    if len(coords) != N:
        raise AssertionError("generator decomposition failed")
    out = []
    for a in range(o1):
        for b in range(o2):
            table = {t: unit_phase(a * i, o1) * unit_phase(b * j, o2)
                     for t, (i, j) in coords.items()}
            out.append(TorusChar(ctx, a, b, table))
    return out


# -- top-level operations -----------------------------------------------------


def multiplicity_report(ctx: TorusContext, cap: int = 2_000_000):
    """Computed table, predicate table, and the global-twist diagnostic."""
    table = ctx.multiplicities()
    computed = {rec["char"].label: rec["mult"] for rec in table}
    predicted = {rec["char"].label: int(ctx.appearance_predicate(rec["char"]))
                 for rec in table}
    raw_match = computed == predicted
    twists, skipped = _twist_candidates(ctx, cap)
    matching = []
    chars = [rec["char"] for rec in table]
    for name, twist in twists:
        twisted = {}
        for chi in chars:
            prod_vals = {t: chi(t) * twist[t] for t in ctx.C}
            target = next(c for c in chars
                          if all(abs(c(t) - prod_vals[t]) < 1e-9
                                 for t in ctx.C))
            twisted[chi.label] = computed[target.label]
        if twisted == predicted:
            matching.append(name)
    return {"table": table, "computed": computed, "predicted": predicted,
            "raw_match": raw_match, "matching_twists": matching,
            "twist_skipped": skipped,
            "sum_mult": sum(computed.values()), "dim": ctx.dim,
            "visibility_depth": ctx.visibility_depth()}


def _twist_candidates(ctx: TorusContext, cap: int):
    """Characters of the ambient group's abelianization, pulled to the torus,
    and why only the trivial one is returned when its closure exceeds cap.

    Only the identity twist exists for p >= 5 (the group is perfect); for
    p = 3 the diagnostic also tries the nontrivial pullbacks.
    """
    out = [("trivial", {t: 1.0 for t in ctx.C})]
    if ctx.p != 3:
        return out, None
    try:
        G = symplectic_group(ctx.module, cap=cap)
    except ClosureCapExceeded as exc:
        return out, str(exc)
    _, k = abelianization_character(G, 0)
    for a in range(1, k):
        chi, _ = abelianization_character(G, a)
        out.append((f"ab^{a}", {t: chi(ctx.embed(t)) for t in ctx.C}))
    return out, None


def product_torus_multiplicities(tspecs: list):
    """Multiplicity table of a product torus acting on the orthogonal sum."""
    ctxs = [TorusContext(ts) for ts in tspecs]
    if len(ctxs) != 2:
        raise NotImplementedError("products of two factors are supported")
    cA, cB = ctxs
    big = direct_sum(cA.module, cB.module)
    iso = direct_sum_isotropic(big, cA.rep.iso, cB.rep.iso)
    rep = RingWeilRep(big, iso)
    table = {}
    pairs = [(tA, tB) for tA in cA.C for tB in cB.C]
    trs = dict(zip(pairs, traces(rep, [embed_pair(big, cA.embed(tA),
                                                  cB.embed(tB))
                                       for tA, tB in pairs])))
    charsA, charsB = cA.characters(), cB.characters()
    for chA in charsA:
        for chB in charsB:
            acc = sum(chA(tA).conjugate() * chB(tB).conjugate() * tr
                      for (tA, tB), tr in trs.items())
            val = acc / (len(cA.C) * len(cB.C))
            mult = int(round(val.real))
            table[(chA.label, chB.label)] = (mult, abs(val - mult))
    return ctxs, big, rep, table


def residue_operator_check(tspec: TorusSpec, tol: float = 1e-8):
    """Entrywise check of the closed operator formulas at the residue level.

    Valid for the non-autodual unramified kind: the model is the residue
    oscillator representation; the distinguished basis phi_s is indexed by
    points s on the nu-line, and the operators of torus elements have an
    explicit Gauss-coefficient form.
    """
    if tspec.kind != "unramified" or tspec.u_val != 1:
        raise ValueError("residue check needs the non-autodual unramified kind")
    ctx = TorusContext(TorusSpec(tspec.p, "unramified", 1, 1, tspec.d))
    p, d = ctx.p, ctx.d
    q = p
    # basis change to the phi_s labels: column s is the delta seed at s*nu
    cols = []
    for s in range(q):
        point = ctx.module.reduce((0, (d * s) % p))  # s*nu in the nu' basis
        cols.append(ctx.rep.delta_vec(point))
    P = np.stack(cols, axis=1)
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
    return ctx, results
