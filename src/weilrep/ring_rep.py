"""Weil representations of symplectic groups over Z/p^{n+1}.

The model is induced from the canonical maximal invariant isotropic
submodule U: functions phi on W valued in the residue oscillator space,
obeying phi(x+u) = psi(beta(x,u)/2) rho(u) phi(x) for u in the orthogonal
of U.  Operators act block-monomially on U-perp cosets; the sigma-block is
the canonical finite-field representation of the residue space pulled back
through the reduction morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .rings import unit_phase, vp
from .linalg import mat_inv, mat_mul, mat_rank, mat_vec
from .oscillator import OscillatorRep
from .symplectic import (FiniteGroup, GroupElem, SympModule, orbits,
                         transvection_generators)


# -- residue space -----------------------------------------------------------


def symplectic_basis_field(gram, p):
    """Columns of T form a symplectic basis (e_1..e_k, f_1..f_k) over F_p."""
    dim = len(gram)
    if dim == 0:
        return tuple()
    def beta(v, w):
        return sum(v[i] * gram[i][j] * w[j]
                   for i in range(dim) for j in range(dim)) % p
    avail = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    es, fs = [], []
    while avail:
        e = avail[0]
        f = next((v for v in avail[1:] if beta(e, v) % p), None)
        if f is None:
            raise ValueError("degenerate residue form")
        c = pow(beta(e, f), -1, p)
        f = tuple(x * c % p for x in f)
        rest = []
        for v in avail:
            if v == e:
                continue
            w = tuple((v[i] - beta(v, f) * e[i] + beta(v, e) * f[i]) % p
                      for i in range(dim))
            if any(w):
                rest.append(w)
        # keep a linearly independent subset of the projected complement
        rest = _li_subset(rest, p)
        es.append(e)
        fs.append(f)
        avail = rest
    cols = es + fs
    T = tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))
    return T


def _li_subset(vecs, p):
    out = []
    rows = []
    for v in vecs:
        cand = rows + [list(v)]
        if mat_rank(cand, p) > len(rows):
            rows = cand
            out.append(v)
    return out


@dataclass
class IsotropicData:
    spec: SympModule
    u_box: tuple              # divisor exponents of U
    uperp_box: tuple          # divisor exponents of U-perp
    res_coords: tuple         # coordinates carrying the residue space
    res_gram: tuple           # residue symplectic form over F_p
    T: tuple                  # change of basis to a standard symplectic basis
    Tinv: tuple
    l_res: int                # half the residue dimension

    def reduce_morphism(self, g: GroupElem):
        """Image of g in Sp(residue) in standard symplectic coordinates."""
        p = self.spec.p
        k = len(self.res_coords)
        if k == 0:
            return tuple()
        cols = []
        for gj in self.res_coords:
            scale = p ** self.uperp_box[gj]
            img = g.act(self.spec.smul(scale, self.spec.basis_vector(gj)))
            col = []
            for gi in self.res_coords:
                num = img[gi]
                den = p ** self.uperp_box[gi]
                if num % den:
                    raise AssertionError("U-perp not invariant under g")
                col.append((num // den) % p)
            cols.append(col)
        R = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
        return mat_mul(self.Tinv, mat_mul(R, self.T, p), p)

    def project(self, u):
        """Class of u in U-perp/U, in standard residue coordinates."""
        p = self.spec.p
        if not self.res_coords:
            return tuple()
        vec = []
        for gi in self.res_coords:
            den = p ** self.uperp_box[gi]
            if u[gi] % den:
                raise AssertionError("element not in U-perp")
            vec.append((u[gi] // den) % p)
        return mat_vec(self.Tinv, tuple(vec), p)


def scaled_pair_flip(spec: SympModule) -> GroupElem | None:
    """The symplectic swap u_i -> -v_i, v_i -> u_i on the scaled pairs.

    Transvections of a mixed-moduli module act trivially between the two
    scaled coordinate blocks, so they alone do not generate the symplectic
    group there; this flip (the reduction of a lattice-stabilizer element)
    is what rules out the spurious invariant boxes.
    """
    if spec.r is None or spec.l is None:
        return None
    l_real = spec.l if spec.flavor == "B" else spec.r - spec.l
    if l_real == 0 or l_real == spec.r:
        return None
    r = spec.r
    mat = [[int(i == j) for j in range(spec.dim)] for i in range(spec.dim)]
    for i in range(l_real):
        mat[i][i] = 0
        mat[r + i][r + i] = 0
        mat[r + i][i] = -1
        mat[i][r + i] = 1
    return GroupElem(spec, mat)


def invariance_generators(spec: SympModule) -> list:
    gens = transvection_generators(spec)
    flip = scaled_pair_flip(spec)
    if flip is not None:
        if not flip.is_symplectic():
            raise AssertionError("scaled-pair flip is not symplectic")
        gens = gens + [flip]
    return gens


def canonical_isotropic(spec: SympModule, gens=None) -> IsotropicData:
    """The unique maximal Sp-invariant isotropic box submodule.

    Searched over all coordinate boxes and certified: isotropy, invariance
    under the transvections plus the scaled-pair flip, maximality, and the
    residue-field structure (m * U-perp inside U, nondegenerate reduced
    form).
    """
    p, M = spec.p, spec.modulus
    exps = spec.exps
    dim = spec.dim
    if gens is None:
        gens = invariance_generators(spec)
    candidates = []
    for divs in product(*[range(e + 1) for e in exps]):
        if not _box_isotropic(spec, divs):
            continue
        if not _box_invariant(spec, divs, gens):
            continue
        candidates.append(divs)
    best = max(candidates, key=lambda d: spec.box_size(d))
    for other in candidates:
        if not _box_contains(spec, best, other):
            raise AssertionError(
                "no unique maximal invariant isotropic submodule")
    if spec.box_size(best) == 1 and spec.n == 0:
        raise ValueError(
            "no nonzero invariant isotropic submodule; use the field-level "
            "oscillator representation")
    u_box = tuple(min(c, e) for c, e in zip(best, exps))
    uperp_box = spec.dual_box(u_box)
    res_coords = tuple(i for i in range(dim)
                       if min(u_box[i], exps[i]) > uperp_box[i])
    for i in range(dim):
        gap = min(u_box[i], exps[i]) - uperp_box[i]
        if gap not in (0, 1):
            raise AssertionError("U-perp/U is not elementary abelian")
    k = len(res_coords)
    res_gram = []
    for gi in res_coords:
        row = []
        for gj in res_coords:
            val = (p ** (uperp_box[gi] + uperp_box[gj])) * spec.gram[gi][gj]
            val %= M
            if val % (p ** spec.n):
                raise AssertionError("residue form not in the minimal ideal")
            row.append((val // p ** spec.n) % p)
        res_gram.append(tuple(row))
    res_gram = tuple(res_gram)
    T = symplectic_basis_field(res_gram, p) if k else tuple()
    Tinv = mat_inv(T, p) if k else tuple()
    return IsotropicData(spec, u_box, uperp_box, res_coords, res_gram,
                         T, Tinv, k // 2)


def _box_isotropic(spec, divs):
    p, M = spec.p, spec.modulus
    for i in range(spec.dim):
        for j in range(spec.dim):
            if spec.gram[i][j] % M == 0:
                continue
            e = min(divs[i], spec.exps[i]) + min(divs[j], spec.exps[j])
            if (p ** e * spec.gram[i][j]) % M:
                return False
    return True


def _box_invariant(spec, divs, gens):
    p = spec.p
    for g in gens:
        for j in range(spec.dim):
            cj = min(divs[j], spec.exps[j])
            for i in range(spec.dim):
                ci = p ** min(divs[i], spec.exps[i])
                if (g.mat[i][j] * p ** cj) % ci:
                    return False
    return True


def _box_contains(spec, outer, inner):
    """outer-box contains inner-box iff inner's divisors dominate."""
    return all(min(o, e) <= min(i, e)
               for o, i, e in zip(outer, inner, spec.exps))


# -- the induced representation ----------------------------------------------


class RingWeilRep:
    """Genuine Weil representation of Sp(W) for W over Z/p^{n+1}."""

    def __init__(self, spec: SympModule, iso: IsotropicData | None = None,
                 scale: int = 1, gens=None):
        self.spec = spec
        self.scale = scale
        self.iso = iso if iso is not None else canonical_isotropic(spec, gens)
        self.p = spec.p
        self.M = spec.modulus
        self.half = pow(2, -1, self.M)
        self.cosets = spec.quotient_reps(self.iso.uperp_box)
        self.cindex = {c: i for i, c in enumerate(self.cosets)}
        self.l_res = self.iso.l_res
        self.sigma = (OscillatorRep(self.l_res, self.p, scale)
                      if self.l_res > 0 else None)
        self.sdim = self.p ** self.l_res
        self.dim = len(self.cosets) * self.sdim
        self._rho_cache: dict = {}
        self._sigma_cache: dict = {}

    def psi(self, c: int) -> complex:
        return unit_phase(self.scale * c, self.M)

    # -- residue operators ---------------------------------------------------

    def rho_res(self, ubar) -> np.ndarray:
        if self.sigma is None:
            return np.ones((1, 1), dtype=complex)
        cached = self._rho_cache.get(ubar)
        if cached is None:
            cached = self.sigma.rho(ubar, 0)
            self._rho_cache[ubar] = cached
        return cached

    def sigma_op(self, g: GroupElem) -> np.ndarray:
        if self.sigma is None:
            return np.ones((1, 1), dtype=complex)
        R = self.iso.reduce_morphism(g)
        cached = self._sigma_cache.get(R)
        if cached is None:
            cached = self.sigma.op(R)
            self._sigma_cache[R] = cached
        return cached

    # -- block-monomial structure ---------------------------------------------

    def coset_of(self, v) -> int:
        return self.cindex[self.spec.quotient_reduce(v, self.iso.uperp_box)]

    def blocks(self, g: GroupElem):
        """Yield (row_coset, col_coset, phase, residue_class) for S(g).

        The full block is phase * sigma(g) @ rho_res(residue_class).
        """
        spec = self.spec
        ginv = g.inverse()
        out = []
        for ci, x in enumerate(self.cosets):
            y = ginv.act(x)
            xc = spec.quotient_reduce(y, self.iso.uperp_box)
            u = spec.sub(y, xc)
            ph = self.psi(self.half * spec.form(xc, u))
            out.append((ci, self.cindex[xc], ph, self.iso.project(u)))
        return out

    def op(self, g: GroupElem) -> np.ndarray:
        s = self.sdim
        sig = self.sigma_op(g)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for ci, cj, ph, ubar in self.blocks(g):
            out[ci * s:(ci + 1) * s, cj * s:(cj + 1) * s] = \
                ph * (sig @ self.rho_res(ubar))
        return out

    def trace(self, g: GroupElem) -> complex:
        sig = self.sigma_op(g)
        tr = 0.0 + 0.0j
        for ci, cj, ph, ubar in self.blocks(g):
            if ci == cj:
                tr += ph * np.trace(sig @ self.rho_res(ubar))
        return tr

    # -- Heisenberg action on the same space ----------------------------------

    def heis_op(self, w, t: int = 0) -> np.ndarray:
        spec = self.spec
        s = self.sdim
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for ci, x in enumerate(self.cosets):
            target = spec.add(x, w)
            xc = spec.quotient_reduce(target, self.iso.uperp_box)
            u = spec.sub(target, xc)
            ph = self.psi(t + self.half * spec.form(x, w)) \
                * self.psi(self.half * spec.form(xc, u))
            cj = self.cindex[xc]
            out[ci * s:(ci + 1) * s, cj * s:(cj + 1) * s] = \
                ph * self.rho_res(self.iso.project(u))
        return out

    # -- distinguished vectors -------------------------------------------------

    def sigma_vacuum(self) -> np.ndarray:
        v = np.zeros(self.sdim, dtype=complex)
        v[0] = 1.0  # index of y = 0 in lexicographic order
        return v

    def delta_vec(self, point, sigma_vec=None) -> np.ndarray:
        """Model vector of the delta function seeded at the given point.

        phi is supported on point + U-perp with phi(point) = sigma_vec.
        """
        spec = self.spec
        if sigma_vec is None:
            sigma_vec = self.sigma_vacuum()
        out = np.zeros(self.dim, dtype=complex)
        xc = spec.quotient_reduce(point, self.iso.uperp_box)
        u = spec.sub(xc, point)
        ph = self.psi(self.half * spec.form(point, u))
        block = ph * (self.rho_res(self.iso.project(u)) @ sigma_vec)
        ci = self.cindex[xc]
        out[ci * self.sdim:(ci + 1) * self.sdim] = block
        return out


def faithful_model(spec: SympModule) -> tuple[SympModule, bool]:
    """The module actually carrying the level-n Weil representation.

    When the realized lattice invariant equals r the literal level-n module
    is annihilated by the maximal ideal and carries only the residue-level
    information; the level-n member of the tower is then the module at depth
    2n+1, which the truncation identification matches with functions
    supported on the level-n shell.
    """
    if spec.r is None or spec.l is None:
        return spec, False
    l_real = spec.l if spec.flavor == "B" else spec.r - spec.l
    if l_real == spec.r and spec.r >= 1 and spec.n >= 1:
        lifted = SympModule.standard(spec.p, spec.r, spec.r, 2 * spec.n + 1,
                                     flavor="B")
        return lifted, True
    return spec, False


def build_ring_rep(spec: SympModule, scale: int = 1,
                   lift_degenerate: bool = True):
    """Construct the canonical representation for a standard module spec."""
    model_spec, lifted = (faithful_model(spec) if lift_degenerate
                          else (spec, False))
    rep = RingWeilRep(model_spec, scale=scale)
    rep.lifted = lifted
    rep.requested_spec = spec
    return rep


# -- restriction to a stabilizer ----------------------------------------------


def sigma_gx(rep: RingWeilRep, G, x):
    """The stabilizer representation attached to the coset of x.

    Returns (stabilizer elements, operator map g -> matrix on the sigma
    space): sigma(g) rho(g^{-1}x - x, beta(x, g^{-1}x)/2).
    """
    spec = rep.spec
    xhat = spec.quotient_reduce(x, rep.iso.uperp_box)
    stab = [g for g in G
            if spec.quotient_reduce(g.act(x), rep.iso.uperp_box) == xhat]

    def op(g: GroupElem) -> np.ndarray:
        y = g.inverse().act(x)
        u = spec.sub(y, x)
        t = (rep.half * spec.form(x, y)) % rep.M
        return rep.sigma_op(g) @ (rep.psi(t) * rep.rho_res(rep.iso.project(u)))

    return stab, op


# -- decomposition -----------------------------------------------------------


@dataclass
class Summand:
    label: tuple
    dim: int
    basis: np.ndarray           # dim x d, orthonormal columns
    projector: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.projector is None:
            self.projector = self.basis @ self.basis.conj().T


def _minus_identity(spec: SympModule) -> GroupElem:
    return GroupElem(spec, [[(-1 if i == j else 0) for j in range(spec.dim)]
                            for i in range(spec.dim)], check=False)


def decompose(rep: RingWeilRep, group: FiniteGroup | None = None,
              gens=None) -> list[Summand]:
    """Orbit-support and parity decomposition of the representation.

    Summands are labelled ('sigma', eps) for the zero-coset block and
    ('orbit', representative, eps) for each nonzero orbit of cosets;
    eps is the -Id eigenvalue, omitted when -Id acts by a scalar there.
    """
    spec = rep.spec
    if gens is None:
        gens = group.gens if (group is not None and group.gens) else \
            transvection_generators(spec)
    act = lambda g, c: spec.quotient_reduce(g.act(c), rep.iso.uperp_box)
    orbs = orbits(gens, rep.cosets, act=act)
    zero = spec.quotient_reduce(spec.zero(), rep.iso.uperp_box)
    minus = _minus_identity(spec)
    S_minus = rep.op(minus)
    out = []
    for orb in orbs:
        sel = np.zeros(rep.dim, dtype=bool)
        for c in orb:
            i = rep.cindex[c]
            sel[i * rep.sdim:(i + 1) * rep.sdim] = True
        is_zero_orbit = (len(orb) == 1 and orb[0] == zero)
        tag = "sigma" if is_zero_orbit else "orbit"
        base_label = (tag,) if is_zero_orbit else (tag, orb[0])
        Msub = S_minus[np.ix_(sel, sel)]
        for eps in (+1, -1):
            proj = (np.eye(Msub.shape[0]) + eps * Msub) / 2
            d = int(round(np.trace(proj).real))
            if d == 0:
                continue
            # orthonormal basis of the eps-eigenspace inside the support block
            vals, vecs = np.linalg.eigh((proj + proj.conj().T) / 2)
            cols = vecs[:, vals > 0.5]
            full = np.zeros((rep.dim, cols.shape[1]), dtype=complex)
            full[sel, :] = cols
            label = base_label + ((eps,) if _minus_splits(Msub) else (None,))
            out.append(Summand(label, cols.shape[1], full))
            if not _minus_splits(Msub):
                break
    total = sum(s.dim for s in out)
    if total != rep.dim:
        raise AssertionError("summand dimensions do not sum to the model dim")
    return out


def _minus_splits(Msub) -> bool:
    """True when -Id acts on the block with both eigenvalues present."""
    tr = np.trace(Msub).real
    return abs(abs(tr) - Msub.shape[0]) > 1e-8


def summand_characters(rep: RingWeilRep, group: FiniteGroup,
                       summands: list[Summand]):
    """chi_s(g) per summand per group element (dense, deterministic order)."""
    chars = np.zeros((len(summands), len(group)), dtype=complex)
    projs = [s.projector for s in summands]
    for gi, g in enumerate(group):
        op = rep.op(g)
        for si, P in enumerate(projs):
            chars[si, gi] = np.einsum("ij,ji->", P, op)
    return chars


def character_norm(group, rep: RingWeilRep):
    """(1/|G|) sum |tr S(g)|^2, with its deviation from the nearest integer."""
    total = 0.0
    n = 0
    for g in group:
        total += abs(rep.trace(g)) ** 2
        n += 1
    val = total / n
    return int(round(val)), abs(val - round(val))


# -- abelianization / twist diagnostics ---------------------------------------


def derived_subgroup(group: FiniteGroup) -> set:
    """Normal closure of the commutators of the generators."""
    gens = group.gens if group.gens else list(group)
    comms = {}
    for a in gens:
        ainv = a.inverse()
        for b in gens:
            c = a * b * ainv * b.inverse()
            comms[c.mat] = c
    dgens = list(comms.values())
    seen = dict(comms)
    seen[group.identity().mat] = group.identity()
    frontier = list(seen.values())
    gen_pairs = [(g, g.inverse()) for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for y in dgens:
                z = x * y
                if z.mat not in seen:
                    seen[z.mat] = z
                    new.append(z)
            for g, ginv in gen_pairs:
                z = g * x * ginv
                if z.mat not in seen:
                    seen[z.mat] = z
                    new.append(z)
        frontier = new
    return set(seen.values())


def abelianization_cosets(group: FiniteGroup):
    """Map element -> coset index of the derived subgroup, plus coset reps."""
    cached = getattr(group, "_ab_cache", None)
    if cached is not None:
        return cached
    D = derived_subgroup(group)
    labels = {}
    reps = []
    for g in group:
        if g.mat in labels:
            continue
        rep_idx = len(reps)
        reps.append(g)
        for d in D:
            labels[(g * d).mat] = rep_idx
    group._ab_cache = (labels, reps)
    return labels, reps


def abelianization_character(group: FiniteGroup, a: int):
    """The a-th character of the (cyclic) abelianization, as a callable."""
    labels, reps = abelianization_cosets(group)
    k = len(reps)
    if a % k == 0:
        return lambda g: 1.0, k
    ident_label = labels[group.identity().mat]
    gen = next(r for r in reps if labels[r.mat] != ident_label)
    power_of = {ident_label: 0}
    cur = gen
    for e in range(1, k):
        power_of[labels[cur.mat]] = e
        cur = cur * gen
    if len(power_of) != k:
        raise AssertionError("abelianization is not cyclic")
    return (lambda g: unit_phase(a * power_of[labels[g.mat]], k)), k


class TwistedRep:
    """A representation multiplied by a character of the group."""

    def __init__(self, rep: RingWeilRep, char):
        self._rep = rep
        self._char = char

    def op(self, g):
        return self._char(g) * self._rep.op(g)

    def trace(self, g):
        return self._char(g) * self._rep.trace(g)

    def __getattr__(self, name):
        return getattr(self._rep, name)


# -- tensor / direct-sum structure ---------------------------------------------


def direct_sum(specA: SympModule, specB: SympModule) -> SympModule:
    if (specA.p, specA.n) != (specB.p, specB.n):
        raise ValueError("direct sum needs matching p and level")
    moduli = specA.moduli + specB.moduli
    da, db = specA.dim, specB.dim
    gram = [[0] * (da + db) for _ in range(da + db)]
    for i in range(da):
        for j in range(da):
            gram[i][j] = specA.gram[i][j]
    for i in range(db):
        for j in range(db):
            gram[da + i][da + j] = specB.gram[i][j]
    return SympModule(specA.p, specA.n, moduli, gram)


def direct_sum_isotropic(big: SympModule, isoA: IsotropicData,
                         isoB: IsotropicData) -> IsotropicData:
    """Blockwise isotropic data for an orthogonal direct sum.

    The standard symplectic residue basis is interleaved globally:
    (e-vectors of A, e-vectors of B, f-vectors of A, f-vectors of B), so the
    oscillator basis of the sum is the tensor basis of the factors.
    """
    p = big.p
    da = isoA.spec.dim
    u_box = isoA.u_box + isoB.u_box
    uperp_box = isoA.uperp_box + isoB.uperp_box
    res_coords = isoA.res_coords + tuple(da + i for i in isoB.res_coords)
    ka, kb = len(isoA.res_coords), len(isoB.res_coords)
    k = ka + kb
    gram = [[0] * k for _ in range(k)]
    for i in range(ka):
        for j in range(ka):
            gram[i][j] = isoA.res_gram[i][j]
    for i in range(kb):
        for j in range(kb):
            gram[ka + i][ka + j] = isoB.res_gram[i][j]
    la, lb = isoA.l_res, isoB.l_res
    T = [[0] * k for _ in range(k)]
    for j in range(2 * la):
        col = j if j < la else la + lb + (j - la)
        for i in range(ka):
            T[i][col] = isoA.T[i][j]
    for j in range(2 * lb):
        col = la + j if j < lb else la + lb + la + (j - lb)
        for i in range(kb):
            T[ka + i][col] = isoB.T[i][j]
    T = tuple(tuple(row) for row in T)
    Tinv = mat_inv(T, p) if k else tuple()
    return IsotropicData(big, u_box, uperp_box, res_coords,
                         tuple(tuple(r) for r in gram), T, Tinv, la + lb)


def embed_pair(big: SympModule, gA: GroupElem, gB: GroupElem) -> GroupElem:
    da, db = gA.spec.dim, gB.spec.dim
    mat = [[0] * (da + db) for _ in range(da + db)]
    for i in range(da):
        for j in range(da):
            mat[i][j] = gA.mat[i][j]
    for i in range(db):
        for j in range(db):
            mat[da + i][da + j] = gB.mat[i][j]
    return GroupElem(big, mat)


def tensor_intertwiner(repAB: RingWeilRep, repA: RingWeilRep,
                       repB: RingWeilRep) -> np.ndarray:
    """Permutation intertwiner from H_A (x) H_B onto the direct-sum model."""
    if repAB.dim != repA.dim * repB.dim:
        raise ValueError("dimension mismatch")
    out = np.zeros((repAB.dim, repA.dim * repB.dim), dtype=complex)
    nB = len(repB.cosets)
    for ia, ca in enumerate(repA.cosets):
        for ib, cb in enumerate(repB.cosets):
            cab = repAB.cindex[tuple(ca) + tuple(cb)]
            for sa in range(repA.sdim):
                for sb in range(repB.sdim):
                    sab = sa * repB.sdim + sb
                    row = cab * repAB.sdim + sab
                    col = (ia * repA.sdim + sa) * repB.dim \
                        + ib * repB.sdim + sb
                    out[row, col] = 1.0
    return out


# -- shell dimensions ----------------------------------------------------------


def shell_dimensions(p: int, r: int, l: int, n: int) -> dict:
    """Support-shell dimensions in the lattice model, truncated at level n.

    Enumerates the quotient of the level-(n+1) dilate of the lattice by the
    intermediate self-dual lattice and stratifies by the dilation chain;
    compares counts with the closed formulas.
    """
    if not (0 <= l <= r):
        raise ValueError("need 0 <= l <= r")
    q = p
    # coordinates of the quotient; val_i relative to the self-dual lattice A
    dens = [n] * l + [n + 1] * (r - l) + [n + 1] * r
    b_req = [1] * l + [0] * (r - l) + [0] * r
    bstar_req = [0] * l + [0] * (r - l) + [-1] * l + [0] * (r - l)
    counts: dict = {}
    ranges = [range(p ** d) for d in dens]
    for nums in product(*ranges):
        vals = [vp(x, p, cap=99) - d for x, d in zip(nums, dens)]
        shell = _classify_shell(vals, b_req, bstar_req, n)
        counts[shell] = counts.get(shell, 0) + 1
    shells = []
    for s in range(0, n + 1):
        cnt = counts.get(("E", s), 0)
        if s == 0:
            dplus, dminus = (1 + (cnt - 1) // 2, (cnt - 1) // 2) if cnt else (0, 0)
            fplus, fminus = 1 + (q ** l - 1) // 2, (q ** l - 1) // 2
        else:
            dplus = dminus = cnt // 2
            fplus = fminus = q ** (2 * r * s - l) * (q ** (2 * l) - 1) // 2
        shells.append({"shell": f"E_{s}", "count": cnt,
                       "dim_plus": dplus, "dim_minus": dminus,
                       "formula_plus": fplus, "formula_minus": fminus,
                       "visible_at": s if s else 0,
                       "match": (dplus, dminus) == (fplus, fminus)})
    for m in range(0, n + 1):
        cnt = counts.get(("E1", m), 0)
        f = q ** (2 * r * m + l) * (q ** (2 * (r - l)) - 1) // 2
        shells.append({"shell": f"E_{m},1", "count": cnt,
                       "dim_plus": cnt // 2, "dim_minus": cnt // 2,
                       "formula_plus": f, "formula_minus": f,
                       "visible_at": m,
                       "match": cnt // 2 == f})
    totals = {}
    for nu in range(0, n + 1):
        tot = sum(sh["count"] for sh in shells if sh["visible_at"] <= nu)
        totals[nu] = {"total": tot, "formula": q ** (2 * r * (nu + 1) - l),
                      "match": tot == q ** (2 * r * (nu + 1) - l)}
    return {"p": p, "r": r, "l": l, "n": n, "shells": shells,
            "truncation_totals": totals,
            "all_match": all(sh["match"] for sh in shells)
            and all(t["match"] for t in totals.values())}


def _classify_shell(vals, b_req, bstar_req, n):
    def in_set(reqs, t):
        return all(v + t >= req for v, req in zip(vals, reqs))
    # smallest s >= 0 with v in pi^{-s} B^*
    s = 0
    while not in_set(bstar_req, s):
        s += 1
        if s > n + 2:
            raise AssertionError("unclassifiable vector")
    if s == 0:
        return ("E", 0)
    if in_set(b_req, s):
        return ("E1", s - 1)
    return ("E", s)
