"""Weil representations of symplectic groups over Z/p^{n+1}.

The model is induced from the canonical maximal invariant isotropic
submodule U: functions phi on W valued in the residue oscillator space,
obeying phi(x+u) = psi(beta(x,u)/2) rho(u) phi(x) for u in the orthogonal
of U.  Operators act block-monomially on U-perp cosets; the sigma-block is
the canonical finite-field representation of the residue space pulled back
through the reduction morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .heisenberg import SchrodingerModel, box_isotropic
from .rings import _roots, unit_phase, vp
from .linalg import mat_inv, mat_inv_stack, mat_rank
from .oscillator import _CHUNK, OscillatorRep
from .symplectic import (FiniteGroup, GroupElem, SympModule, _keys,
                         group_closure, orbits, transvection_generators)


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

    def _res_arrays(self):
        """Residue coordinates, p^{uperp} on them, T and Tinv as arrays."""
        rc = list(self.res_coords)
        den = self.spec.p ** np.array([self.uperp_box[i] for i in rc],
                                      dtype=np.int64)
        T, Tinv = (np.array(m, dtype=np.int64).reshape(len(rc), len(rc))
                   for m in (self.T, self.Tinv))
        return rc, den, T, Tinv

    def reduce_morphisms(self, mats) -> np.ndarray:
        """Images in Sp(residue), in standard symplectic coordinates, of a
        stack of matrices (N, dim, dim): an int64 (N, k, k) array."""
        p = self.spec.p
        rc, den, T, Tinv = self._res_arrays()
        mods = np.array([self.spec.moduli[i] for i in rc], dtype=np.int64)
        # column j: g applied to p^{uperp_j} e_j, read on the residue coords
        img = mats[:, rc][:, :, rc] * den % mods[:, None]
        if (img % den[:, None]).any():
            raise AssertionError("U-perp not invariant under g")
        return Tinv @ (img // den[:, None] % p @ T % p) % p

    def residues(self, u) -> np.ndarray:
        """Classes in U-perp/U, in standard residue coordinates, of points
        of U-perp given as an int64 (..., dim) array: (..., k) digits mod p."""
        rc, den, _, Tinv = self._res_arrays()
        ur = u[..., rc]
        if (ur % den).any():
            raise AssertionError("element not in U-perp")
        return (ur // den % self.spec.p) @ Tinv.T % self.spec.p

    def project(self, u):
        """Class of u in U-perp/U, in standard residue coordinates."""
        return tuple(self.residues(np.array(u, dtype=np.int64)).tolist())


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


def canonical_isotropic(spec: SympModule) -> IsotropicData:
    """The unique maximal Sp-invariant isotropic box submodule.

    Searched over all coordinate boxes and certified: isotropy, invariance
    under the transvections plus the scaled-pair flip, maximality, and the
    residue-field structure (m * U-perp inside U, nondegenerate reduced
    form).
    """
    p, M = spec.p, spec.modulus
    exps = spec.exps
    dim = spec.dim
    gens = invariance_generators(spec)
    candidates = []
    for divs in product(*[range(e + 1) for e in exps]):
        if not box_isotropic(spec, divs):
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
                 scale: int = 1):
        self.spec = spec
        self.scale = scale
        self.iso = iso if iso is not None else canonical_isotropic(spec)
        self.p = spec.p
        self.M = spec.modulus
        self.half = pow(2, -1, self.M)
        # the coset split y = xc + u over U-perp
        self.heis = SchrodingerModel(spec, self.iso.uperp_box, scale)
        self.cosets = self.heis.reps
        self.cindex = {c: i for i, c in enumerate(self.cosets)}
        self.l_res = self.iso.l_res
        self.sigma = (OscillatorRep(self.l_res, self.p, scale)
                      if self.l_res > 0 else None)
        self.sdim = self.p ** self.l_res
        self.dim = len(self.cosets) * self.sdim
        # rho_res of every residue class, by label = base-p digits; rows are
        # filled on first use
        k = 2 * self.l_res
        self._res_radix = self.p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._rho_table = np.zeros((self.p ** k, self.sdim, self.sdim),
                                   dtype=complex)
        self._rho_known = np.zeros(self.p ** k, dtype=bool)
        # a group character multiplied into every S(g) by `blocks`; set it
        # before building any operator
        self.twist = None

    def psi(self, c: int) -> complex:
        return unit_phase(self.scale * c, self.M)

    # -- residue operators ---------------------------------------------------

    def _labels(self, ubar) -> np.ndarray:
        """Rows of the residue table for residue digits (..., k), filling
        the rows not yet built."""
        labels = np.asarray(ubar @ self._res_radix)
        for lab in set(labels[~self._rho_known[labels]].tolist()):
            digits = tuple((lab // self._res_radix % self.p).tolist())
            self._rho_table[lab] = (self.sigma.rho(digits, 0)
                                    if self.sigma is not None else 1.0)
            self._rho_known[lab] = True
        return labels

    def rho_res(self, ubar) -> np.ndarray:
        return self._rho_table[self._labels(np.array(ubar, dtype=np.int64))]

    def _sigma_blocks(self, mats):
        """sigma(g) for a stack of matrices (N, dim, dim), as a table of the
        distinct blocks (K, s, s) and the row of each matrix (N,): one
        `sigma.ops` pass over the distinct reductions."""
        if self.sigma is None:
            return np.ones((1, 1, 1), dtype=complex), np.zeros(len(mats), int)
        R = self.iso.reduce_morphisms(mats)
        _, first, which = np.unique(_keys(R, np.min_scalar_type(self.p - 1)),
                                    return_index=True, return_inverse=True)
        return self.sigma.ops(R[first]), which.reshape(-1)

    def sigma_op(self, g: GroupElem) -> np.ndarray:
        table, which = self._sigma_blocks(np.array([g.mat], dtype=np.int64))
        return table[which[0]]

    # -- block-monomial structure ---------------------------------------------

    def split(self, y):
        """`SchrodingerModel.split` of points y of W over U-perp, with the
        part u in U-perp replaced by its residue class in digits mod p."""
        cj, e, u = self.heis.split(y)
        return cj, e, self.iso.residues(u)

    def blocks(self, gs) -> "MonomialOps":
        """S(g) for each element of a sequence or (N, d, d) stack, in
        block-monomial form.

        Row coset x of S(g) has one nonzero block, in the column of the
        coset of y = g^{-1} x: psi(beta(xc, u)/2) sigma(g) rho_res(u),
        times twist(g) when a twist is set.
        """
        d = self.spec.dim
        mats = np.asarray(gs, dtype=np.int64).reshape(-1, d, d)
        ginv = mat_inv_stack(mats, self.p, self.spec.n + 1)
        y = self.heis.pts @ ginv.transpose(0, 2, 1) % self.heis.mods
        cj, e, ubar = self.split(y)
        ph = self.heis.phase(e)
        if self.twist is not None:
            ph = ph * self.twist(mats)[:, None]
        return MonomialOps(cj, ph, self._labels(ubar),
                           *self._sigma_blocks(mats), self._rho_table)

    def op(self, g: GroupElem) -> np.ndarray:
        return self.blocks([g]).dense()[0]

    def trace(self, g: GroupElem) -> complex:
        return self.blocks([g]).traces()[0]

    # -- Heisenberg action on the same space ----------------------------------

    def heis_op(self, w, t: int = 0) -> np.ndarray:
        """The Heisenberg element (w, t): phi(x) -> psi(t + beta(x, w)/2)
        phi(x + w), on the same block-monomial form: `translate` of the
        coset split, with the residue operator of the part in U-perp."""
        cj, e, u = self.heis.translate(w, t)
        labels = self._labels(self.iso.residues(u))
        sig = np.eye(self.sdim, dtype=complex)[None]
        return MonomialOps(cj[None], self.heis.phase(e)[None], labels[None],
                           sig, np.zeros(1, int), self._rho_table).dense()[0]

    # -- distinguished vectors -------------------------------------------------

    def sigma_vacuum(self) -> np.ndarray:
        v = np.zeros(self.sdim, dtype=complex)
        v[0] = 1.0  # index of y = 0 in lexicographic order
        return v

    def delta_vec(self, point, sigma_vec=None) -> np.ndarray:
        """Model vector of the delta function seeded at the given point.

        phi is supported on point + U-perp with phi(point) = sigma_vec; its
        value at the representative xc = point - u is
        psi(beta(point, -u)/2) rho_res(-u) sigma_vec.
        """
        if sigma_vec is None:
            sigma_vec = self.sigma_vacuum()
        cj, e, ubar = self.split(np.array(point, dtype=np.int64)
                                 % self.heis.mods)
        out = np.zeros((len(self.cosets), self.sdim), dtype=complex)
        # beta(point, -u) = -beta(xc, u) because beta(u, u) = 0
        out[cj] = self.heis.phase(-e) * (
            self.rho_res(-ubar % self.p) @ sigma_vec)
        return out.reshape(-1)


@dataclass
class MonomialOps:
    """S(g) for a stack of N elements in block-monomial form.

    Row coset c of S(g_n) has its one nonzero s x s block in column coset
    cj[n, c], equal to ph[n, c] * sig[sidx[n]] @ rho[labels[n, c]].
    """
    cj: np.ndarray            # (N, C) column coset of each row coset
    ph: np.ndarray            # (N, C) phases
    labels: np.ndarray        # (N, C) residue labels, rows of rho
    sig: np.ndarray           # (K, s, s) distinct sigma blocks
    sidx: np.ndarray          # (N,) row of sig of each element
    rho: np.ndarray           # (labels, s, s) residue operators

    @cached_property
    def _blocks(self) -> np.ndarray:
        """The nonzero block of every row coset of every element:
        (N, C, s, s), built on first use."""
        return self.ph[..., None, None] * (self.sig[self.sidx][:, None]
                                           @ self.rho[self.labels])

    def dense(self) -> np.ndarray:
        """The operators as dense (N, d, d) matrices."""
        N, C = self.cj.shape
        s = self.sig.shape[-1]
        out = np.zeros((N, C, s, C, s), dtype=complex)
        out[np.arange(N)[:, None], np.arange(C), :, self.cj, :] = \
            self._blocks
        return out.reshape(N, C * s, C * s)

    def apply(self, V) -> np.ndarray:
        """S(g_n) V for every element of the stack, without dense operators:
        (N, d) for a vector V of length d, (N, d, k) for a (d, k) matrix."""
        N, C = self.cj.shape
        s = self.sig.shape[-1]
        out = self._blocks @ V.reshape(C, s, -1)[self.cj]
        return out.reshape((N, C * s) + V.shape[1:])

    def traces(self, owner=None) -> np.ndarray:
        """tr S(g_n) over the cosets g_n fixes: (N,), or (K, N) summed per
        part when owner (C,) numbers the part 0..K-1 of each coset.
        tr(sig rho) is computed once per distinct (sigma, residue) pair."""
        n, c = np.nonzero(self.cj == np.arange(self.cj.shape[1]))
        U = len(self.rho)
        pairs, which = np.unique(self.sidx[n] * U + self.labels[n, c],
                                 return_inverse=True)
        table = np.einsum("mab,mba->m", self.sig[pairs // U],
                          self.rho[pairs % U])
        parts = np.zeros(self.cj.shape[1], int) if owner is None else owner
        out = np.zeros((parts.max() + 1, len(self.cj)), dtype=complex)
        np.add.at(out, (parts[c], n), self.ph[n, c] * table[which])
        return out[0] if owner is None else out


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
    return rep


# -- restriction to a stabilizer ----------------------------------------------


def sigma_gx(rep: RingWeilRep, G, x):
    """The stabilizer representation attached to the coset of x.

    Returns (stabilizer elements, operator map g -> matrix on the sigma
    space): sigma(g) rho(g^{-1}x - x, beta(x, g^{-1}x)/2).
    """
    spec = rep.spec
    quot = [spec.p ** min(c, a) for c, a in zip(rep.iso.uperp_box, spec.exps)]
    moved = (G.mats @ np.array(x) - x) % quot
    stab = [G[i] for i in np.flatnonzero(~moved.any(axis=1))]

    def op(g: GroupElem) -> np.ndarray:
        y = g.inverse().act(x)
        u = spec.sub(y, x)
        t = (rep.half * spec.form(x, y)) % rep.M
        return rep.sigma_op(g) @ (rep.psi(t) * rep.rho_res(rep.iso.project(u)))

    return stab, op


# -- decomposition -----------------------------------------------------------


class Summand(NamedTuple):
    """The eps-eigenspace of S(-1) on the functions supported on one orbit
    O of U-perp cosets."""
    label: tuple
    dim: int
    cosets: np.ndarray          # indices in rep.cosets of the cosets of O
    eps: int                    # the eigenvalue of S(-1) on the summand


def decompose(rep: RingWeilRep, group: FiniteGroup) -> list[Summand]:
    """Orbit-support and parity decomposition of the representation.

    Summands are labelled ('sigma', eps) for the zero-coset block and
    ('orbit', representative, eps) for each nonzero orbit of cosets;
    eps is the -Id eigenvalue, None in the label when -Id acts by a scalar
    there.  With s the sigma-block size and tr_O S(-1) the trace of S(-1)
    over the cosets of O, the eps-summand of O has dimension
    (|O| s + eps tr_O S(-1))/2.
    """
    spec = rep.spec
    orbs = orbits(group.gens, rep.iso.uperp_box)
    zero = spec.quotient_reduce(spec.zero(), rep.iso.uperp_box)
    parts = [np.array([rep.cindex[c] for c in orb]) for orb in orbs]
    owner = np.empty(len(rep.cosets), int)
    for k, cosets in enumerate(parts):
        owner[cosets] = k
    minus = GroupElem(spec, (-np.eye(spec.dim, dtype=int)).tolist())
    tr_minus = np.rint(rep.blocks([minus]).traces(owner)[:, 0].real)
    out = []
    for orb, cosets, tr in zip(orbs, parts, tr_minus.astype(int).tolist()):
        size = len(orb) * rep.sdim
        label = ("sigma",) if orb == [zero] else ("orbit", orb[0])
        for eps in (+1, -1):
            if size + eps * tr:
                out.append(Summand(label + (eps if abs(tr) != size else None,),
                                   (size + eps * tr) // 2, cosets, eps))
    if sum(sm.dim for sm in out) != rep.dim:
        raise AssertionError("summand dimensions do not sum to the model dim")
    return out


def traces(rep, elements) -> np.ndarray:
    """tr S(g) for each element of a sequence or stack, in order."""
    out = np.empty(len(elements), dtype=complex)
    for start in range(0, len(elements), _CHUNK):
        out[start:start + _CHUNK] = rep.blocks(
            elements[start:start + _CHUNK]).traces()
    return out


def summand_characters(rep, group: FiniteGroup, summands: list[Summand]):
    """chi(g) = (tr_O S(g) + eps tr_O S(-g))/2 per summand (O, eps) per
    group element, in element order, as S(-1) S(g) = S(-g).  Each chunk of
    elements goes through `blocks` stacked with its negation, and the
    traces over the cosets of each orbit O are summed at once."""
    orbit, owner = {}, np.full(len(rep.cosets), len(summands))
    for sm in summands:
        owner[sm.cosets] = orbit.setdefault(int(sm.cosets[0]), len(orbit))
    rows = [orbit[int(sm.cosets[0])] for sm in summands]
    eps = np.array([sm.eps for sm in summands])[:, None]
    out = np.empty((len(summands), len(group)), dtype=complex)
    for start in range(0, len(group), _CHUNK):
        mats = group.mats[start:start + _CHUNK]
        tr = rep.blocks(np.concatenate([mats, -mats % group._mods])).traces(
            owner)[rows]
        out[:, start:start + len(mats)] = (tr[:, :len(mats)]
                                           + eps * tr[:, len(mats):]) / 2
    return out


def character_norm(chi):
    """(1/|G|) sum |chi(g)|^2 of a character given as its row of values
    over the whole group, with its deviation from the nearest integer."""
    val = float(np.sum(np.abs(chi) ** 2)) / len(chi)
    return int(round(val)), abs(val - round(val))


# -- abelianization / twist diagnostics ---------------------------------------


def derived_subgroup(group: FiniteGroup) -> FiniteGroup:
    """Normal closure of the commutators of the generators.

    The closure D of the current generators is normal once s x s^-1 lies in
    D for every generator s of the group and x of D; each round adds the
    conjugates that miss D and closes again (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005).
    """
    mods, d = group._mods, group.spec.dim
    S = np.array(group.gens, dtype=np.int64)
    Sinv = np.array([g.inverse() for g in group.gens], dtype=np.int64)
    new = S[:, None] @ S[None] % mods @ Sinv[:, None] % mods @ Sinv[None] % mods
    dgens = []
    while len(new := np.unique(new.reshape(-1, d, d), axis=0)):
        dgens += [GroupElem(group.spec, m, check=False) for m in new.tolist()]
        D = group_closure(dgens)
        conj = S[:, None] @ np.array(dgens)[None] % mods @ Sinv[:, None] % mods
        new = conj[D.find(conj) < 0]
    return D


def abelianization_cosets(group: FiniteGroup):
    """The coset of the derived subgroup D of each element index, numbered
    in order of first element, and the index of that first element."""
    cached = getattr(group, "_ab_cache", None)
    if cached is not None:
        return cached
    D = derived_subgroup(group)
    labels = np.full(len(group), -1)
    reps = []
    while (labels < 0).any():
        i = int(np.argmax(labels < 0))
        labels[group.find(group.mats[i] @ D.mats % group._mods)] = len(reps)
        reps.append(i)
    group._ab_cache = (labels, reps)
    return labels, reps


def abelianization_character(group: FiniteGroup, a: int):
    """The a-th character of the (cyclic) abelianization, as a function of
    an element or a stack of them, and the order k of the abelianization."""
    labels, reps = abelianization_cosets(group)
    k = len(reps)
    cur = group.identity()
    ident = labels[group.find(cur)]
    gen = group[next((r for r in reps if labels[r] != ident), reps[0])]
    power_of = {}
    for e in range(k):
        power_of[labels[group.find(cur)]] = e
        cur = cur * gen
    if len(power_of) != k:
        raise AssertionError("abelianization is not cyclic")
    values = np.array(_roots(k))[[a * power_of[c] % k for c in range(k)]]

    def chi(g):
        idx = group.find(g)
        if np.any(idx < 0):
            raise KeyError("not an element of the group")
        return values[labels[idx]]
    return chi, k


# -- tensor / direct-sum structure ---------------------------------------------


def direct_sum(specA: SympModule, specB: SympModule) -> SympModule:
    if (specA.p, specA.n) != (specB.p, specB.n):
        raise ValueError("direct sum needs matching p and level")
    return SympModule(specA.p, specA.n, specA.moduli + specB.moduli,
                      _block_diag(specA.gram, specB.gram))


def _block_diag(a, b) -> list:
    """Rows of diag(a, b) for two square nested sequences."""
    return ([list(row) + [0] * len(b) for row in a]
            + [[0] * len(a) + list(row) for row in b])


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
    gram = _block_diag(isoA.res_gram, isoB.res_gram)
    la, lb = isoA.l_res, isoB.l_res
    cols = [*range(la), *range(ka, ka + lb), *range(la, ka),
            *range(ka + lb, k)]
    T = tuple(tuple(row[c] for c in cols)
              for row in _block_diag(isoA.T, isoB.T))
    Tinv = mat_inv(T, p) if k else tuple()
    return IsotropicData(big, u_box, uperp_box, res_coords,
                         tuple(tuple(r) for r in gram), T, Tinv, la + lb)


def embed_pair(big: SympModule, gA: GroupElem, gB: GroupElem) -> GroupElem:
    return GroupElem(big, _block_diag(gA.mat, gB.mat))


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
