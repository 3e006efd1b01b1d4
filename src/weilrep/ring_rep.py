"""Weil representations of symplectic groups over Z/p^{n+1}.

The model is induced from the canonical maximal invariant isotropic
submodule U: functions phi on W valued in the residue oscillator space,
obeying phi(x+u) = psi(beta(x,u)/2) rho(u) phi(x) for u in the orthogonal
of U.  Operators act block-monomially on U-perp cosets: S(g) and the
Heisenberg operators are `MonomialOps`, a coset permutation with one s x s
block per coset, which compose, take adjoints and compare in that form.
The sigma-block is the canonical finite-field representation of the
residue space pulled back through the reduction morphism.  At n = 0,
U = 0 and U-perp = W is one coset, on which S(g) is the sigma-block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .heisenberg import SchrodingerModel, box_isotropic
from .rings import _roots
from .linalg import chunks
from .oscillator import OscillatorRep
from .symplectic import (FiniteGroup, SympModule, _lex_keys, _lex_order,
                         group_closure, inverse, is_symplectic, orbits,
                         transvection_generators)


# -- residue space -----------------------------------------------------------


@dataclass
class IsotropicData:
    """U and U-perp as coordinate boxes, and the coordinates of U-perp/U
    in a standard symplectic basis (e_1..e_l, f_1..f_l), f_i pairing e_i."""
    spec: SympModule
    u_box: tuple              # divisor exponents of U
    uperp_box: tuple          # divisor exponents of U-perp
    res_coords: tuple         # coordinates carrying the residue space
    l_res: int                # half the residue dimension

    @cached_property
    def _den(self) -> np.ndarray:
        """p^{uperp} on the residue coordinates."""
        return self.spec.p ** np.array(self.uperp_box, dtype=np.int64)[
            list(self.res_coords)]

    def reduce_morphisms(self, mats) -> np.ndarray:
        """Images in Sp(residue), in standard symplectic coordinates, of a
        stack of matrices (N, dim, dim): an int64 (N, k, k) array."""
        p, rc, den = self.spec.p, list(self.res_coords), self._den
        mods = np.array([self.spec.moduli[i] for i in rc], dtype=np.int64)
        # column j: g applied to p^{uperp_j} e_j, read on the residue coords
        img = mats[:, rc][:, :, rc] * den % mods[:, None]
        if (img % den[:, None]).any():
            raise AssertionError("U-perp not invariant under g")
        return img // den[:, None] % p

    def residues(self, u) -> np.ndarray:
        """Classes in U-perp/U, in standard residue coordinates, of points
        of U-perp given as an int64 (..., dim) array: (..., k) digits mod p."""
        ur = u[..., list(self.res_coords)]
        if (ur % self._den).any():
            raise AssertionError("element not in U-perp")
        return ur // self._den % self.spec.p


def scaled_pair_flip(spec: SympModule) -> np.ndarray | None:
    """The symplectic swap u_i -> -v_i, v_i -> u_i on the scaled pairs.

    Transvections of a mixed-moduli module act trivially between the two
    scaled coordinate blocks, so they alone do not generate the symplectic
    group there; this flip (the reduction of a lattice-stabilizer element)
    is what rules out the spurious invariant boxes.
    """
    if spec.l in (None, 0, spec.r):
        return None
    i, r = np.arange(spec.l), spec.r
    mat = np.eye(spec.dim, dtype=np.int64)
    mat[i, i] = mat[r + i, r + i] = 0
    mat[r + i, i], mat[i, r + i] = -1, 1
    return mat % np.array(spec.moduli)[:, None]


def invariance_generators(spec: SympModule, gens) -> np.ndarray:
    """The generating set gens of the transvections, and the scaled-pair
    flip last, if any."""
    flip = scaled_pair_flip(spec)
    if flip is None:
        return gens
    if not is_symplectic(spec, flip[None])[0]:
        raise AssertionError("scaled-pair flip is not symplectic")
    return np.concatenate([gens, flip[None]])


def canonical_isotropic(spec: SympModule, gens) -> IsotropicData:
    """The unique maximal Sp-invariant isotropic box submodule.

    Searched over all coordinate boxes and certified: isotropy, invariance
    under gens (the `transvection_generators` of spec) plus the scaled-pair
    flip, maximality, and the residue-field structure: m * U-perp inside U,
    and the form p^n J on the residue coordinates in the order of the
    pairing, which is their standard symplectic basis.  Raises ValueError
    on a module whose residue form is another one.  At n = 0 it is U = 0,
    and U-perp = W, one coset, is all residue space.
    """
    exps = spec.exps
    gens = invariance_generators(spec, gens)
    candidates = []
    for divs in np.ndindex(*[e + 1 for e in exps]):
        if not box_isotropic(spec, divs):
            continue
        if not _box_invariant(spec, divs, gens):
            continue
        candidates.append(divs)
    best = max(candidates, key=spec.box_size)
    for other in candidates:
        if not _box_contains(spec, best, other):
            raise AssertionError(
                "no unique maximal invariant isotropic submodule")
    u_box = tuple(min(c, e) for c, e in zip(best, exps))
    uperp_box = spec.dual_box(u_box)
    gap = np.subtract(u_box, uperp_box)
    if not np.isin(gap, (0, 1)).all():
        raise AssertionError("U-perp/U is not elementary abelian")
    # the residue basis read off the pairing: the residue coordinates i
    # with i < pi_i, then their partners in the same order
    partner, res = spec.pairing[0], np.flatnonzero(gap)
    es = res[res < partner[res]]
    res_coords = tuple(np.concatenate([es, partner[es]]).tolist())
    J = np.kron([[0, 1], [-1, 0]], np.eye(len(es), dtype=np.int64))
    val = spec.box_form(uperp_box)[np.ix_(res_coords, res_coords)]
    if sorted(res_coords) != res.tolist() or (
            (val - spec.p ** spec.n * J) % spec.modulus).any():
        raise ValueError(f"residue form on {spec} is not p^n J in the "
                         f"pairing basis")
    return IsotropicData(spec, u_box, uperp_box, res_coords, len(es))


def _box_invariant(spec, divs, gens):
    """Whether every generator maps the box into itself: entry (i, j)
    times p^{c_j} is divisible by p^{c_i}, c the capped divisors."""
    c = spec.p ** np.minimum(divs, spec.exps)
    mats = np.asarray(gens, dtype=np.int64).reshape(-1, spec.dim, spec.dim)
    return not (mats * c % c[:, None]).any()


def _box_contains(spec, outer, inner):
    """outer-box contains inner-box iff inner's divisors dominate."""
    return all(min(o, e) <= min(i, e)
               for o, i, e in zip(outer, inner, spec.exps))


# -- the induced representation ----------------------------------------------


class RingWeilRep:
    """Genuine Weil representation of Sp(W) for W over Z/p^{n+1}; given
    the `direct_sum_isotropic` iso of W = W_A + W_B, of Sp(W_A) x Sp(W_B)."""

    def __init__(self, spec: SympModule, iso: IsotropicData | None = None):
        self.spec = spec
        self.iso = (iso if iso is not None
                    else canonical_isotropic(spec, self.gens))
        self.p = spec.p
        self.M = spec.modulus
        # the coset split y = xc + u over U-perp; coset c is the point
        # heis.pts[c]
        self.heis = SchrodingerModel(spec, self.iso.uperp_box)
        self.l_res = self.iso.l_res
        self.sigma = OscillatorRep(self.l_res, self.p) if self.l_res else None
        self.sdim = self.p ** self.l_res
        self.dim = self.heis.dim * self.sdim
        # rho_res of every residue class, by label = base-p digits: the
        # residue points in lexicographic order
        k = 2 * self.l_res
        self._res_radix = self.p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._rho_table = (self.sigma.rho(self.sigma.spec.points())
                           if self.l_res else np.ones((1, 1, 1), complex))
        # a group character multiplied into every S(g) by `blocks`; set it
        # before building any operator
        self.twist = None

    @cached_property
    def gens(self) -> np.ndarray:
        """The certified `transvection_generators` of the module, built once
        per model: the invariant box search, the group closure and the
        generator words of every command read this one set."""
        return transvection_generators(self.spec)

    # -- residue operators ---------------------------------------------------

    def rho_res(self, ubar) -> np.ndarray:
        """rho_res of residue digits (..., k): rows of the residue table."""
        return self._rho_table[np.asarray(ubar, dtype=np.int64)
                               @ self._res_radix]

    def sigma_op(self, g) -> np.ndarray:
        if self.sigma is None:
            return np.ones((1, 1), dtype=complex)
        return self.sigma.op(self.iso.reduce_morphisms(
            np.asarray(g, dtype=np.int64)[None])[0])

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
        times twist(g) when a twist is set.  sigma(g) comes from
        `sigma.ops`, which builds each chunk of operators in one pass.
        """
        d = self.spec.dim
        mats = np.asarray(gs, dtype=np.int64).reshape(-1, d, d)
        ginv = inverse(self.spec, mats)
        y = self.heis.pts @ ginv.transpose(0, 2, 1) % self.heis.mods
        cj, e, ubar = self.split(y)
        ph = self.heis.phase(e)
        if self.twist is not None:
            ph = ph * self.twist(mats)[:, None]
        rho = self.rho_res(ubar)
        if self.sigma is not None:
            sig = self.sigma.ops(self.iso.reduce_morphisms(mats))
            rho = sig[:, None] @ rho
        return MonomialOps(cj, ph[..., None, None] * rho)

    def op(self, g) -> np.ndarray:
        return self.blocks([g]).dense()[0]

    def trace(self, g) -> complex:
        return self.blocks([g]).traces()[0]

    # -- Heisenberg action on the same space ----------------------------------

    def heis_op(self, w, t=0) -> "MonomialOps":
        """The Heisenberg elements (w, t): phi(x) -> psi(t + beta(x, w)/2)
        phi(x + w), in the block-monomial form of `blocks`: `translate` of
        the coset split, with the residue operator of the part in U-perp.
        One operator per point of w (N, dim) and level of t (N,), or one
        for a point w (dim,)."""
        cj, e, u = self.heis.translate(w, t)
        C, s = self.heis.dim, self.sdim
        rho = self.rho_res(self.iso.residues(u))
        blocks = self.heis.phase(e)[..., None, None] * rho
        return MonomialOps(cj.reshape(-1, C), blocks.reshape(-1, C, s, s))

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
        out = np.zeros((self.heis.dim, self.sdim), dtype=complex)
        # beta(point, -u) = -beta(xc, u) because beta(u, u) = 0
        out[cj] = self.heis.phase(-e) * (
            self.rho_res(-ubar % self.p) @ sigma_vec)
        return out.reshape(-1)


@dataclass
class MonomialOps:
    """A stack of N block-monomial operators on C cosets of s x s blocks.

    Row coset c of operator n has its one nonzero block blocks[n, c] in
    column coset cj[n, c].  Products, adjoints and the deviation of two
    stacks are read off this form; `dense` builds the matrices only for a
    caller that asks for them.  A stack of one operator broadcasts against
    a stack of N in `deviation`.
    """
    cj: np.ndarray            # (N, C) column coset of each row coset
    blocks: np.ndarray        # (N, C, s, s) the block of each row coset

    def __getitem__(self, idx) -> "MonomialOps":
        """The operators idx, a slice or index array, of the stack."""
        return MonomialOps(self.cj[idx], self.blocks[idx])

    def __matmul__(self, other) -> "MonomialOps":
        """The products A_n B_n: row c of A_n meets row cj[n, c] of B_n."""
        n = np.arange(len(self.cj))[:, None]
        return MonomialOps(np.take_along_axis(other.cj, self.cj, axis=1),
                           self.blocks @ other.blocks[n, self.cj])

    def adjoint(self) -> "MonomialOps":
        """The conjugate transposes: the inverse coset permutations, with
        each block conjugate-transposed into the row of its column."""
        inv = np.argsort(self.cj, axis=1)
        n = np.arange(len(self.cj))[:, None]
        return MonomialOps(inv, self.blocks[n, inv].conj().swapaxes(-1, -2))

    def deviation(self, other) -> float:
        """max |A_n - B_n| over the entries of the dense operators: the
        block difference where a row coset goes to one column coset in
        both, else the larger of the two blocks' entries."""
        same = (self.cj == other.cj)[..., None, None]
        dev = np.where(same, np.abs(self.blocks - other.blocks),
                       np.maximum(np.abs(self.blocks), np.abs(other.blocks)))
        return float(dev.max(initial=0.0))

    def dense(self) -> np.ndarray:
        """The operators as dense (N, d, d) matrices."""
        N, C, s, _ = self.blocks.shape
        out = np.zeros((N, C, s, C, s), dtype=complex)
        out[np.arange(N)[:, None], np.arange(C), :, self.cj, :] = self.blocks
        return out.reshape(N, C * s, C * s)

    def apply(self, V) -> np.ndarray:
        """S(g_n) V for every operator of the stack, without dense
        operators: (N, d) for a vector V of length d, (N, d, k) for a
        (d, k) matrix."""
        N, C, s, _ = self.blocks.shape
        rows = V.reshape(C, s, -1)[self.cj]
        return (self.blocks @ rows).reshape((N, C * s) + V.shape[1:])

    def traces(self, owner=None) -> np.ndarray:
        """tr S(g_n), the traces of the blocks on the cosets g_n fixes:
        (N,), or (K, N) summed per part when owner (C,) numbers the part
        0..K-1 of each coset."""
        n, c = np.nonzero(self.cj == np.arange(self.cj.shape[1]))
        parts = np.zeros(self.cj.shape[1], int) if owner is None else owner
        out = np.zeros((parts.max() + 1, len(self.cj)), dtype=complex)
        np.add.at(out, (parts[c], n),
                  np.trace(self.blocks[n, c], axis1=1, axis2=2))
        return out[0] if owner is None else out


def faithful_model(r, l, n) -> tuple[int, bool]:
    """The level of the standard module of (r, l) actually carrying the
    level-n Weil representation, and whether it is lifted past n.

    When the realized lattice invariant equals r the literal level-n module
    is annihilated by the maximal ideal and carries only the residue-level
    information; the level-n member of the tower is then the module at depth
    2n+1, which the truncation identification matches with functions
    supported on the level-n shell.
    """
    if l == r >= 1 and n >= 1:
        return 2 * n + 1, True
    return n, False


# -- decomposition -----------------------------------------------------------


class Summand(NamedTuple):
    """The eps-eigenspace of S(-1) on the functions supported on one orbit
    O of U-perp cosets."""
    label: tuple
    dim: int
    cosets: np.ndarray          # the coset indices of O, ascending
    eps: int                    # the eigenvalue of S(-1) on the summand


def decompose(rep: RingWeilRep, gens) -> list[Summand]:
    """Orbit-support and parity decomposition of the representation.

    Summands are labelled ('sigma', eps) for the zero-coset block and
    ('orbit', representative, eps) for each nonzero orbit of cosets, the
    representative being its first point as a tuple; eps is the -Id
    eigenvalue, None in the label when -Id acts by a scalar there.  The
    orbit numbers of `orbits` of the generators gens (N, d, d) on the
    cosets number the parts.  With s the sigma-block size and tr_O S(-1)
    the trace of S(-1) over the cosets of O, the eps-summand of O has
    dimension (|O| s + eps tr_O S(-1))/2.
    """
    owner = orbits(rep.spec, gens, rep.iso.uperp_box)
    minus = -np.eye(rep.spec.dim, dtype=np.int64) % rep.heis.mods[:, None]
    tr_minus = np.rint(rep.blocks(minus).traces(owner)[:, 0].real)
    out = []
    for k, tr in enumerate(tr_minus.astype(int).tolist()):
        cosets = np.flatnonzero(owner == k)
        size = len(cosets) * rep.sdim
        # the zero point is coset 0, alone in its orbit
        label = (("sigma",) if cosets[0] == 0 else
                 ("orbit", tuple(rep.heis.pts[cosets[0]].tolist())))
        for eps in (+1, -1):
            if size + eps * tr:
                out.append(Summand(label + (eps if abs(tr) != size else None,),
                                   (size + eps * tr) // 2, cosets, eps))
    if sum(sm.dim for sm in out) != rep.dim:
        raise AssertionError("summand dimensions do not sum to the model dim")
    return out


def _width(rep):
    """The entries per element of the largest work array of `blocks`: the
    points y (C, d) or the blocks (C, s, s)."""
    return rep.heis.dim * max(rep.spec.dim, rep.sdim ** 2)


def traces(rep, elements) -> np.ndarray:
    """tr S(g) for each element of a sequence or stack, in order, from
    `blocks` of each of their `chunks`."""
    out = np.empty(len(elements), dtype=complex)
    for part in chunks(len(elements), _width(rep)):
        out[part] = rep.blocks(elements[part]).traces()
    return out


def summand_characters(rep, mats, summands: list[Summand]):
    """chi(g) = (tr_O S(g) + eps tr_O S(-g))/2 per summand (O, eps) per
    element of an (N, d, d) stack, in order, as S(-1) S(g) = S(-g).  The
    characters are class functions, so `cmd_ring` passes one element per
    conjugacy class.  Each of their `chunks` goes through `blocks` stacked
    with its negation, and the traces over the cosets of each orbit O are
    summed at once."""
    orbit, owner = {}, np.full(rep.heis.dim, len(summands))
    for sm in summands:
        owner[sm.cosets] = orbit.setdefault(int(sm.cosets[0]), len(orbit))
    rows = [orbit[int(sm.cosets[0])] for sm in summands]
    eps = np.array([sm.eps for sm in summands])[:, None]
    out = np.empty((len(summands), len(mats)), dtype=complex)
    mods = rep.heis.mods[:, None]
    for part in chunks(len(mats), 2 * _width(rep)):
        g = mats[part]
        tr = rep.blocks(np.concatenate([g, -g % mods])).traces(owner)[rows]
        out[:, part] = (tr[:, :len(g)] + eps * tr[:, len(g):]) / 2
    return out


def character_norm(chi, weights):
    """(1/|G|) sum |chi(g)|^2 of a class function given by its values chi
    on one element per class and the class sizes weights (|G| their sum),
    with its deviation from the nearest integer."""
    val = float(np.sum(weights * np.abs(chi) ** 2)) / int(np.sum(weights))
    return int(round(val)), abs(val - round(val))


# -- abelianization: the characters of `ring --twist` -------------------------


def derived_subgroup(group: FiniteGroup) -> FiniteGroup:
    """Normal closure of the commutators of the generators.

    The closure D of the current generators is normal once s x s^-1 lies in
    D for every generator s of the group and x of D; each round adds the
    conjugates that miss D and closes again (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005).
    """
    spec, S = group.spec, group.gens
    mods = np.array(spec.moduli, dtype=np.int64)[:, None]
    Sinv = inverse(spec, S)
    new = (S[:, None] @ S[None] % mods @ Sinv[:, None] % mods @ Sinv[None]
           % mods).reshape(-1, spec.dim, spec.dim)
    dgens = new[:0]
    while len(new := new[_lex_order(_lex_keys(new, spec.moduli))]):
        dgens = np.concatenate([dgens, new])
        D = group_closure(spec, dgens)
        conj = S[:, None] @ dgens[None] % mods @ Sinv[:, None] % mods
        new = conj[D.find(conj) < 0]
    return D


def abelianization_cosets(group: FiniteGroup):
    """The coset of the derived subgroup D of each element index, numbered
    in order of first element, and the index of that first element."""
    D = derived_subgroup(group)
    labels = np.full(len(group), -1)
    reps = []
    while (labels < 0).any():
        i = int(np.argmax(labels < 0))
        labels[group.find(group.mats[i] @ D.mats)] = len(reps)
        reps.append(i)
    return labels, reps


def abelianization_character(group: FiniteGroup):
    """The characters of the (cyclic) abelianization, from one pass over
    the cosets of the derived subgroup: a function chi(g, a), the values of
    the a-th character on an element or a stack of them, and the order k
    of the abelianization."""
    labels, reps = abelianization_cosets(group)
    k = len(reps)
    eye = np.eye(group.spec.dim, dtype=np.int64)
    ident = labels[group.find(eye)]
    gen = group.mats[next((r for r in reps if labels[r] != ident), reps[0])]
    powers = [eye]
    for _ in range(k - 1):
        powers.append(powers[-1] @ gen % group.spec.modulus)
    cosets = labels[group.find(np.array(powers))]
    if len(set(cosets.tolist())) != k:
        raise AssertionError("abelianization is not cyclic")
    # the power of gen in each coset
    exponent = np.empty(k, dtype=np.int64)
    exponent[cosets] = np.arange(k)

    def chi(g, a):
        idx = group.find(g)
        if np.any(idx < 0):
            raise KeyError("not an element of the group")
        return np.array(_roots(k))[a * exponent[labels[idx]] % k]
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

    The residue coordinates are interleaved globally: (e of A, e of B,
    f of A, f of B), so the oscillator basis of the sum is the tensor basis
    of the factors.  Where the moduli of A and B agree,
    `canonical_isotropic` returns this data; where they differ,
    `transvection_generators` refuses the sum.
    """
    la, lb = isoA.l_res, isoB.l_res
    resB = [isoA.spec.dim + i for i in isoB.res_coords]
    res_coords = (isoA.res_coords[:la] + tuple(resB[:lb])
                  + isoA.res_coords[la:] + tuple(resB[lb:]))
    return IsotropicData(big, isoA.u_box + isoB.u_box,
                         isoA.uperp_box + isoB.uperp_box, res_coords, la + lb)


# -- shell dimensions ----------------------------------------------------------


def shell_dimensions(p: int, r: int, l: int, n: int) -> dict:
    """Support-shell dimensions in the lattice model, truncated at level n.

    Counts the points of the quotient of the level-(n+1) dilate of the
    lattice by the intermediate self-dual lattice in each stratum of the
    dilation chain (`_shell_counts`); compares the counts with the closed
    formulas.
    """
    if not (0 <= l <= r):
        raise ValueError("need 0 <= l <= r")
    q = p
    counts = _shell_counts(p, r, l, n)
    shells = []
    for s in range(0, n + 1):
        cnt = counts[("E", s)]
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
        cnt = counts[("E1", m)]
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


def _shell_counts(p: int, r: int, l: int, n: int) -> dict:
    """The number of points of the quotient in the shells ('E', s) for s in
    0..n and ('E1', m) for m in 0..n, as differences of boxes.

    Coordinate i of a point runs over Z/p^{d_i}; its valuation relative to
    the self-dual lattice is val_i = v_p(x_i) - d_i (large at x_i = 0).  The
    points with val_i + t >= req_i for all i form a box with
    p^{d_i - clip(d_i + req_i - t, 0, d_i)} choices of coordinate i, and an
    intersection of such sets takes the per-coordinate max of the
    exponents d_i + req_i - t.  With B*(t) and B(t) the sets of the two
    requirement vectors, B*(t) grows with t; a point of B*(0) lies in
    ('E', 0), and one first in B*(s), s >= 1, lies in ('E1', s - 1) when it
    is in B(s) too, else in ('E', s).
    """
    dens = np.array([n] * l + [n + 1] * (2 * r - l))
    bstar = lambda t: dens + np.array([0] * r + [-1] * l + [0] * (r - l)) - t
    b = lambda t: dens + np.array([1] * l + [0] * (2 * r - l)) - t

    def box(*needs):
        c = np.clip(np.max(needs, axis=0), 0, dens)
        return math.prod(p ** int(e) for e in dens - c)

    counts = {("E", 0): box(bstar(0))}
    for s in range(1, n + 2):
        counts[("E1", s - 1)] = box(bstar(s), b(s)) - box(bstar(s - 1), b(s))
        if s <= n:
            counts[("E", s)] = (box(bstar(s)) - box(bstar(s - 1))
                                - counts[("E1", s - 1)])
    return counts
