"""Finite symplectic modules over Z/p^{n+1} with mixed cyclic moduli.

A module is a product of cyclic groups Z/p^{a_i} carrying an alternating
form given by an integer Gram matrix mod p^{n+1}.  Automorphisms are stored
as constrained integer matrices: entry (i,j) must be divisible by
p^{max(0, a_i - a_j)} so that the action on mixed moduli is well defined,
and two matrices are equal iff they act identically, i.e. row i agrees
mod p^{a_i}.  An element is an int64 (d, d) matrix with row i reduced mod
p^{a_i}, and a set of elements an (N, d, d) stack; `GroupElem` is the
checked tuple form that the stacks are tested against.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import chunks
from .rings import vp


class SympModule:
    """Coordinate module prod_i Z/p^{moduli[i]} with alternating Gram form."""

    def __init__(self, p, n, moduli, gram, r=None, l=None):
        self.p = p
        self.n = n
        self.modulus = p ** (n + 1)          # values of the form live here
        self.moduli = tuple(moduli)          # p^{a_i} per coordinate
        self.exps = tuple(vp(m, p) for m in self.moduli)
        self.gram = tuple(tuple(x % self.modulus for x in row) for row in gram)
        self.dim = len(self.moduli)
        self.r = r
        self.l = l
        # largest s with all gram entries divisible by p^s
        self.form_content = min((vp(x, p) for row in self.gram for x in row
                                 if x), default=n + 1)
        # Python ints: a module is built before any size cap is checked
        G = np.array(self.gram, dtype=object).reshape(self.dim, self.dim)
        if np.diagonal(G).any() or ((G + G.T) % self.modulus).any():
            raise ValueError("gram must be alternating")

    # -- construction ----------------------------------------------------------

    @classmethod
    def standard(cls, p, r, l, n):
        """The level-n module of a good lattice with invariant l.

        Coordinates are ordered (u_1..u_l, x_{l+1}..x_r, v_1..v_l,
        y_{l+1}..y_r); u,v have modulus p^n and x,y have p^{n+1}; the form is
        p*(u.v' - v.u') + (x.y' - y.x').  The module of the dual lattice is,
        up to relabeling the blocks, the one with l replaced by r - l.
        """
        if not (0 <= l <= r):
            raise ValueError(f"need 0 <= l <= r, got l={l}, r={r}")
        if n < 0:
            raise ValueError("level n must be >= 0")
        moduli = [p ** n] * l + [p ** (n + 1)] * (r - l)
        moduli = moduli + moduli
        dim = 2 * r
        gram = [[0] * dim for _ in range(dim)]
        for i in range(r):
            c = p if i < l else 1
            gram[i][r + i] = c
            gram[r + i][i] = -c % p ** (n + 1)
        return cls(p, n, moduli, gram, r=r, l=l)

    def size(self) -> int:
        return math.prod(self.moduli)

    def points(self, divs=None) -> np.ndarray:
        """The points of W, or with divs the representatives of W modulo
        the box with divisor exponents divs, as an int64 (N, dim) C-order
        array: coordinate i runs over range(p^min(divs_i, a_i)), the first
        coordinate most significant."""
        exps = self.exps if divs is None else np.minimum(divs, self.exps)
        quot = [self.p ** int(c) for c in exps]
        return np.stack(np.unravel_index(np.arange(math.prod(quot)), quot),
                        axis=1).astype(np.int64)

    # -- boxes: submodules of the shape {v : p^{c_i} | v_i} ---------------------

    def box_size(self, divs) -> int:
        return math.prod(self.p ** (a - min(c, a))
                         for c, a in zip(divs, self.exps))

    def box_form(self, divs) -> np.ndarray:
        """The form on the generators p^{c_i} e_i of the box with divisor
        exponents divs: p^{c_i + c_j} gram[i][j] mod M, an int64 (dim, dim)
        array (the power capped at M, where it vanishes anyway)."""
        c = np.minimum(divs, self.exps)
        return self.p ** np.minimum(c[:, None] + c, self.n + 1) * np.array(
            self.gram, dtype=np.int64) % self.modulus

    @cached_property
    def pairing(self):
        """The partner pi_i of each coordinate in a monomial gram, the one
        column with gram[i][pi_i] nonzero, and that entry as p^{w_i} u_i,
        p not dividing u_i: three int64 (dim,) arrays pi, w, u."""
        G = np.array(self.gram, dtype=np.int64)
        if ((G != 0).sum(axis=1) != 1).any():
            raise NotImplementedError("needs a monomial gram")
        partner = np.argmax(G != 0, axis=1)
        c = G[np.arange(self.dim), partner]
        w = np.array([vp(int(x), self.p) for x in c], dtype=np.int64)
        return partner, w, c // self.p ** w

    def dual_box(self, divs):
        """Box orthogonal to a box under psi(beta(.,.)): v_{pi_i} pairs
        with p^{c_i} e_i through p^{c_i + w_i}, so the dual box has the
        divisor n + 1 - c_i - w_i at pi_i, capped."""
        partner, w, _ = self.pairing
        need = self.n + 1 - np.minimum(divs, self.exps) - w
        return tuple(np.clip(need[partner], 0, self.exps).tolist())

    def __repr__(self):
        tag = ""
        if self.r is not None:
            tag = f", r={self.r}, l={self.l}"
        return f"SympModule(p={self.p}, n={self.n}, moduli={self.moduli}{tag})"


class GroupElem:
    """Symplectic automorphism as a constrained integer matrix, a tuple of
    rows whose divisibility `is_symplectic` checks on construction.

    Equality is equality of action: row i is reduced mod p^{a_i}.
    """

    __slots__ = ("spec", "mat", "_hash")

    def __init__(self, spec: SympModule, mat, check=True):
        self.spec = spec
        canon = tuple([tuple([x % m for x in row])
                       for row, m in zip(mat, spec.moduli)])
        self.mat = canon
        self._hash = hash((spec.moduli, canon))
        if check:
            # raises at an entry that breaks the divisibility constraint
            is_symplectic(spec, np.array(canon, dtype=np.int64)[None])

    @classmethod
    def identity(cls, spec):
        return cls(spec, np.eye(spec.dim, dtype=int).tolist(), check=False)

    def __array__(self, dtype=None, copy=None):
        """The matrix as an array, so a sequence of elements is a stack."""
        return np.array(self.mat, dtype=dtype or np.int64)

    def __mul__(self, other):
        a, b = self.mat, other.mat
        dim = self.spec.dim
        prod_mat = [
            [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        return GroupElem(self.spec, prod_mat, check=False)

    def inverse(self) -> "GroupElem":
        inv = inverse(self.spec, np.array(self)[None])[0]
        return GroupElem(self.spec, inv.tolist(), check=False)

    def is_symplectic(self) -> bool:
        return bool(is_symplectic(self.spec, np.array(self)[None])[0])

    def __eq__(self, other):
        return self.mat == other.mat and self.spec.moduli == other.spec.moduli

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupElem({self.mat})"


def is_symplectic(spec: SympModule, mats) -> np.ndarray:
    """Whether g^T gram g = gram mod p^{n+1}, for each matrix g of an int64
    (N, d, d) stack.  Raises ValueError at the first entry (i, j) that is
    not divisible by p^{max(0, a_i - a_j)}, as the action on mixed moduli
    needs."""
    exps = np.array(spec.exps)
    need = np.maximum(0, exps[:, None] - exps)
    bad = np.argwhere(mats % spec.p ** need)
    if len(bad):
        k, i, j = bad[0].tolist()
        raise ValueError(f"entry ({i},{j})={mats[k, i, j]} violates "
                         f"divisibility p^{need[i, j]}")
    M = spec.modulus
    G = np.array(spec.gram, dtype=np.int64)
    return ~((mats.transpose(0, 2, 1) @ G % M @ mats - G) % M).any(axis=(1, 2))


def inverse(spec: SympModule, mats) -> np.ndarray:
    """g^{-1} = Omega^{-1} g^T Omega for each automorphism g of the form
    in an int64 (N, d, d) stack: an int64 stack, rows reduced mod moduli.

    beta(g^{-1} x, y) = beta(x, g y) puts g[pi_b, pi_a] c_b / c_a at entry
    (a, b), c_i = gram[i][pi_i] = p^{w_i} u_i (`SympModule.pairing`).  The
    division by p^{w_a - w_b} is exact, as p^{a_b - a_a} divides entry
    (pi_b, pi_a) of g, when the pairing is perfect: w_i + a_i = n + 1 at
    every i.  Raises ValueError where it is not."""
    p, M = spec.p, spec.modulus
    partner, w, u = spec.pairing
    if (w + spec.exps != spec.n + 1).any():
        raise ValueError(f"degenerate pairing on {spec}")
    shift = w - w[:, None]
    uinv = np.array([pow(int(x), -1, M) for x in u], dtype=np.int64)
    mult = p ** np.maximum(shift, 0) * u % M * uinv[:, None] % M
    g = np.asarray(mats, dtype=np.int64)[:, partner[:, None], partner]
    return (g.swapaxes(1, 2) // p ** np.maximum(-shift, 0) * mult
            % np.array(spec.moduli, dtype=np.int64)[:, None])


# -- generators and closure ------------------------------------------------


def _transvections(spec: SympModule, vs, a: int = 1) -> np.ndarray:
    """tau_{a,v}: w -> w + a*beta(v,w)*v for every row v of an int64
    (N, dim) array, as an (N, dim, dim) stack with row i reduced mod
    moduli[i]; beta is normalized by the gram content.

    When every form value is divisible by p^s (the degenerate modules with
    scaled gram), the literal transvections all collapse to the identity;
    dividing by p^s gives the transvections of the underlying structure and
    is what makes closure match the brute-force symplectic count.
    """
    M = spec.modulus
    b = (vs @ np.array(spec.gram, dtype=np.int64) % M
         // spec.p ** spec.form_content * (a % M) % M)
    mods = np.array(spec.moduli, dtype=np.int64)[:, None]
    return (np.eye(spec.dim, dtype=np.int64) + vs[:, :, None] * b[:, None]
            ) % mods


def transvection_generators(spec: SympModule) -> np.ndarray:
    """Certified generating set: tau_{1,v} for v = e_i and e_i + e_{i+1},
    identity dropped, deduplicated and sorted by matrix (at most
    2*dim - 1), as an int64 (k, d, d) stack.

    They generate every transvection when `_generates_all_transvections`
    holds, which is checked here, because tau_{gv} = g tau_v g^-1,
    tau_{cv} = tau_v^{c^2} and tau_{a,v} = tau_{1,v}^a.
    """
    eye = np.eye(spec.dim, dtype=np.int64)
    vecs = np.concatenate([eye, eye[:-1] + eye[1:]])
    gens = _transvections(spec, vecs)
    if not is_symplectic(spec, gens).all():
        raise AssertionError(f"transvections are not symplectic for {spec}")
    if not _generates_all_transvections(spec, vecs):
        raise AssertionError(f"transvections do not generate for {spec}")
    ident = eye % np.array(spec.moduli)[:, None]
    gens = gens[(gens != ident).any(axis=(1, 2))]
    return gens[_lex_order(_lex_keys(gens, spec.moduli))]


def _generates_all_transvections(spec: SympModule, vecs) -> bool:
    """Every orbit of <tau_{1,v} : v in vecs> on W meets a multiple of some
    v in vecs, or has a trivial transvection tau_{1,x} at its first point
    x.  It labels the orbits of all of W, so a command makes it once per
    module, through the one `transvection_generators` call of its model."""
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, spec.dim)
    label = orbits(spec, _transvections(spec, vecs), spec.exps)
    multiples = (np.arange(spec.modulus)[:, None, None] * vecs
                 % np.array(spec.moduli)).reshape(-1, spec.dim)
    met = np.zeros(label.max() + 1, dtype=bool)
    met[label[np.ravel_multi_index(multiples.T, spec.moduli)]] = True
    firsts = spec.points()[np.unique(label, return_index=True)[1]]
    ident = np.eye(spec.dim, dtype=np.int64) % np.array(spec.moduli)[:, None]
    trivial = (_transvections(spec, firsts) == ident).all(axis=(1, 2))
    return bool((met | trivial).all())


class ClosureCapExceeded(RuntimeError):
    pass


def _lex_keys(mats, moduli) -> np.ndarray:
    """The key of each matrix of an (N, k, d) stack, its rows reduced here
    mod moduli[i]: the entries, row-major, as the mixed-radix digits of as
    few int64 words as hold them.  One int64 per matrix when one word
    does, else a record of int64 words; the keys sort, field by field, as
    the matrices do in the order of `GroupElem.mat`."""
    d = mats.shape[-1]
    flat = mats.reshape(len(mats), mats.shape[-2] * d)
    words, size = [np.zeros(len(flat), dtype=np.int64)], 1
    for i, m in enumerate([x for x in moduli for _ in range(d)]):
        if size * m > 2 ** 63:
            words.append(np.zeros(len(flat), dtype=np.int64))
            size = 1
        size *= m
        # one digit at a time, so that no reduced copy of the stack is made
        words[-1] = words[-1] * m + flat[:, i] % m
    if len(words) == 1:
        return words[0]
    return np.stack(words, axis=1).view([("", np.int64)] * len(words))[:, 0]


def _lex_order(keys) -> np.ndarray:
    """Indices that sort `_lex_keys`, one per distinct key."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return order[first]


class FiniteGroup:
    """A finite matrix group: its generators `gens` and its elements
    `mats`, int64 (k, d, d) and (N, d, d) stacks with row i reduced mod
    moduli[i], the elements once each and sorted by their `keys`, the
    `_lex_keys` that `find` searches."""

    def __init__(self, spec: SympModule, elements, gens):
        d = spec.dim
        mods = np.array(spec.moduli, dtype=np.int64)[:, None]
        self.spec = spec
        self.gens = np.asarray(gens, dtype=np.int64).reshape(-1, d, d) % mods
        mats = np.asarray(elements, dtype=np.int64).reshape(-1, d, d)
        keys = _lex_keys(mats, spec.moduli)
        order = _lex_order(keys)
        self.keys = keys[order]
        del keys    # before the sorted copy of the stack, to bound the peak
        self.mats = mats[order]
        self.mats %= mods

    def __len__(self):
        return len(self.mats)

    def find(self, mats):
        """Index of each matrix of an (..., d, d) integer array-like, its
        rows reduced here, in the group, -1 where it is not an element; an
        int for a single matrix.  The keys are searched in sorted order,
        so that successive binary searches share their path through a
        large group's keys and stay in cache."""
        mats = np.asarray(mats, dtype=np.int64)
        ks = _lex_keys(mats.reshape((-1,) + mats.shape[-2:]), self.spec.moduli)
        order = np.argsort(ks)
        pos = np.empty(len(ks), dtype=np.int64)
        pos[order] = np.minimum(np.searchsorted(self.keys, ks[order]),
                                len(self) - 1)
        out = np.where(self.keys[pos] == ks, pos, -1).reshape(mats.shape[:-2])
        return int(out) if out.ndim == 0 else out


class StabilizerChain:
    """A base and strong generating set of the group generated by a stack
    of matrices, for its action on W, by the deterministic Schreier-Sims
    algorithm (Seress, *Permutation Group Algorithms*, 2003, ch. 4;
    Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
    sec. 4.4).

    The base is e_0..e_{d-1}: a matrix is its images of the basis, its
    columns, so an element fixing every base point is the identity.  Level
    j has generators `gens[j]` fixing e_0..e_{j-1} and the orbit of e_j
    under them as a Schreier vector: the points in order found, as indices
    into `spec.points()`, and for each the generator that found it and the
    position of the point it came from (`gen_of`, `parent`).  Level 0 has
    the given generators.  The product of the orbit lengths is the group
    order once every Schreier generator sifts to the identity; before
    that it is a lower bound, because every generator lies in the group
    and fixes its level's earlier base points.  So `ClosureCapExceeded` is
    raised as soon as the product passes `cap`.
    """

    def __init__(self, spec: SympModule, gens, cap=None):
        self.spec = spec
        d = self.d = spec.dim
        self.cap = cap
        self.mods = np.array(spec.moduli, dtype=np.int64)[:, None]
        self.radix = np.array([math.prod(spec.moduli[i + 1:])
                               for i in range(d)], dtype=np.int64)
        self.eye = np.eye(d, dtype=np.int64)
        S = np.asarray(gens, dtype=np.int64).reshape(-1, d, d) % self.mods
        Sinv = inverse(spec, S)
        # column j of a generator is e_j for j below its first moved point
        fixes = np.logical_and.accumulate(np.concatenate(
            [np.ones((len(S), 1), bool), (S == self.eye).all(axis=1)],
            axis=1), axis=1)
        self.gens = [S[fixes[:, j]] for j in range(d)]
        self.ginv = [Sinv[fixes[:, j]] for j in range(d)]
        self.tested = [[0] * len(g) for g in self.gens]
        self.orbit = [self.radix[j:j + 1].copy() for j in range(d)]
        self.gen_of = [np.array([-1]) for _ in range(d)]
        self.parent = [np.array([-1]) for _ in range(d)]
        # the position of each point of W in the orbit of each level, or -1
        self.where = np.full((d, spec.size()), -1, dtype=np.int32)
        self.where[np.arange(d), self.radix] = 0
        self.lengths = [1] * d
        self.uinv = [None] * d
        # the deep levels first: their short orbits bring the cap closer
        # while the long orbit of level 0 grows
        for j in reversed(range(d)):
            self._grow(j, 0)
        j = d - 1
        while j >= 0:
            k = self._test(j)
            j = j - 1 if k is None else k

    def order(self) -> int:
        return math.prod(self.lengths)

    def _images(self, S, pts):
        """Indices of the images of the points with indices pts under each
        matrix of a stack S: (len(pts), len(S)), point-major."""
        x = np.stack(np.unravel_index(pts, self.spec.moduli))
        return (self.radix @ (S @ x % self.mods)).T

    def _grow(self, j, new):
        """Close the orbit of level j under its generators, of which those
        numbered new.. are new: their images of the orbit points first, then
        breadth first under all of them, in `chunks` of d entries per image.
        Each new point keeps the first (point, generator) that reaches it."""
        frontier = np.arange(self.lengths[j])
        while len(frontier) and new < len(self.gens[j]):
            found, before = [], self.lengths[j]
            k = len(self.gens[j]) - new
            for part in chunks(len(frontier), k * self.d):
                pos = frontier[part]
                img = self._images(self.gens[j][new:],
                                   self.orbit[j][pos]).ravel()
                fresh = np.flatnonzero(self.where[j, img] < 0)
                first = np.sort(np.unique(img[fresh], return_index=True)[1])
                sel = fresh[first]
                count = self.lengths[j]
                self.where[j, img[sel]] = np.arange(count, count + len(sel))
                self.lengths[j] += len(sel)
                found.append((img[sel], new + sel % k, pos[sel // k]))
                if self.cap is not None and self.order() > self.cap:
                    raise ClosureCapExceeded(
                        f"group closure exceeded cap of {self.cap} elements")
            for arrays, part in zip((self.orbit, self.gen_of, self.parent),
                                    zip(*found)):
                arrays[j] = np.concatenate([arrays[j], *part])
            frontier = np.arange(before, self.lengths[j])
            new = 0

    def _transversal(self, j, pos):
        """u_x with u_x e_j = x for the orbit points at positions pos of
        level j: the generators along the Schreier tree from x to e_j."""
        U = self._identities(len(pos))
        pos = pos.copy()
        while len(live := np.flatnonzero(pos)):
            U[live] = U[live] @ self.gens[j][self.gen_of[j][pos[live]]] \
                % self.mods
            pos[live] = self.parent[j][pos[live]]
        return U

    def _sift(self, H, j):
        """Sift a stack H in place through levels j..: at level k, column k
        of H is a point x of the orbit, and H becomes u_x^-1 H.  Returns H
        and the level at which each element left the chain, its column not
        in the orbit; d when it sifted to the identity."""
        stop = np.full(len(H), self.d)
        live = np.arange(len(H))
        for k in range(j, self.d):
            pos = self.where[k, H[live, :, k] @ self.radix]
            stop[live[pos < 0]] = k
            live, pos = live[pos >= 0], pos[pos >= 0]
            H[live] = self._unwind(k, H[live], pos)
        return H, stop

    def _unwind(self, k, H, pos):
        """u_x^-1 H for the points x at positions pos of level k, from a
        table of every u_x^-1 on a level whose table fits one work array of
        `linalg.BUDGET` entries (built on first use; such orbits can be
        long cycles of one generator), else by `_walk`."""
        if self.lengths[k] * self.d ** 2 > linalg.BUDGET:
            return self._walk(k, H, pos)
        if self.uinv[k] is None or len(self.uinv[k]) < self.lengths[k]:
            every = np.arange(self.lengths[k])
            self.uinv[k] = self._walk(k, self._identities(len(every)), every)
        return self.uinv[k][pos] @ H % self.mods

    def _walk(self, k, H, pos):
        """u_x^-1 H, in place, by walking the Schreier tree of level k back
        from each x to e_k."""
        pos = pos.copy()
        while len(m := np.flatnonzero(pos)):
            H[m] = self.ginv[k][self.gen_of[k][pos[m]]] @ H[m] % self.mods
            pos[m] = self.parent[k][pos[m]]
        return H

    def _identities(self, n):
        return np.broadcast_to(self.eye, (n, self.d, self.d)).copy()

    def _test(self, j):
        """Sift the untested Schreier generators u_{sx}^-1 s u_x of level j,
        generator by generator in point order.  The first that leaves a
        residue h, which fixes e_0..e_{k-1} but moves e_k out of the orbit
        of level k, is added to levels j+1..k, and k is returned; None when
        every one sifts to the identity.  Points go in `chunks` of d x d."""
        S, tested = self.gens[j], self.tested[j]
        for s in range(len(S)):
            todo = np.arange(tested[s], self.lengths[j])
            for part in chunks(len(todo), self.d ** 2):
                pos = todo[part]
                end = pos[-1] + 1
                to = self.where[j, self._images(S[s:s + 1],
                                                self.orbit[j][pos])[:, 0]]
                # a tree edge x -> sx gives u_{sx} = s u_x
                pos = pos[(self.gen_of[j][to] != s)
                          | (self.parent[j][to] != pos)]
                H, stop = self._sift(S[s] @ self._transversal(j, pos)
                                     % self.mods, j)
                left = np.flatnonzero(stop < self.d)
                if len(left):
                    tested[s] = pos[left[0]] + 1
                    k = int(stop[left[0]])
                    self._add(H[left[0]], j + 1, k)
                    return k
                tested[s] = end
        return None

    def _add(self, h, lo, hi):
        """Add h as a generator of levels lo..hi and close their orbits."""
        hinv = inverse(self.spec, h[None])
        for k in range(lo, hi + 1):
            self.gens[k] = np.concatenate([self.gens[k], h[None]])
            self.ginv[k] = np.concatenate([self.ginv[k], hinv])
            self.tested[k].append(0)
            self._grow(k, len(self.gens[k]) - 1)

    def elements(self, lo=0, hi=None) -> np.ndarray:
        """The products u_lo .. u_{hi-1} of one transversal element per
        level lo..hi-1, each once, the level lo element most significant:
        an int64 stack.  Over every level that is every element of the
        group.  From level l on, with l = d / 2 on a standard module over
        F_p, the levels fix e_0..e_{l-1}: their products are the Siegel
        unipotent radical N = {[[1, B], [0, 1]]}, and those of the first l
        levels are a set R with G = R N, one element per left coset of N."""
        P = self.eye[None]
        for j in reversed(range(lo, self.d if hi is None else hi)):
            if self.lengths[j] > 1:
                P = self._transversal(j, np.arange(self.lengths[j]))[:, None] \
                    @ P[None]
                np.remainder(P, self.mods, out=P)
                P = P.reshape(-1, self.d, self.d)
        return P

    def element(self, idx) -> np.ndarray:
        """The elements at the indices idx < `order()` of `elements()`: the
        digits of each index over the orbit lengths, level 0 most
        significant, name one transversal element per level, and the
        element is their product.  An int64 (len(idx), d, d) stack that
        lists no other element."""
        digits = np.unravel_index(np.asarray(idx, dtype=np.int64),
                                  self.lengths)
        P = self._identities(len(digits[0]))
        for j in range(self.d):
            if self.lengths[j] > 1:
                # one walk of the Schreier tree per distinct point
                pos, which = np.unique(digits[j], return_inverse=True)
                P = P @ self._transversal(j, pos)[which] % self.mods
        return P


def group_closure(spec: SympModule, gens,
                  cap: int = 2_000_000) -> FiniteGroup:
    """The group generated by gens, enumerated from its `StabilizerChain`.
    Raises `ClosureCapExceeded` when its order is above cap, as soon as the
    chain certifies that, before any element is listed."""
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, spec.dim, spec.dim)
    if not len(gens):
        raise ValueError("need at least one generator")
    if spec.dim * (max(spec.moduli) - 1) ** 2 >= 2 ** 63:
        raise OverflowError(f"int64 matrix products overflow for {spec}")
    return FiniteGroup(spec, StabilizerChain(spec, gens, cap).elements(), gens)


def symplectic_group(spec: SympModule, cap: int = 2_000_000) -> FiniteGroup:
    """The closure of `transvection_generators`: the group generated by all
    transvections."""
    return group_closure(spec, transvection_generators(spec), cap=cap)


# -- orbits ------------------------------------------------------------------


def orbits(spec: SympModule, gens, box) -> np.ndarray:
    """Orbits of the group generated by gens on W modulo the box submodule
    (all of W for box = spec.exps), which gens must preserve.

    The points are `spec.points(box)`; each generator is one index array
    over them, and labels fall to the smallest index in reach until they
    are constant on each orbit.  Returns the orbit number of each point,
    the orbits numbered in order of (length, first point).
    """
    pts = spec.points(box)
    quot = [spec.p ** min(c, a) for c, a in zip(box, spec.exps)]
    perms = [np.ravel_multi_index((pts @ g.T % quot).T, quot) for g in
             np.asarray(gens, dtype=np.int64).reshape(-1, spec.dim, spec.dim)]
    firsts, which, sizes = np.unique(_least_reachable(perms, len(pts)),
                                     return_inverse=True, return_counts=True)
    number = np.empty(len(firsts), dtype=np.int64)
    number[np.lexsort((firsts, sizes))] = np.arange(len(firsts))
    return number[which]


def _least_reachable(perms, n) -> np.ndarray:
    """The smallest index that each of range(n) reaches along the index
    arrays perms, permutations of range(n): each round pulls every label
    down along each array, then halves the chains by pointer jumping,
    until no label moves."""
    label, prev = np.arange(n), None
    while prev is None or (label != prev).any():
        prev = label
        for perm in perms:
            label = np.minimum(label, label[perm])
        label = label[label]
    return label


def conjugacy_classes(group: FiniteGroup):
    """The conjugacy classes of a group: the index of its first element in
    each class, ascending, and the class sizes, two int64 arrays.

    Conjugation by a generator s is one index array, find(s g s^-1) over
    the elements, and the classes are the orbits of these permutations
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005), labelled as in `orbits`.  The conjugates are formed and looked
    up in `chunks` of elements.
    """
    spec = group.spec
    mods = np.array(spec.moduli, dtype=np.int64)[:, None]
    perms = []
    for s, sinv in zip(group.gens, inverse(spec, group.gens)):
        perm = np.concatenate([
            group.find(s @ group.mats[part] % mods @ sinv)
            for part in chunks(len(group), spec.dim ** 2)])
        if (perm < 0).any():
            raise ValueError("a generator conjugates an element out of "
                             "the group")
        perms.append(perm)
    return np.unique(_least_reachable(perms, len(group)), return_counts=True)

