"""Finite symplectic modules over Z/p^{n+1} with mixed cyclic moduli.

A module is a product of cyclic groups Z/p^{a_i} carrying an alternating
form given by an integer Gram matrix mod p^{n+1}.  Automorphisms are stored
as constrained integer matrices: entry (i,j) must be divisible by
p^{max(0, a_i - a_j)} so that the action on mixed moduli is well defined,
and two matrices are equal iff they act identically, i.e. row i agrees
mod p^{a_i}.
"""

from __future__ import annotations

from itertools import product

from .linalg import mat_det, mat_inv
from .rings import vp


class SympModule:
    """Coordinate module prod_i Z/p^{moduli[i]} with alternating Gram form."""

    def __init__(self, p, n, moduli, gram, r=None, l=None, flavor=None):
        self.p = p
        self.n = n
        self.modulus = p ** (n + 1)          # values of the form live here
        self.moduli = tuple(moduli)          # p^{a_i} per coordinate
        self.exps = tuple(vp(m, p) for m in self.moduli)
        self.gram = tuple(tuple(x % self.modulus for x in row) for row in gram)
        self.dim = len(self.moduli)
        self.r = r
        self.l = l
        self.flavor = flavor
        # largest s with all gram entries divisible by p^s
        self.form_content = min((vp(x, p) for row in self.gram for x in row
                                 if x), default=n + 1)
        for i in range(self.dim):
            if self.gram[i][i] % self.modulus:
                raise ValueError("gram must be alternating")
            for j in range(self.dim):
                if (self.gram[i][j] + self.gram[j][i]) % self.modulus:
                    raise ValueError("gram must be alternating")

    # -- construction ----------------------------------------------------------

    @classmethod
    def standard(cls, p, r, l, n, flavor="B"):
        """The level-n module of a good lattice with invariant l.

        Coordinates are ordered (u_1..u_l, x_{l+1}..x_r, v_1..v_l,
        y_{l+1}..y_r); u,v have modulus p^n and x,y have p^{n+1}; the form is
        p*(u.v' - v.u') + (x.y' - y.x').  The dual-side module ("Bstar") is
        the same construction with l replaced by r - l.
        """
        if not (0 <= l <= r):
            raise ValueError(f"need 0 <= l <= r, got l={l}, r={r}")
        if n < 0:
            raise ValueError("level n must be >= 0")
        l_real = l if flavor == "B" else r - l
        if flavor not in ("B", "Bstar"):
            raise ValueError(f"unknown flavor {flavor!r}")
        moduli = [p ** n] * l_real + [p ** (n + 1)] * (r - l_real)
        moduli = moduli + moduli
        dim = 2 * r
        gram = [[0] * dim for _ in range(dim)]
        for i in range(r):
            c = p if i < l_real else 1
            gram[i][r + i] = c
            gram[r + i][i] = -c % p ** (n + 1)
        return cls(p, n, moduli, gram, r=r, l=l, flavor=flavor)

    # -- vectors ---------------------------------------------------------------

    def reduce(self, v):
        return tuple(x % m for x, m in zip(v, self.moduli))

    def zero(self):
        return (0,) * self.dim

    def add(self, v, w):
        return tuple((a + b) % m for a, b, m in zip(v, w, self.moduli))

    def neg(self, v):
        return tuple((-a) % m for a, m in zip(v, self.moduli))

    def sub(self, v, w):
        return tuple((a - b) % m for a, b, m in zip(v, w, self.moduli))

    def smul(self, c, v):
        return tuple((c * a) % m for a, m in zip(v, self.moduli))

    def vectors(self):
        return product(*[range(m) for m in self.moduli])

    def size(self) -> int:
        out = 1
        for m in self.moduli:
            out *= m
        return out

    def basis_vector(self, i):
        v = [0] * self.dim
        v[i] = 1
        return tuple(v)

    def form(self, v, w) -> int:
        """beta(v, w) in Z/p^{n+1}; well defined by the gram divisibilities."""
        s = 0
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            row = self.gram[i]
            for j, wj in enumerate(w):
                if wj and row[j]:
                    s += vi * row[j] * wj
        return s % self.modulus

    # -- boxes: submodules of the shape {v : p^{c_i} | v_i} ---------------------

    def box_elements(self, divs):
        """Elements of the box submodule with divisibility exponents divs."""
        ranges = []
        for c, m, a in zip(divs, self.moduli, self.exps):
            step = self.p ** min(c, a)
            ranges.append(range(0, m, step) if step < m else (0,))
        return [tuple(v) for v in product(*ranges)]

    def box_size(self, divs) -> int:
        out = 1
        for c, a in zip(divs, self.exps):
            out *= self.p ** max(0, a - min(c, a))
        return out

    def in_box(self, v, divs) -> bool:
        return all(x % self.p ** min(c, a) == 0
                   for x, c, a in zip(v, divs, self.exps))

    def quotient_reduce(self, v, divs):
        """Canonical representative of v modulo the box submodule."""
        return tuple(x % self.p ** min(c, a)
                     for x, c, a in zip(v, divs, self.exps))

    def quotient_reps(self, divs):
        ranges = [range(self.p ** min(c, a))
                  for c, a in zip(divs, self.exps)]
        return [tuple(v) for v in product(*ranges)]

    def dual_box(self, divs):
        """Box orthogonal to a box under psi(beta(.,.)), for monomial grams."""
        out = [self.exps[i] for i in range(self.dim)]  # start at full (zero)
        for i in range(self.dim):
            nz = [j for j in range(self.dim) if self.gram[i][j] % self.modulus]
            if len(nz) != 1:
                raise NotImplementedError("dual_box needs a monomial gram")
            j = nz[0]
            w = vp(self.gram[i][j] % self.modulus, self.p)
            # beta(v, p^{c_i} e_i) = p^{c_i} * gram[i][j]... with v_j paired
            need = max(0, (self.n + 1) - min(divs[i], self.exps[i]) - w)
            out[j] = min(out[j], need)
        return tuple(min(c, a) for c, a in zip(out, self.exps))

    def __repr__(self):
        tag = ""
        if self.r is not None:
            tag = f", r={self.r}, l={self.l}, flavor={self.flavor}"
        return f"SympModule(p={self.p}, n={self.n}, moduli={self.moduli}{tag})"


class GroupElem:
    """Symplectic automorphism stored as a constrained integer matrix.

    Equality is equality of action: row i is reduced mod p^{a_i}.
    """

    __slots__ = ("spec", "mat", "_hash")

    def __init__(self, spec: SympModule, mat, check=True):
        self.spec = spec
        p = spec.p
        exps = spec.exps
        canon = tuple(
            tuple(x % (p ** exps[i]) for x in row)
            for i, row in enumerate(mat)
        )
        self.mat = canon
        self._hash = hash((spec.moduli, canon))
        if check:
            for i in range(spec.dim):
                for j in range(spec.dim):
                    d = p ** max(0, exps[i] - exps[j])
                    if canon[i][j] % d:
                        raise ValueError(
                            f"entry ({i},{j})={canon[i][j]} violates "
                            f"divisibility p^{max(0, exps[i]-exps[j])}")

    @classmethod
    def identity(cls, spec):
        return cls(spec, [[int(i == j) for j in range(spec.dim)]
                          for i in range(spec.dim)], check=False)

    def act(self, v):
        mat = self.mat
        return tuple(
            sum(mat[i][j] * v[j] for j in range(self.spec.dim)) % m
            for i, m in enumerate(self.spec.moduli)
        )

    def __mul__(self, other):
        a, b = self.mat, other.mat
        dim = self.spec.dim
        prod_mat = [
            [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        return GroupElem(self.spec, prod_mat, check=False)

    def inverse(self) -> "GroupElem":
        inv = mat_inv(self.mat, self.spec.p, self.spec.n + 1)
        return GroupElem(self.spec, inv, check=False)

    def is_symplectic(self) -> bool:
        spec = self.spec
        M = spec.modulus
        g = self.mat
        dim = spec.dim
        for i in range(dim):
            for j in range(dim):
                s = 0
                for k in range(dim):
                    if g[k][i] == 0:
                        continue
                    row = spec.gram[k]
                    for t in range(dim):
                        if row[t] and g[t][j]:
                            s += g[k][i] * row[t] * g[t][j]
                if (s - spec.gram[i][j]) % M:
                    return False
        return True

    def is_invertible(self) -> bool:
        return mat_det(self.mat, self.spec.p) != 0

    def __eq__(self, other):
        return self.mat == other.mat and self.spec.moduli == other.spec.moduli

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupElem({self.mat})"


# -- generators and closure ------------------------------------------------


def transvection(spec: SympModule, a: int, v) -> GroupElem:
    """w -> w + a*beta(v,w)*v, with beta normalized by the gram content.

    When every form value is divisible by p^s (the degenerate modules with
    scaled gram), the literal transvections all collapse to the identity;
    dividing by p^s gives the transvections of the underlying structure and
    is what makes closure match the brute-force symplectic count.
    """
    dim = spec.dim
    ps = spec.p ** spec.form_content
    cols = []
    for j in range(dim):
        e = spec.basis_vector(j)
        b = spec.form(v, e) // ps
        cols.append([(int(i == j) + a * b * v[i]) for i in range(dim)])
    mat = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return GroupElem(spec, mat)


def transvection_generators(spec: SympModule) -> list:
    """All distinct transvections tau_{a,v}, deduplicated by action."""
    seen = {}
    ident = GroupElem.identity(spec)
    for v in spec.vectors():
        for a in range(spec.modulus):
            g = transvection(spec, a, v)
            if g != ident:
                seen.setdefault(g.mat, g)
    return [seen[m] for m in sorted(seen)]


class ClosureCapExceeded(RuntimeError):
    pass


class FiniteGroup:
    """A finite matrix group: canonical sorted element list plus index."""

    def __init__(self, elements, gens=None):
        self.elements = sorted(elements, key=lambda g: g.mat)
        self.index = {g.mat: i for i, g in enumerate(self.elements)}
        self.gens = gens or []

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g.mat in self.index

    def identity(self):
        return GroupElem.identity(self.elements[0].spec)


def group_closure(gens, cap: int = 2_000_000) -> FiniteGroup:
    """BFS closure of the generated subgroup, deduplicated by action."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ident = GroupElem.identity(gens[0].spec)
    seen = {ident.mat: ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.mat not in seen:
                    seen[y.mat] = y
                    new.append(y)
                    if len(seen) > cap:
                        raise ClosureCapExceeded(
                            f"group closure exceeded cap of {cap} elements")
        frontier = new
    return FiniteGroup(list(seen.values()), gens=gens)


_SP_CACHE: dict = {}


def symplectic_group(spec: SympModule, cap: int = 2_000_000) -> FiniteGroup:
    """The group generated by all transvections of the module.

    Seeds the BFS with a small generator subset and then verifies that the
    full transvection set is contained in the result; falls back to the full
    set if not.  Cached per module.
    """
    key = (spec.p, spec.n, spec.moduli, spec.gram)
    if key in _SP_CACHE:
        return _SP_CACHE[key]
    gens = transvection_generators(spec)
    k = len(gens)
    seed_idx = sorted({0, k // 7, 2 * k // 7, 3 * k // 7, 4 * k // 7,
                       5 * k // 7, 6 * k // 7, k - 1} & set(range(k)))
    seed = [gens[i] for i in seed_idx]
    G = group_closure(seed, cap=cap)
    if not all(g in G for g in gens):
        G = group_closure(gens, cap=cap)
    G = FiniteGroup(G.elements, gens=gens)
    _SP_CACHE[key] = G
    return G


def brute_force_symplectic_count(spec: SympModule, limit: int = 2_000_000) -> int:
    """Count constrained matrices preserving the form, by direct scan."""
    p = spec.p
    dim = spec.dim
    exps = spec.exps
    total = 1
    entry_ranges = []
    for i in range(dim):
        for j in range(dim):
            d = p ** max(0, exps[i] - exps[j])
            m = p ** exps[i]
            entry_ranges.append(range(0, m, d))
            total *= len(entry_ranges[-1])
    if total > limit:
        raise ClosureCapExceeded(
            f"brute-force scan of {total} matrices exceeds limit {limit}")
    count = 0
    for flat in product(*entry_ranges):
        mat = [list(flat[i * dim:(i + 1) * dim]) for i in range(dim)]
        g = GroupElem(spec, mat, check=False)
        if g.is_symplectic() and g.is_invertible():
            count += 1
    return count


# -- orbits ------------------------------------------------------------------


def orbits(gens, points, act=None):
    """Partition of the given points under the group generated by gens.

    Returns a sorted list of sorted orbits (deterministic).
    """
    if act is None:
        act = lambda g, v: g.act(v)
    remaining = set(points)
    out = []
    for start in sorted(points):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for v in frontier:
                for g in gens:
                    w = act(g, v)
                    if w not in orbit:
                        orbit.add(w)
                        new.append(w)
            frontier = new
        remaining -= orbit
        out.append(sorted(orbit))
    out.sort(key=lambda o: (len(o), o[0]))
    return out


def reduce_level(g: GroupElem, target: SympModule) -> GroupElem:
    """Functorial reduction of an automorphism to a lower level."""
    if target.p != g.spec.p or target.dim != g.spec.dim:
        raise ValueError("incompatible reduction target")
    if any(te > se for te, se in zip(target.exps, g.spec.exps)):
        raise ValueError("target moduli must divide source moduli")
    return GroupElem(target, [list(row) for row in g.mat])
