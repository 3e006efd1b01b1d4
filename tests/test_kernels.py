"""The numpy kernels against the pure-Python loops they replace.

`group_closure` must return the same elements in the same order as a plain
BFS over `GroupElem` products, and `OscillatorRep.M_X` the same operator as
a loop over the points (x, y_j) of W.
"""

import random
from itertools import product

import numpy as np
import pytest

from weilrep.linalg import mat_inv, mat_vec
from weilrep.oscillator import OscillatorRep, sl2_elements, sp_elements
from weilrep.rings import unit_phase
from weilrep.symplectic import (ClosureCapExceeded, GroupElem, SympModule,
                                group_closure, transvection_generators)


def reference_closure(gens):
    """Sorted matrices of the closure, by BFS over GroupElem products."""
    ident = GroupElem.identity(gens[0].spec)
    seen = {ident.mat}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.mat not in seen:
                    seen.add(y.mat)
                    new.append(y)
        frontier = new
    return sorted(seen)


# the last two have BFS frontiers of 3,496 and 3,588 elements, so a level
# spans more than one chunk of the vectorized closure
CLOSURE_CASES = [(3, 1, 0, 0), (5, 1, 0, 0), (7, 1, 0, 0), (3, 1, 1, 1),
                 (3, 1, 0, 1), (3, 1, 1, 2), (5, 1, 0, 1), (3, 1, 0, 2)]


@pytest.mark.parametrize("args", CLOSURE_CASES, ids=str)
def test_closure_matches_reference_bfs(args):
    gens = transvection_generators(SympModule.standard(*args))
    G = group_closure(gens)
    assert [g.mat for g in G] == reference_closure(gens)
    assert all(G.index[g.mat] == i for i, g in enumerate(G))
    assert G.gens == gens


def test_closure_cap_without_overflow():
    # Sp(6, F_5): a mixed-radix int64 key of 36 base-5 digits would overflow
    gens = transvection_generators(SympModule.standard(5, 3, 0, 0))
    with pytest.raises(ClosureCapExceeded):
        group_closure(gens, cap=1000)


def reference_M_X(rep, g):
    """The loop over (x, y_j): phi(w) = psi(-x.y/2) phi(0, y) on g^{-1} w."""
    p, l = rep.p, rep.l
    psi = lambda c: unit_phase(rep.scale * c, p)
    ginv = mat_inv(g, p)
    op = np.zeros((rep.dim, rep.dim), dtype=complex)
    for jrow, yj in enumerate(rep.ys):
        for x in product(range(p), repeat=l):
            v = mat_vec(ginv, tuple(x) + yj, p)
            vx, vy = v[:l], v[l:]
            ph = psi(-rep.half * sum(a * b for a, b in zip(vx, vy)))
            dot = sum(a * b for a, b in zip(x, yj))
            op[jrow, rep.ys.index(vy)] += psi(rep.half * dot) * ph
    return op / (p ** l)


def _check_M_X(l, p, elements):
    # scale 1 and a non-square scale
    nonsquare = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)
    for scale in (1, nonsquare):
        rep = OscillatorRep(l, p, scale)
        for g in elements:
            assert np.abs(rep.M_X(g) - reference_M_X(rep, g)).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7])
def test_M_X_matches_reference_on_sl2(p):
    _check_M_X(1, p, sl2_elements(p))


def test_M_X_matches_reference_on_sp4():
    _check_M_X(2, 3, random.Random(4).sample(sp_elements(2, 3), 200))
