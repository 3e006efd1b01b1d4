"""Every element of SL2(F_p) and of Sp(2l, F_p) as a tuple of rows, for
the tests that take group elements one at a time."""

from functools import lru_cache
from itertools import product

import numpy as np

from weilrep.symplectic import SympModule, symplectic_group


def sl2_elements(p):
    out = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            out.append(((a, b), (c, d)))
    return out


@lru_cache(maxsize=None)
def sp_elements(l, p):
    """All of Sp(2l, F_p), sorted; equal rows are one shared tuple."""
    mats = symplectic_group(SympModule.standard(p, l, 0, 0)).mats
    rows = list(product(range(p), repeat=2 * l))
    radix = p ** np.arange(2 * l - 1, -1, -1)
    return tuple(tuple(rows[i] for i in m) for m in (mats @ radix).tolist())


def parabolic_elements(l, p):
    """All symplectic elements with vanishing lower-left block."""
    out = []
    for g in sp_elements(l, p):
        if all(g[l + i][j] % p == 0 for i in range(l) for j in range(l)):
            out.append(g)
    return out
