"""The certified transvection generating set against every transvection."""

from itertools import product
from math import prod

import numpy as np
import pytest

from reference import transvection
from weilrep import symplectic
from weilrep.ring_rep import _box_invariant, invariance_generators, \
    scaled_pair_flip
from weilrep.symplectic import (GroupElem, SympModule, symplectic_group,
                                transvection_generators)


def all_transvections(spec):
    """Reference: every nontrivial tau_{a,v}, deduplicated by action."""
    ident = GroupElem.identity(spec)
    seen = {}
    for v in spec.points():
        for a in range(spec.modulus):
            g = transvection(spec, a, v)
            if g != ident:
                seen.setdefault(g.mat, g)
    return list(seen.values())


def sp_order(p, r, k):
    """|Sp(2r, Z/p^k)| = p^{(k-1) r(2r+1)} |Sp(2r, F_p)|."""
    field = p ** (r * r) * prod(p ** (2 * i) - 1 for i in range(1, r + 1))
    return p ** ((k - 1) * r * (2 * r + 1)) * field


MEMBERSHIP = [(3, 1, 0, 0), (5, 1, 0, 0), (7, 1, 0, 0), (3, 1, 0, 1),
              (3, 1, 1, 1), (3, 1, 1, 2), (5, 1, 0, 1), (3, 2, 0, 0)]


@pytest.mark.parametrize("params", MEMBERSHIP, ids=str)
def test_every_transvection_in_group(params):
    spec = SympModule.standard(*params)
    G = symplectic_group(spec)
    assert (G.find(all_transvections(spec)) >= 0).all()
    k = set(spec.exps)
    if len(k) == 1:
        assert len(G) == sp_order(spec.p, spec.r, k.pop())


@pytest.mark.parametrize("params", MEMBERSHIP + [(3, 2, 1, 1)], ids=str)
def test_generator_set_shape(params):
    for flavor in ("B", "Bstar"):
        spec = SympModule.standard(*params, flavor=flavor)
        gens = transvection_generators(spec)
        assert gens.dtype == np.int64 and gens.shape[1:] == (spec.dim,) * 2
        assert len(gens) <= 2 * spec.dim - 1
        mats = [GroupElem(spec, g).mat for g in gens.tolist()]
        assert mats == sorted(set(mats))
        assert GroupElem.identity(spec).mat not in mats


BOXES = [(3, 1, 0, 1, "B"), (3, 1, 0, 1, "Bstar"), (3, 1, 1, 1, "B"),
         (3, 1, 1, 1, "Bstar"), (3, 1, 1, 2, "B"), (3, 1, 1, 2, "Bstar"),
         (5, 1, 0, 1, "B"), (5, 1, 0, 1, "Bstar"), (3, 1, 0, 2, "B"),
         (3, 2, 1, 1, "B"), (3, 2, 1, 1, "Bstar"), (3, 2, 0, 1, "Bstar"),
         (3, 2, 2, 1, "B")]


@pytest.mark.parametrize("params", BOXES, ids=str)
def test_same_invariant_boxes_as_all_transvections(params):
    *prl, flavor = params
    spec = SympModule.standard(*prl, flavor=flavor)
    flip = scaled_pair_flip(spec)
    reference = all_transvections(spec) + ([] if flip is None else [flip])
    small = invariance_generators(spec)
    for divs in product(*[range(e + 1) for e in spec.exps]):
        assert _box_invariant(spec, divs, reference) \
            == _box_invariant(spec, divs, small), divs


def test_certificate_rejects_non_generating_set(monkeypatch):
    spec = SympModule.standard(3, 1, 0, 0)
    assert not symplectic._generates_all_transvections(spec, [(1, 0)])
    assert symplectic._generates_all_transvections(
        spec, [(1, 0), (0, 1), (1, 1)])
    monkeypatch.setattr(symplectic, "_generates_all_transvections",
                        lambda spec, vecs: False)
    with pytest.raises(AssertionError):
        transvection_generators(spec)
