"""Spans around the public functions of weilrep, installed from outside.

`install` replaces each function in WRAPPED by a wrapper that records one
span (name, parent span, start, end) per call, and rebinds every weilrep
namespace that imported the function by name, so that no call escapes the
count.  Spans stay in memory until `dump` writes them.  `summarize` turns a
dump into per-function calls, inclusive time and self time, where self time
is a span's duration minus the durations of its direct child spans.

Times come from time.monotonic, which on Linux is CLOCK_MONOTONIC and so is
shared by the benchmark process and the operation process it starts.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

WRAPPED = [
    ("symplectic", "transvection_generators"),
    ("symplectic", "group_closure"),
    ("symplectic", "symplectic_group"),
    ("symplectic", "orbits"),
    ("symplectic", "GroupElem.inverse"),
    ("oscillator", "OscillatorRep.op"),
    ("oscillator", "OscillatorRep.M_X"),
    ("oscillator", "bruhat_decompose"),
    ("oscillator", "OscillatorRep.rho"),
    ("oscillator", "parabolic_identity_report"),
    ("ring_rep", "canonical_isotropic"),
    ("ring_rep", "RingWeilRep.blocks"),
    ("ring_rep", "RingWeilRep.op"),
    ("ring_rep", "RingWeilRep.trace"),
    ("ring_rep", "RingWeilRep.sigma_op"),
    ("ring_rep", "RingWeilRep.heis_op"),
    ("ring_rep", "decompose"),
    ("ring_rep", "summand_characters"),
    ("ring_rep", "character_norm"),
    ("ring_rep", "shell_dimensions"),
    ("ring_rep", "abelianization_character"),
    ("torus", "TorusContext.__init__"),
    ("torus", "TorusContext.multiplicities"),
    ("torus", "multiplicity_report"),
    ("torus", "TorusContext.conductor"),
    ("torus", "TorusContext.eigenvector"),
    ("torus", "TorusContext.eigen_residual"),
    ("torus", "residue_operator_check"),
    ("torus", "product_torus_multiplicities"),
    ("rings", "QuadExt.norm_one_group"),
    ("rings", "QuadExt.congruence_subgroup"),
    ("cli", "cmd_field"),
    ("cli", "cmd_ring"),
    ("cli", "cmd_torus"),
    ("cli", "Report.finish"),
]
NAMES = [f"{mod}.{qual}" for mod, qual in WRAPPED]

# Counts recorded at the wrapped boundaries, beside calls and times.
COUNTS = [
    "symplectic.transvection_generators.gens",
    "symplectic.group_closure.elements",
    "symplectic.symplectic_group.cache_hits",
    "oscillator.OscillatorRep.op.repeats",
    "ring_rep.canonical_isotropic.boxes",
    "ring_rep.RingWeilRep.op.dense_bytes",
]

ROOT = "op"


class Tracer:
    """Span store of one operation process; span 0 is the whole operation."""

    def __init__(self, start):
        self.names = [ROOT] + NAMES
        self.spans = [[0, -1, start, None]]
        self.stack = [0]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._groups = []       # groups returned by symplectic_group
        self._seen_args = {}    # id(OscillatorRep) -> (rep, arguments seen)

    def wrap(self, name, fn):
        name_id = self.names.index(name)
        hook = _HOOKS.get(name)
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1], 0.0, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def dump(self, path):
        self.spans[0][3] = time.monotonic()
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)


def _gens(tr, args, result):
    tr.counts["symplectic.transvection_generators.gens"] += len(result)


def _elements(tr, args, result):
    tr.counts["symplectic.group_closure.elements"] += len(result)


def _cache_hit(tr, args, result):
    if any(g is result for g in tr._groups):
        tr.counts["symplectic.symplectic_group.cache_hits"] += 1
    else:
        tr._groups.append(result)


def _repeat(tr, args, result):
    rep, g = args[0], args[1]
    seen = tr._seen_args.setdefault(id(rep), (rep, set()))[1]
    key = tuple(tuple(row) for row in g)
    if key in seen:
        tr.counts["oscillator.OscillatorRep.op.repeats"] += 1
    else:
        seen.add(key)


def _boxes(tr, args, result):
    tr.counts["ring_rep.canonical_isotropic.boxes"] += math.prod(
        e + 1 for e in args[0].exps)


def _dense(tr, args, result):
    tr.counts["ring_rep.RingWeilRep.op.dense_bytes"] += args[0].dim ** 2 * 16


_HOOKS = {
    "symplectic.transvection_generators": _gens,
    "symplectic.group_closure": _elements,
    "symplectic.symplectic_group": _cache_hit,
    "oscillator.OscillatorRep.op": _repeat,
    "ring_rep.canonical_isotropic": _boxes,
    "ring_rep.RingWeilRep.op": _dense,
}


def install(start) -> Tracer:
    """Wrap every function in WRAPPED; the root span begins at `start`."""
    tracer = Tracer(start)
    importlib.import_module("weilrep")
    namespaces = [m for k, m in sys.modules.items()
                  if k == "weilrep" or k.startswith("weilrep.")]
    for mod_name, qual in WRAPPED:
        owner = importlib.import_module(f"weilrep.{mod_name}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = vars(owner)[attr]
        wrapped = tracer.wrap(f"{mod_name}.{qual}", orig)
        setattr(owner, attr, wrapped)
        if not path:
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapped)
    return tracer


def summarize(doc):
    """Per-name [calls, inclusive s, self s], counts, and span totals."""
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for name_id, parent, t0, t1 in spans[1:]:
        child_time[parent] += t1 - t0
    per_name = {name: [0, 0.0, 0.0] for name in names}
    self_total = 0.0
    min_self = math.inf
    for i, (name_id, parent, t0, t1) in enumerate(spans):
        own = (t1 - t0) - child_time[i]
        rec = per_name[names[name_id]]
        rec[0] += 1
        rec[1] += t1 - t0
        rec[2] += own
        self_total += own
        min_self = min(min_self, own)
    root = spans[0]
    return {"per_name": per_name, "counts": doc["counts"],
            "spans": len(spans) - 1, "root_start": root[2],
            "root_end": root[3], "root_s": root[3] - root[2],
            "self_total_s": self_total, "min_self_s": min_self}
