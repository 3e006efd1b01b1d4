"""Command-line front end: construct, verify, and emit JSON reports.

Subcommands: field | ring | torus | selfcheck.  Reports are deterministic
for a fixed seed and meet the schema shipped with the package by
construction; the exit code is 0 iff no check fails, and 2 for invalid
arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import numpy as np

from . import oscillator as osc
from . import ring_rep as rr
from . import torus as tor
from .rings import _is_prime, legendre
from .symplectic import (ClosureCapExceeded, SympModule, orbits,
                         symplectic_group, transvection_generators)

SCHEMA_VERSION = "2"


def _f(x):
    """Floats printed with 12 significant digits for diffable reports."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, complex):
        return [_f(x.real), _f(x.imag)]
    if isinstance(x, dict):
        return {k: _f(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_f(v) for v in x]
    return x


COMMANDS = ("field", "ring", "torus", "selfcheck")
STATUSES = ("pass", "fail", "skipped", "info")


class Report:
    """A report document that meets `report_schema.json` by construction:
    the constructor and `add` refuse the values the schema rejects."""

    def __init__(self, command, config, seed):
        if command not in COMMANDS:
            raise ValueError(f"unknown report command {command!r}")
        self.doc = {"schema_version": SCHEMA_VERSION, "command": command,
                    "config": config, "seed": seed, "checks": [],
                    "failures": 0}

    def add(self, name, anchor, status, measured=None, residual=None, note=None):
        if status not in STATUSES:
            raise ValueError(f"unknown check status {status!r}")
        if not all(isinstance(s, str) for s in (name, anchor, note or "")):
            raise ValueError("check name, anchor and note must be strings")
        rec = {"name": name, "anchor": anchor, "status": status}
        if measured is not None:
            rec["measured"] = _f(measured)
        if residual is not None:
            rec["residual"] = _f(float(residual))
        if note:
            rec["note"] = note
        self.doc["checks"].append(rec)
        if status == "fail":
            self.doc["failures"] += 1

    def check(self, name, anchor, ok, measured=None, residual=None, note=None):
        self.add(name, anchor, "pass" if ok else "fail", measured, residual, note)

    def finish(self, out=None):
        text = json.dumps(self.doc, indent=2, sort_keys=True)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return self.doc["failures"]


# -- field command -------------------------------------------------------------


def cmd_field(args) -> int:
    p, l = args.p, args.r
    rng = random.Random(args.seed)
    rep_doc = Report("field", {"p": p, "rank": l, "tol": args.tol},
                     args.seed)
    tol = args.tol
    if l not in (1, 2) or p > 7 or (l == 2 and p > 3):
        rep_doc.add("configuration", "caps", "skipped",
                    note="rank/prime outside the enumerable range")
        return rep_doc.finish(args.out)

    w1 = osc.weil_index(p, 1)
    rep_doc.check("weil-index-square", "weil-index-square",
                  abs(w1 ** 2 - legendre(-1, p)) <= tol,
                  measured={"omega1_sq": w1 ** 2, "legendre_minus1": legendre(-1, p)},
                  residual=abs(w1 ** 2 - legendre(-1, p)))
    worst = max(abs(osc.weil_index(p, a) / w1 - legendre(a, p))
                for a in range(1, p))
    rep_doc.check("weil-index-ratio", "weil-index-ratio", worst <= tol,
                  residual=worst)
    hd = abs(-osc.weil_index_quadratic_ext(p) - (-w1) ** 2)
    rep_doc.check("hasse-davenport", "hasse-davenport", hd <= tol, residual=hd)

    rep = osc.OscillatorRep(l, p)
    G = symplectic_group(SympModule.standard(p, l, 0, 0))
    mats, order = G.mats, len(G)
    exhaustive = order <= 150
    # every element, point and level is drawn before any check runs, in
    # the order in which the checks use them
    pairs = None if exhaustive else np.array(
        [(rng.randrange(order), rng.randrange(order))
         for _ in range(args.samples)])
    draws = [(rng.randrange(order), _draw_point(rng, (p,) * (2 * l)),
              rng.randrange(p)) for _ in range(1000)]
    if exhaustive:
        S = rep.ops(mats)
        prods = G.find(mats[:, None] @ mats[None] % p)
        rows = max(1, osc._CHUNK // order)
        worst = max(float(np.abs(S[i:i + rows, None] @ S
                                 - S[prods[i:i + rows]]).max())
                    for i in range(0, order, rows))
    else:
        worst = 0.0
        for start in range(0, len(pairs), osc._CHUNK):
            g, h = mats[pairs[start:start + osc._CHUNK].T]
            S = rep.ops(np.concatenate([g, h, g @ h % p]))
            Sg, Sh, Sgh = np.split(S, 3)
            worst = max(worst, float(np.abs(Sg @ Sh - Sgh).max()))
    name = "exhaustive" if exhaustive else "sampled"
    rep_doc.check(f"homomorphism-{name}", "genuine-splitting", worst <= tol,
                  measured={"group_order": order} if exhaustive else
                  {"group_order": order, "pairs": args.samples},
                  residual=worst)

    g, w, t = (np.array(col) for col in zip(*draws))
    U = rep.ops(mats[g])
    # g acts on the Heisenberg group by g.(w, t) = (gw, t)
    gw = (mats[g] @ w[..., None])[..., 0] % p
    worst = float(np.abs(U @ rep.rho(w, t) @ U.conj().transpose(0, 2, 1)
                         - rep.rho(gw, t)).max())
    rep_doc.check("heisenberg-intertwining", "covariance", worst <= tol,
                  residual=worst)

    rpt = osc.parabolic_identity_report(rep, tol=tol)
    rep_doc.check("parabolic-scalar", "parabolic-scalar",
                  not rpt["parabolic_failures"],
                  measured={"failures": len(rpt["parabolic_failures"])})
    rep_doc.check("siegel-flip-scalar", "siegel-flip-scalar",
                  rpt["J_deviation"] <= tol, residual=rpt["J_deviation"])

    cn = float(np.sum(np.abs(rep.traces(mats)) ** 2)) / order
    rep_doc.check("orbit-count-identity", "orbit-count-identity",
                  abs(cn - 2) <= 1e-6, measured={"character_norm": cn,
                                                 "orbit_count": 2})
    return rep_doc.finish(args.out)


# -- ring command ---------------------------------------------------------------


def cmd_ring(args) -> int:
    p, r, l, n = args.p, args.r, args.l, args.n
    rng = random.Random(args.seed)
    rep_doc = Report("ring", {"p": p, "r": r, "l": l, "n": n,
                              "cap_group": args.cap_group,
                              "cap_dim": args.cap_dim, "twist": args.twist},
                     args.seed)
    tol = args.tol
    spec = SympModule.standard(p, r, l, n)
    model_spec, lifted = rr.faithful_model(spec)
    rep_doc.doc["config"]["model_moduli"] = list(model_spec.moduli)
    rep_doc.doc["config"]["lifted"] = lifted
    if model_spec.size() > args.cap_dim ** 2:
        return _skip_model(rep_doc, math.isqrt(model_spec.size()), args)
    rep = rr.build_ring_rep(spec)

    shells = rr.shell_dimensions(p, r, l, n)
    rep_doc.check("shell-dimensions", "shell-dimensions", shells["all_match"],
                  measured={sh["shell"]: [sh["dim_plus"], sh["dim_minus"]]
                            for sh in shells["shells"]})

    try:
        G = symplectic_group(rep.spec, cap=args.cap_group)
    except ClosureCapExceeded as exc:
        rep_doc.add("group-closure", "caps", "skipped", note=str(exc))
        G = None
    if G is None:
        if args.twist:
            rep_doc.add("twist", "caps", "skipped",
                        note=f"--twist needs the group closure, which "
                             f"exceeds cap {args.cap_group}")
        # structural-only checks on sampled generator words
        gens = transvection_generators(rep.spec)
        letters = np.array([rng.choices(range(len(gens)), k=2 * rep.spec.dim)
                            for _ in range(20)])
        words = gens[letters[:, 0]]
        for k in letters.T[1:]:
            words = words @ gens[k] % rep.heis.mods[:, None]
        covariance = _covariance_draws(rng, rep, iter(words[:10]))
        ops = rep.blocks(words)
        worst = 0.0
        for part in _spans(len(words), rep.dim):
            # U U^* as a block-monomial product, as in _check_intertwining
            Uh = ops[part].dense().conj().transpose(0, 2, 1)
            worst = max(worst, float(np.abs(
                ops[part].apply(Uh) - np.eye(rep.dim)).max()))
        rep_doc.check("unitarity-sampled", "unitarity", worst <= tol,
                      residual=worst)
        _check_intertwining(rep_doc, rep, *covariance, tol)
        return rep_doc.finish(args.out)

    rep_doc.doc["config"]["group_order"] = len(G)
    # every element, point and level is drawn before any check runs, in
    # the order in which the checks use them
    pairs = np.array([(rng.randrange(len(G)), rng.randrange(len(G)))
                      for _ in range(args.samples // 100 or 50)])
    covariance = _covariance_draws(
        rng, rep, (G.mats[rng.randrange(len(G))] for _ in range(50)))
    if args.twist:
        chi, k = rr.abelianization_character(G, args.twist)
        rep_doc.doc["config"]["twist_order"] = k
        rep.twist = chi
    summands = rr.decompose(rep, G)
    dims = sorted(s.dim for s in summands)
    rep_doc.check("summand-count", "summand-count", True,
                  measured={"count": len(summands), "dims": dims,
                            "sum": sum(dims), "model_dim": rep.dim})
    chars = rr.summand_characters(rep, G, summands)
    gram = (chars @ chars.conj().T / len(G))
    irr_dev = float(np.abs(gram - np.eye(len(summands))).max())
    rep_doc.check("summand-irreducibility", "summand-irreducibility",
                  irr_dev <= 1e-6, residual=irr_dev)
    # the summands decompose the model, so their characters sum to tr S(g)
    cn, dev = rr.character_norm(chars.sum(axis=0))
    orb = int(orbits(rep.spec, G.gens, rep.spec.exps).max()) + 1
    rep_doc.check("orbit-count-identity", "orbit-count-identity",
                  cn == orb and dev <= 1e-6,
                  measured={"character_norm": cn, "orbit_count": orb},
                  residual=dev)
    n = len(pairs)
    g, h = G.mats[pairs.T]
    ops = rep.blocks(np.concatenate([g, h, g @ h % rep.heis.mods[:, None]]))
    worst = 0.0
    for part in _spans(n, rep.dim):
        idx = np.arange(n)[part]
        Sg, Sh, Sgh = (ops[idx + k * n].dense() for k in range(3))
        worst = max(worst, float(np.abs(Sg @ Sh - Sgh).max()))
    rep_doc.check("homomorphism-sampled", "genuine-splitting", worst <= tol,
                  residual=worst)
    _check_intertwining(rep_doc, rep, *covariance, tol)
    if rep.spec.n >= 3 and not rep.lifted:
        rep_doc.add("sigma-level-compat", "level-compat-diagnostic", "info",
                    measured=_sigma_level_diagnostic(rep, rng))
    return rep_doc.finish(args.out)


def _skip_model(rep_doc, dim, args):
    rep_doc.add("model", "caps", "skipped",
                note=f"model dimension {dim} exceeds cap {args.cap_dim}")
    return rep_doc.finish(args.out)


def _draw_point(rng, moduli):
    """A uniform point of the product of the Z/m, an int64 array drawn as
    one index in C order: the same draw as rng.choice over the rows of
    `points()`."""
    return np.array(np.unravel_index(rng.randrange(math.prod(moduli)),
                                     moduli), dtype=np.int64)


# the sampled ring checks build each stack of dense operators this many
# bytes at a time, a few stacks at once; with 2^20 the process running
# `ring --p 3 --r 1 --l 1 --n 1` peaked 3 MB higher than with 2^17
_DENSE_BYTES = 2 ** 17


def _spans(n, dim):
    """Slices of range(n), each of at most _DENSE_BYTES of dense operators
    of dimension dim (at least one operator)."""
    step = max(1, _DENSE_BYTES // (16 * dim * dim))
    return [slice(start, start + step) for start in range(0, n, step)]


def _covariance_draws(rng, rep, elements):
    """Each element of an iterator, drawn in turn, followed by a point w of
    W and a level t drawn from rng: three stacks (g, w, t)."""
    draws = [(g, _draw_point(rng, rep.spec.moduli), rng.randrange(rep.M))
             for g in elements]
    return [np.array(col) for col in zip(*draws)]


def _check_intertwining(rep_doc, rep, gs, ws, ts, tol):
    """S(g) rho(w, t) S(g)^* = rho(g w, t) for each drawn (g, w, t), from
    one `blocks` call and stacked Heisenberg operators, multiplied as
    block-monomial operators rather than dense ones."""
    ops = rep.blocks(gs)
    gw = (gs @ ws[..., None])[..., 0] % rep.heis.mods
    worst = 0.0
    for part in _spans(len(gs), rep.dim):
        # U H U^* = (U (U H)^*)^*: two block-monomial products, which cost
        # d^2 s where dense ones cost d^3 (d = 729 on the structural path
        # of `ring --p 3 --r 2 --l 2 --n 1`)
        UH = ops[part].apply(rep.heis_op(ws[part], ts[part]))
        lhs = ops[part].apply(UH.conj().transpose(0, 2, 1))
        worst = max(worst, float(np.abs(
            lhs.conj().transpose(0, 2, 1)
            - rep.heis_op(gw[part], ts[part])).max()))
    rep_doc.check("heisenberg-intertwining", "covariance", worst <= tol,
                  residual=worst)


def _sigma_level_diagnostic(rep, rng):
    """Report-only: residue-block characters at levels n and n-2.

    The two canonical residue choices are pulled back through different
    reduction morphisms; this reports (never asserts) any discrepancy of
    their characters on matched group elements.
    """
    spec = rep.spec
    lower = SympModule.standard(spec.p, spec.r, spec.l, spec.n - 2,
                                flavor=spec.flavor or "B")
    gens = transvection_generators(spec)
    # sigma(g) at both levels, one table of distinct blocks each
    table, which = rep._sigma_blocks(gens)
    low, low_which = rr.RingWeilRep(lower)._sigma_blocks(
        gens % np.array(lower.moduli)[:, None])
    worst = np.abs(np.trace(table, axis1=1, axis2=2)[which]
                   - np.trace(low, axis1=1, axis2=2)[low_which]).max()
    return {"max_sigma_char_discrepancy": _f(float(worst))}


# -- torus command ----------------------------------------------------------------


def cmd_torus(args) -> int:
    tspec = tor.TorusSpec(args.p, args.kind, args.uval, args.n)
    rep_doc = Report("torus", {"p": args.p, "kind": args.kind,
                               "uval": args.uval, "n": args.n}, args.seed)
    tol = args.tol
    dim = args.p ** (args.n + 1 - args.uval)
    if dim > args.cap_dim:
        return _skip_model(rep_doc, dim, args)
    ctx = tor.TorusContext(tspec)
    rep_doc.doc["config"]["torus_order"] = len(ctx.C)
    rep_doc.doc["config"]["model_dim"] = ctx.dim
    rep_doc.doc["config"]["visibility_depth"] = ctx.visibility_depth()
    report = tor.multiplicity_report(ctx, cap=args.cap_group)
    if report["twist_skipped"]:
        rep_doc.add("twist-diagnostic", "caps", "skipped",
                    note=report["twist_skipped"])
    table = report["table"]
    rep_doc.check("mult-one", "mult-one",
                  all(rec["mult"] in (0, 1) for rec in table),
                  measured={rec["char"].label: rec["mult"] for rec in table},
                  residual=max(rec["deviation"] for rec in table))
    rep_doc.check("mult-sum-dim", "mult-sum-dim",
                  report["sum_mult"] == ctx.dim,
                  measured={"sum": report["sum_mult"], "dim": ctx.dim})
    rep_doc.check("appearance-criteria", "appearance-criteria",
                  bool(report["matching_twists"]),
                  measured={"raw_match": report["raw_match"],
                            "matching_twists": report["matching_twists"]})
    worst, missing = 0.0, []
    for rec in table:
        if rec["mult"] == 1:
            try:
                vec = ctx.eigenvector(rec["char"])
                worst = max(worst, ctx.eigen_residual(rec["char"], vec))
            except ValueError:
                missing.append(rec["char"].label)
    rep_doc.check("eigenvector-residual", "eigenvector-residual",
                  worst <= tol and not missing,
                  measured={"no_weight_vector": missing} if missing else None,
                  residual=worst)
    rep_doc.add("conductor-table", "conductor-table", "info",
                measured={rec["char"].label: rec["conductor"]
                          for rec in table})
    if tspec.kind == "unramified" and tspec.u_val == 1:
        eta0 = ctx.character_of([ctx.eta0(t) for t in ctx.C])
        rep_doc.check("eta0-exclusion", "eta0-exclusion",
                      report["computed"][eta0.label] == 0,
                      measured={"eta0": eta0.label})
        h90 = all(ctx.eta0(t) == ctx.eta0_via_hilbert90(t) for t in ctx.C)
        rep_doc.check("eta0-hilbert90", "eta0-hilbert90", h90)
        if tspec.n == 1:
            _, results = tor.residue_operator_check(tspec, tol=tol)
            rep_doc.check("residue-operator-formulas",
                          "residue-operator-formulas",
                          all(rec["ok"] for rec in results),
                          residual=max(rec["deviation"] for rec in results))
    return rep_doc.finish(args.out)


# -- selfcheck ---------------------------------------------------------------------


def cmd_selfcheck(args) -> int:
    rep_doc = Report("selfcheck", {}, args.seed)
    ns = argparse.Namespace(**vars(args))
    commands = {"field": cmd_field, "ring": cmd_ring, "torus": cmd_torus}
    failures = 0
    failed_runs = []

    def run(command, **over):
        nonlocal failures
        sub = argparse.Namespace(**{**vars(ns), **over, "out": os.devnull})
        failed = commands[command](sub)
        failures += failed
        if failed:
            failed_runs.append({"command": command, "overrides": over})

    run("field", p=3, r=1)
    run("field", p=5, r=1)
    run("ring", p=3, r=1, l=0, n=1)
    run("ring", p=3, r=1, l=1, n=1)
    for kind, uval in (("unramified", 0), ("unramified", 1), ("ramified", 0)):
        run("torus", p=3, kind=kind, uval=uval, n=1)
    measured = {"sub_failures": failures}
    if failed_runs:
        measured["failed_runs"] = failed_runs
    rep_doc.check("battery", "selfcheck", failures == 0, measured=measured)
    return rep_doc.finish(args.out)


# -- argument parsing ----------------------------------------------------------------


def _parser():
    ap = argparse.ArgumentParser(
        prog="weilrep",
        description="Weil representations over Z/p^n: verification reports")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=3)
        sp.add_argument("--r", "--rank", dest="r", type=int, default=1)
        sp.add_argument("--l", type=int, default=0)
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--kind", choices=["unramified", "ramified"],
                        default="unramified")
        sp.add_argument("--uval", type=int, choices=[0, 1], default=0)
        sp.add_argument("--cap-group", dest="cap_group", type=int,
                        default=2_000_000)
        sp.add_argument("--cap-dim", dest="cap_dim", type=int, default=2000)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--twist", type=int, default=0,
                        help="tensor the ring representation by the given "
                             "power of the abelianization character")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=10_000)
        sp.add_argument("--out", type=str, default=None)

    for name, fn in (("field", cmd_field), ("ring", cmd_ring),
                     ("torus", cmd_torus), ("selfcheck", cmd_selfcheck)):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn)
    return ap


def _argument_error(args):
    """Why the arguments name no valid configuration, or None."""
    if args.p < 3 or not _is_prime(args.p):
        return "--p must be an odd prime"
    if args.command in ("field", "ring") and args.r < 1:
        return "--r must be at least 1"
    if args.command == "ring" and not 0 <= args.l <= args.r:
        return "--l must satisfy 0 <= l <= r"
    if args.command in ("ring", "torus") and args.n < 1:
        return "--n must be at least 1"
    if args.command == "torus" and args.kind == "ramified" and args.uval:
        return "--uval 1 needs --kind unramified"
    for flag, value in (("--samples", args.samples),
                        ("--cap-group", args.cap_group),
                        ("--cap-dim", args.cap_dim)):
        if value < 1:
            return f"{flag} must be at least 1"
    if not (math.isfinite(args.tol) and args.tol > 0):
        return "--tol must be a finite positive number"
    return None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    error = _argument_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1 if args.fn(args) else 0


if __name__ == "__main__":
    sys.exit(main())
