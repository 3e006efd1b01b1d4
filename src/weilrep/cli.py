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
from .linalg import chunks
from .rings import _is_prime, legendre
from .symplectic import (ClosureCapExceeded, StabilizerChain, SympModule,
                         conjugacy_classes, group_closure, orbits)

try:  # CPython's lean sha256, as `random` takes sha512: hashlib loads OpenSSL
    from _sha256 import sha256
except ImportError:  # renamed in Python 3.12
    from hashlib import sha256
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
        """Write the report; return the anchors of its failed checks."""
        text = json.dumps(self.doc, indent=2, sort_keys=True)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return [c["anchor"] for c in self.doc["checks"] if c["status"] == "fail"]


# -- field command -------------------------------------------------------------


def cmd_field(args) -> list:
    p, l = args.p, args.r
    rng = random.Random(args.seed)
    rep_doc = Report("field", {"p": p, "rank": l, "tol": args.tol},
                     args.seed)
    tol = args.tol
    if l not in (1, 2) or p > 7 or (l == 2 and p > 3):
        rep_doc.add("configuration", "caps", "skipped",
                    note="field runs rank 1 at p <= 7 and rank 2 at p = 3 "
                         "only")
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

    # the one-coset ring model over F_p: its blocks are sigma's operators
    rep = rr.RingWeilRep(SympModule.standard(p, l, 0, 0))
    spec, gens = rep.spec, rep.gens
    # G = R N: the first l levels of the chain give one element of each
    # left coset of the Siegel unipotent radical N, the last l give N, and
    # a drawn index names one element through its transversals
    chain = StabilizerChain(spec, gens)
    order = chain.order()
    # S(sg) = S(s) S(g) at s = 1, each generator s and all g makes S a group
    # homomorphism; the rng draws each chunk of drawn pairs as it is checked
    width, drawn = (2 * l) ** 2, sha256()  # g, h and gh: (2l)^2 entries each
    count = (len(gens) + 1) * order
    exhaustive = count <= args.samples
    pairs = (_generator_pairs(chain, gens, width) if exhaustive else
             _pair_chunks(rng, chain, args.samples, width, drawn))
    _check_splitting(rep_doc, rep, pairs, tol, None if exhaustive else drawn,
                     group_order=order, pairs=min(count, args.samples))

    g, w, t = (np.array(col) for col in zip(*[
        (rng.randrange(order), rng.randrange(spec.size()), rng.randrange(p))
        for _ in range(1000)]))
    _check_intertwining(rep_doc, rep, chain.element(g),
                        _points(w, spec.moduli), t,
                        _digest(sha256(), g, w, t), tol)

    R, N = chain.elements(0, l), chain.elements(l, 2 * l)
    rpt = osc.parabolic_identity_report(
        rep.sigma, osc.siegel_parabolic(R, N, p), tol=tol)
    rep_doc.check("parabolic-scalar", "parabolic-scalar",
                  not rpt["parabolic_failures"],
                  measured={"failures": len(rpt["parabolic_failures"])},
                  residual=rpt["parabolic_deviation"])
    rep_doc.check("siegel-flip-scalar", "siegel-flip-scalar",
                  rpt["J_deviation"] <= tol, residual=rpt["J_deviation"])

    cn = rep.sigma.character_norm(R, N)
    orb = int(orbits(spec, gens, spec.exps).max()) + 1
    rep_doc.check("orbit-count-identity", "orbit-count-identity",
                  abs(cn - orb) <= 1e-6,
                  measured={"character_norm": cn, "orbit_count": orb},
                  residual=abs(cn - orb))
    _check_summands(rep_doc, rep)
    return rep_doc.finish(args.out)


# -- ring command ---------------------------------------------------------------


def cmd_ring(args) -> list:
    p, r, l, n = args.p, args.r, args.l, args.n
    rng = random.Random(args.seed)
    level, lifted = rr.faithful_model(r, l, n)
    rep_doc = Report("ring", {"p": p, "r": r, "l": l, "n": n,
                              "cap_group": args.cap_group, "lifted": lifted,
                              "cap_dim": args.cap_dim, "twist": args.twist},
                     args.seed)
    tol = args.tol
    # |W|^(1/2) = p^(l level + (r - l)(level + 1)) is the model dimension
    if _over_cap(rep_doc, p, r * (level + 1) - l, args.cap_dim):
        return rep_doc.finish(args.out)
    rep = rr.RingWeilRep(SympModule.standard(p, r, l, level))
    rep_doc.doc["config"]["model_moduli"] = list(rep.spec.moduli)

    shells = rr.shell_dimensions(p, r, l, n)
    rep_doc.check("shell-dimensions", "shell-dimensions", shells["all_match"],
                  measured={sh["shell"]: [sh["dim_plus"], sh["dim_minus"]]
                            for sh in shells["shells"]})

    try:
        G = group_closure(rep.spec, rep.gens, cap=args.cap_group)
        rep_doc.doc["config"]["group_order"] = len(G)
    except ClosureCapExceeded as exc:
        rep_doc.add("group-closure", "caps", "skipped", note=str(exc))
        G = None
        if args.twist:
            rep_doc.add("twist", "caps", "skipped",
                        note=f"--twist needs the group closure, which "
                             f"exceeds cap {args.cap_group}")
    # every draw comes before any check: the (g, h) pairs interleaved, then
    # each covariance element followed by its point and level
    pairs = _elements(rng, rep, G, 2 * max(50, args.samples // 100))
    covariance = _covariance_draws(
        rng, rep, (_elements(rng, rep, G, 1)[0] for _ in range(50)))
    if G is not None and args.twist:
        chi, k = rr.abelianization_character(G)
        rep_doc.doc["config"]["twist_order"] = k
        rep.twist = lambda g: chi(g, args.twist)
    summands = _check_summands(rep_doc, rep)
    if G is not None:  # the two checks that sum over every element
        # the summand characters (twisted or not) are class functions: one
        # term per conjugacy class of G, weighted by its size
        reps, sizes = conjugacy_classes(G)
        chars = rr.summand_characters(rep, G.mats[reps], summands)
        gram = (chars * sizes) @ chars.conj().T / len(G)
        irr_dev = float(np.abs(gram - np.eye(len(summands))).max())
        rep_doc.check("summand-irreducibility", "summand-irreducibility",
                      irr_dev <= 1e-6, residual=irr_dev)
        # the summands decompose the model: their characters sum to tr S(g)
        cn, dev = rr.character_norm(chars.sum(axis=0), sizes)
        orb = int(orbits(rep.spec, G.gens, rep.spec.exps).max()) + 1
        rep_doc.check("orbit-count-identity", "orbit-count-identity",
                      cn == orb and dev <= 1e-6,
                      measured={"character_norm": cn, "orbit_count": orb},
                      residual=dev)
    _check_splitting(rep_doc, rep, [(pairs[0::2], pairs[1::2])], tol,
                     sha256(np.asarray(pairs, dtype="<i8").tobytes()))
    _check_intertwining(rep_doc, rep, *covariance,
                        _digest(sha256(), *covariance), tol)
    return rep_doc.finish(args.out)


def _over_cap(rep_doc, p, e, cap):
    """Whether the model dimension p^e exceeds cap, adding the skip if so;
    p^e > 2^e > cap at e >= cap.bit_length(), with no large power formed."""
    if over := e >= cap.bit_length() or p ** e > cap:
        rep_doc.add("model", "caps", "skipped",
                    note=f"model dimension {p}^{e} exceeds cap {cap}")
    return over


def _points(idx, moduli):
    """The points of the product of the Z/m at the C-order indices idx, an
    int64 (len(idx), len(moduli)) array: a point drawn as rng.randrange of
    the product is the same draw as rng.choice over the rows of
    `points()`."""
    return np.stack(np.unravel_index(idx, moduli), axis=1).astype(np.int64)


def _pair_chunks(rng, chain, samples, width, sha):
    """`samples` pairs of the chain's group as stacks (g, h), one per chunk
    at width entries a pair, drawn when asked for (g first) and fed to sha."""
    order = chain.order()
    for part in chunks(samples, width):
        idx = [rng.randrange(order) for _ in range(samples)[part]
               for _ in "gh"]
        _digest(sha, idx)
        yield chain.element(idx[0::2]), chain.element(idx[1::2])


def _generator_pairs(chain, gens, width):
    """Every pair (s, g), s = 1 or in gens, s major, as `_pair_chunks`."""
    order, S = chain.order(), np.concatenate([chain.eye[None], gens])
    n = len(S) * order
    for part in chunks(n, width):
        s, g = np.divmod(np.arange(*part.indices(n)), order)
        yield S[s], chain.element(g)


def _elements(rng, rep, G, count):
    """A stack of count elements drawn from rng in turn: uniform in the
    closure G or, when G is None, words of 2 dim generator letters."""
    if G is not None:
        return G.mats[[rng.randrange(len(G)) for _ in range(count)]]
    letters = np.array([rng.choices(range(len(rep.gens)), k=2 * rep.spec.dim)
                        for _ in range(count)])
    words = rep.gens[letters[:, 0]]
    for k in letters.T[1:]:
        words = words @ rep.gens[k] % rep.heis.mods[:, None]
    return words


def _digest(sha, *arrays):
    """12 hex digits of sha fed the arrays' little-endian int64 bytes."""
    sha.update(b"".join(np.asarray(a, dtype="<i8").tobytes() for a in arrays))
    return sha.hexdigest()[:12]


def _covariance_draws(rng, rep, elements):
    """Each element of an iterator, drawn in turn, followed by a point w of
    W and a level t drawn from rng: three stacks (g, w, t)."""
    draws = [(g, rng.randrange(rep.spec.size()), rng.randrange(rep.M))
             for g in elements]
    gs, ws, ts = (np.array(col) for col in zip(*draws))
    return [gs, _points(ws, rep.spec.moduli), ts]


def _check_summands(rep_doc, rep):
    """Add the `summand-count` record of `decompose`; return the summands."""
    summands = rr.decompose(rep, rep.gens)
    dims = sorted(s.dim for s in summands)
    rep_doc.check("summand-count", "summand-count", True,
                  measured={"count": len(summands), "dims": dims,
                            "sum": sum(dims), "model_dim": rep.dim})
    return summands


def _check_splitting(rep_doc, rep, stacks, tol, sha, **measured):
    """S(g) S(g)^* = 1 and S(g) S(h) = S(gh) for each pair of the
    iterable of stacks (g, h), from `blocks` of g, h and gh stacked in their
    `chunks`.  sha is the sha256 of the draws, fed them as the pairs are
    drawn and read once all are checked; None marks an exhaustive check."""
    one = rep.heis_op(np.zeros(rep.spec.dim, dtype=np.int64))  # rho(0, 0) = 1
    unitary = splitting = 0.0
    for gs, hs in stacks:
        ghs = gs @ hs % rep.heis.mods[:, None]
        for part in chunks(len(gs), 3 * rr._width(rep)):
            k = len(gs[part])
            ops = rep.blocks(np.concatenate([gs[part], hs[part], ghs[part]]))
            unitary = max(unitary, (ops @ ops.adjoint()).deviation(one))
            splitting = max(splitting,
                            (ops[:k] @ ops[k:2 * k]).deviation(ops[2 * k:]))
    kind = "exhaustive" if sha is None else "sampled"
    if sha is not None:
        measured["draws"] = _digest(sha)
    rep_doc.check(f"unitarity-{kind}", "unitarity", unitary <= tol,
                  measured=measured, residual=unitary)
    rep_doc.check(f"homomorphism-{kind}", "genuine-splitting",
                  splitting <= tol, measured=measured, residual=splitting)


def _check_intertwining(rep_doc, rep, gs, ws, ts, drawn, tol):
    """S(g) rho(w, t) S(g)^* = rho(g w, t) for each drawn (g, w, t), from
    `blocks` and stacked Heisenberg operators of each of their `chunks`,
    composed and compared as block-monomial operators; drawn is the
    `_digest` of the draws."""
    worst = 0.0
    for part in chunks(len(gs), 3 * rr._width(rep)):  # S(g) and two rho
        g, w, t = gs[part], ws[part], ts[part]
        U, gw = rep.blocks(g), (g @ w[..., None])[..., 0] % rep.heis.mods
        worst = max(worst, (U @ rep.heis_op(w, t) @ U.adjoint()).deviation(
            rep.heis_op(gw, t)))
    rep_doc.check("heisenberg-intertwining", "covariance", worst <= tol,
                  measured={"draws": drawn}, residual=worst)


# -- torus command ----------------------------------------------------------------


def cmd_torus(args) -> list:
    tspec = tor.TorusSpec(args.p, args.kind, args.uval, args.n)
    rep_doc = Report("torus", {"p": args.p, "kind": args.kind,
                               "uval": args.uval, "n": args.n}, args.seed)
    tol = args.tol
    if _over_cap(rep_doc, args.p, args.n + 1 - args.uval, args.cap_dim):
        return rep_doc.finish(args.out)
    ctx = tor.TorusContext(tspec)
    rep_doc.doc["config"]["torus_order"] = len(ctx.C)
    rep_doc.doc["config"]["model_dim"] = ctx.dim
    rep_doc.doc["config"]["visibility_depth"] = ctx.visibility_depth()
    report = tor.multiplicity_report(ctx)
    table = report["table"]
    rep_doc.check("mult-one", "mult-one",
                  all(rec["mult"] in (0, 1) for rec in table),
                  measured={rec["char"].label: rec["mult"] for rec in table},
                  residual=max(rec["deviation"] for rec in table))
    rep_doc.check("mult-sum-dim", "mult-sum-dim",
                  report["sum_mult"] == ctx.dim,
                  measured={"sum": report["sum_mult"], "dim": ctx.dim})
    mismatched = [label for label, mult in report["computed"].items()
                  if mult != report["predicted"][label]]
    rep_doc.check("appearance-criteria", "appearance-criteria",
                  report["raw_match"],
                  measured={"mismatched": mismatched} if mismatched else None)
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
        eta0 = ctx.eta0_char
        rep_doc.check("eta0-exclusion", "eta0-exclusion",
                      report["computed"][eta0.label] == 0,
                      measured={"eta0": eta0.label})
        h90 = all(ctx.eta0(t) == ctx.eta0_via_hilbert90(t) for t in ctx.C)
        rep_doc.check("eta0-hilbert90", "eta0-hilbert90", h90)
        if tspec.n == 1:
            results = tor.residue_operator_check(ctx, tol=tol)
            rep_doc.check("residue-operator-formulas",
                          "residue-operator-formulas",
                          all(rec["ok"] for rec in results),
                          residual=max(rec["deviation"] for rec in results))
    return rep_doc.finish(args.out)


# -- selfcheck ---------------------------------------------------------------------


def cmd_selfcheck(args) -> list:
    rep_doc = Report("selfcheck", {}, args.seed)
    failed_runs = []

    def run(command, **over):
        """Run the command line `command --k v ...` of the overrides, with
        the battery's seed and tol, through the same parser."""
        argv = [command, *(f"--{k}={v}" for k, v in over.items()),
                f"--seed={args.seed}", f"--tol={args.tol}",
                f"--out={os.devnull}"]
        sub = _parser().parse_args(argv)
        failed = sub.fn(sub)
        if failed:
            failed_runs.append({"command": command, "overrides": over,
                                "anchors": failed})

    run("field", p=3, r=1)
    run("field", p=5, r=1)
    run("ring", p=3, r=1, l=0, n=1)
    run("ring", p=3, r=1, l=1, n=1)
    for kind, uval in (("unramified", 0), ("unramified", 1), ("ramified", 0)):
        run("torus", p=3, kind=kind, uval=uval, n=1)
    measured = {"sub_failures": sum(len(f["anchors"]) for f in failed_runs)}
    if failed_runs:
        measured["failed_runs"] = failed_runs
    rep_doc.check("battery", "selfcheck", not failed_runs, measured=measured)
    return rep_doc.finish(args.out)


# -- argument parsing ----------------------------------------------------------------


def _parser():
    ap = argparse.ArgumentParser(
        prog="weilrep",
        description="Weil representations over Z/p^n: verification reports")
    sub = ap.add_subparsers(dest="command", required=True)
    field, ring, torus, selfcheck = (
        sub.add_parser(name) for name in COMMANDS)
    # each flag on the subcommands that read it, and on no other
    for sp in (field, ring, torus):
        sp.add_argument("--p", type=int, default=3)
    for sp, pairs in ((field, "every (s, g), s = 1 or a generator, if at "
                              "most SAMPLES, else on SAMPLES drawn"),
                      (ring, "max(50, SAMPLES // 100) drawn")):
        sp.add_argument("--r", "--rank", dest="r", type=int, default=1)
        sp.add_argument("--samples", type=int, default=10_000,
                        help=f"check S(g)S(h) = S(gh) on {pairs} pairs")
    ring.add_argument("--l", type=int, default=0)
    ring.add_argument("--twist", type=int, default=0,
                      help="tensor the ring representation by the given "
                           "power of the abelianization character")
    ring.add_argument("--cap-group", dest="cap_group", type=int,
                      default=2_000_000)
    torus.add_argument("--kind", choices=["unramified", "ramified"],
                       default="unramified")
    torus.add_argument("--uval", type=int, choices=[0, 1], default=0)
    for sp in (ring, torus):
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--cap-dim", dest="cap_dim", type=int, default=2000)
    for sp, fn in ((field, cmd_field), (ring, cmd_ring), (torus, cmd_torus),
                   (selfcheck, cmd_selfcheck)):
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.set_defaults(fn=fn)
    return ap


def _argument_error(args):
    """Why the arguments name no valid configuration, or None; each test
    runs when the command has the flag."""
    flags = vars(args)
    if "p" in flags and (args.p < 3 or not _is_prime(args.p)):
        return "--p must be an odd prime"
    if "r" in flags and args.r < 1:
        return "--r must be at least 1"
    if "l" in flags and not 0 <= args.l <= args.r:
        return "--l must satisfy 0 <= l <= r"
    if "n" in flags and args.n < 1:
        return "--n must be at least 1"
    if flags.get("kind") == "ramified" and args.uval:
        return "--uval 1 needs --kind unramified"
    for flag in ("samples", "cap_group", "cap_dim"):
        if flags.get(flag, 1) < 1:
            return f"--{flag.replace('_', '-')} must be at least 1"
    if not (math.isfinite(args.tol) and args.tol > 0):
        return "--tol must be a finite positive number"
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out or "."))):
        return f"--out directory {os.path.dirname(args.out)} does not exist"
    if args.out and os.path.isdir(args.out):
        return f"--out {args.out} is a directory"
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
