"""Run one benchmark operation in this (fresh) interpreter.

    python3 bench/child.py '<operation spec as JSON>' <trace 0|1>

The working directory is the operation's own temporary directory.  A `cli`
operation calls weilrep.cli.main, as the `weilrep` console script does, and
writes its report to report.json; its exit code is the command's.  A `lib`
operation calls library functions and writes the data the benchmark checks
to result.json.  With trace 1 the spans are written to spans.json.
"""

import json
import random
import sys
import time

START = time.monotonic()


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p):
    return next(d for d in range(2, p) if legendre(d, p) == -1)


def character_data(ctx, table, seed):
    """Checks on an unramified torus table, computed from character values.

    Uses the benchmark's own arithmetic in the extension: conductors from
    the congruence filtration T_j = {xi = 1, eta = 0 mod p^j}, the closed
    form eta0(t) = (2d(xi - 1) / p) with (0/p) = +1, orthonormality of the
    character table, and multiplicativity on seeded random pairs.
    """
    import numpy as np

    p, m = ctx.p, ctx.level
    d = smallest_nonresidue(p)
    mod = p ** m
    C = list(ctx.C)
    index = {(t.xi, t.eta): i for i, t in enumerate(C)}
    chars = [rec["char"] for rec in table]
    values = np.array([[chi(t) for t in C] for chi in chars])
    gram = values @ values.conj().T / len(C)
    ortho_dev = float(np.abs(gram - np.eye(len(chars))).max())
    rng = random.Random(seed)
    hom_dev = 0.0
    for _ in range(200):
        i, j = rng.randrange(len(C)), rng.randrange(len(C))
        s, t = C[i], C[j]
        k = index[((s.xi * t.xi + d * s.eta * t.eta) % mod,
                   (s.xi * t.eta + s.eta * t.xi) % mod)]
        hom_dev = max(hom_dev, float(np.abs(
            values[:, k] - values[:, i] * values[:, j]).max()))
    conductors = []
    for row in values:
        conductors.append(next(
            j for j in range(m + 1)
            if all(abs(row[i] - 1) < 1e-9 for i, t in enumerate(C)
                   if (t.xi - 1) % p ** j == 0 and t.eta % p ** j == 0)))
    eta0 = np.array([legendre(2 * d * (t.xi - 1), p) or 1 for t in C])
    eta0_labels = [chi.label for chi, row in zip(chars, values)
                   if np.abs(row - eta0).max() < 1e-9]
    return {"ortho_dev": ortho_dev, "hom_dev": hom_dev,
            "bench_conductors": conductors, "eta0_labels": eta0_labels}


def torus_table(p, kind, uval, n, eigen, seed):
    from weilrep.torus import TorusContext, TorusSpec
    ctx = TorusContext(TorusSpec(p, kind, uval, n))
    table = ctx.multiplicities()
    out = {"order": len(ctx.C), "dim": ctx.dim,
           "table": [[rec["char"].label, rec["conductor"], rec["mult"],
                      float(rec["deviation"])] for rec in table]}
    if eigen:
        residuals = [float(ctx.eigen_residual(rec["char"],
                                              ctx.eigenvector(rec["char"])))
                     for rec in table if rec["mult"] == 1]
        out["eigen_residuals"] = residuals
    out.update(character_data(ctx, table, seed))
    return out


def product_torus(factors, seed):
    from weilrep.torus import TorusSpec, product_torus_multiplicities
    ctxs, big, rep, table = product_torus_multiplicities(
        [TorusSpec(*f) for f in factors])
    return {"dim": rep.dim,
            "factor_dims": [c.dim for c in ctxs],
            "factor_orders": [len(c.C) for c in ctxs],
            "factor_tables": [{rec["char"].label: rec["mult"]
                               for rec in c.multiplicities()} for c in ctxs],
            "table": [[a, b, mult, float(dev)]
                      for (a, b), (mult, dev) in table.items()]}


LIB = {"torus_table": torus_table, "product_torus": product_torus}


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if sys.argv[2] == "1":
        import tracer as tracing
        tracer = tracing.install(START)
    try:
        if spec["kind"] == "cli":
            from weilrep.cli import main as weilrep_main
            return weilrep_main(spec["argv"] + ["--seed", str(spec["seed"]),
                                                "--out", "report.json"])
        result = LIB[spec["fn"]](**spec["params"], seed=spec["seed"])
        with open("result.json", "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        if tracer is not None:
            tracer.dump("spans.json")


if __name__ == "__main__":
    sys.exit(main())
