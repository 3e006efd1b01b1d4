"""The three workloads and the independent checks of their outputs.

Every check compares a program output with a closed form, an exhaustive
count made here, or a property the method guarantees; none compares with a
stored copy of an earlier output.  A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import math

DEFAULT_TOL = 1e-8
# Anchors whose program-side threshold is looser than --tol (integer-valued
# quantities rounded from floating-point sums).
LOOSE_TOL = {"summand-irreducibility": 1e-6, "orbit-count-identity": 1e-6,
             "mult-one": 1e-6}


def cli(*argv, check):
    return {"name": " ".join(argv), "kind": "cli", "argv": list(argv),
            "check": check}


def lib(name, fn, check, **params):
    return {"name": name, "kind": "lib", "fn": fn, "params": params,
            "check": check}


# -- closed forms ----------------------------------------------------------------


def sp_field_order(p, l):
    """|Sp(2l, F_p)| = p^{l^2} prod_{i<=l} (p^{2i} - 1)."""
    return p ** (l * l) * math.prod(p ** (2 * i) - 1 for i in range(1, l + 1))


def sp_ring_order(p, r, k):
    """|Sp(2r, Z/p^k)| = p^{(k-1) r(2r+1)} |Sp(2r, F_p)|; r = 1 gives
    |SL2(Z/p^k)| = p^{3k-2}(p^2 - 1)."""
    return p ** ((k - 1) * r * (2 * r + 1)) * sp_field_order(p, r)


def torus_level(kind, uval, n):
    """Truncation level of the torus quotient for a torus of level n."""
    if kind == "ramified":
        return 2 * (n + 1)
    return n + 1 if uval == 0 else n


def norm_one_count(p, kind, level):
    """|C|: (p+1) p^{m-1} unramified; ramified by brute force over
    xi^2 - p eta^2 = 1 with xi mod p^ceil(s/2), eta mod p^floor(s/2)."""
    if kind == "unramified":
        return (p + 1) * p ** (level - 1)
    mod_xi, mod_eta = p ** ((level + 1) // 2), p ** (level // 2)
    return sum(1 for xi in range(mod_xi) for eta in range(mod_eta)
               if (xi * xi - p * eta * eta) % mod_xi == 1)


def torus_dim(p, uval, n):
    """Model dimension |W|^{1/2}: W = (Z/p^{n+1})^2, or (Z/p^n)^2 for u=1."""
    return p ** (n if uval == 1 else n + 1)


# -- checks of CLI reports ----------------------------------------------------------


def _records(doc):
    return {rec["anchor"]: rec for rec in doc["checks"]}


def report_problems(doc):
    """Failures, and residuals above their tolerance, in any report."""
    out = []
    if doc.get("failures") != 0:
        out.append(f"report counts {doc.get('failures')} failures")
    tol = doc["config"].get("tol", DEFAULT_TOL)
    for rec in doc["checks"]:
        if rec["status"] == "fail":
            out.append(f"check {rec['anchor']} failed")
        res = rec.get("residual")
        limit = LOOSE_TOL.get(rec["anchor"], tol)
        if res is not None and not res <= limit:
            out.append(f"{rec['anchor']} residual {res} > {limit}")
    return out


def check_field(doc, argv):
    out = report_problems(doc)
    cfg, recs = doc["config"], _records(doc)
    p, l = cfg["p"], cfg["rank"]
    order = sp_field_order(p, l)
    split = recs.get("genuine-splitting")
    if split is None or split["measured"]["group_order"] != order:
        out.append(f"group order is not |Sp({2 * l}, F_{p})| = {order}")
    for anchor in ("covariance", "parabolic-scalar", "siegel-flip-scalar",
                   "hasse-davenport"):
        if anchor not in recs:
            out.append(f"missing check {anchor}")
    orbit = recs.get("orbit-count-identity")
    if orbit is None and order <= 150:
        out.append("exhaustive group without orbit-count identity")
    if orbit is not None:
        cn = orbit["measured"]["character_norm"]
        # F_p^{2l} has two Sp-orbits: zero and the nonzero vectors.
        if abs(cn - 2) > 1e-6 or orbit["measured"]["orbit_count"] != 2:
            out.append(f"character norm {cn} != 2 orbits")
    return out


def check_ring(doc, argv):
    out = report_problems(doc)
    cfg, recs = doc["config"], _records(doc)
    p, r = cfg["p"], cfg["r"]
    moduli = cfg["model_moduli"]
    if "--cap-group" in argv:
        # This operation exists to exercise the structural path.
        if recs.get("caps", {}).get("status") != "skipped":
            out.append("group closure was not refused at the cap")
        for anchor in ("unitarity", "covariance"):
            if anchor not in recs:
                out.append(f"missing structural check {anchor}")
        return out
    if len(set(moduli)) != 1:
        return out + [f"unexpected mixed model moduli {moduli}"]
    k = next(k for k in range(1, 64) if p ** k == moduli[0])
    order = sp_ring_order(p, r, k)
    if cfg.get("group_order") != order:
        out.append(f"group order {cfg.get('group_order')} != "
                   f"|Sp({2 * r}, Z/{p}^{k})| = {order}")
    count = recs.get("summand-count")
    dim = math.isqrt(math.prod(moduli))
    if count is None:
        out.append("missing summand-count")
    else:
        m = count["measured"]
        if m["model_dim"] != dim or sum(m["dims"]) != dim:
            out.append(f"summand dims {m['dims']} do not sum to |W|^1/2 = "
                       f"{dim} (model_dim {m['model_dim']})")
    orbit = recs.get("orbit-count-identity")
    # (Z/p^k)^{2r} has one Sp-orbit per valuation 0..k.
    if orbit is None or orbit["measured"]["character_norm"] != k + 1 \
            or orbit["measured"]["orbit_count"] != k + 1:
        out.append(f"character norm is not the {k + 1} orbits")
    if "summand-irreducibility" not in recs or "genuine-splitting" not in recs:
        out.append("missing irreducibility or splitting check")
    return out


def check_torus(doc, argv):
    out = report_problems(doc)
    cfg, recs = doc["config"], _records(doc)
    p, kind, uval, n = cfg["p"], cfg["kind"], cfg["uval"], cfg["n"]
    order = norm_one_count(p, kind, torus_level(kind, uval, n))
    dim = torus_dim(p, uval, n)
    if cfg["torus_order"] != order:
        out.append(f"torus order {cfg['torus_order']} != |C| = {order}")
    if cfg["model_dim"] != dim:
        out.append(f"model dim {cfg['model_dim']} != {dim}")
    mults = recs["mult-one"]["measured"]
    if len(mults) != order:
        out.append(f"{len(mults)} characters for |C| = {order}")
    if set(mults.values()) - {0, 1}:
        out.append("multiplicity outside {0, 1}")
    if sum(mults.values()) != dim:
        out.append(f"multiplicities sum to {sum(mults.values())} != {dim}")
    for anchor in ("eigenvector-residual", "appearance-criteria"):
        if anchor not in recs:
            out.append(f"missing check {anchor}")
    if kind == "unramified" and uval == 1:
        excl = recs.get("eta0-exclusion")
        if excl is None or mults.get(excl["measured"]["eta0"]) != 0:
            out.append("eta0 appears")
    return out


# -- checks of library results ------------------------------------------------------


def check_torus_table(res, params):
    p, kind, uval, n = (params[k] for k in ("p", "kind", "uval", "n"))
    out = []
    order = norm_one_count(p, kind, torus_level(kind, uval, n))
    dim = torus_dim(p, uval, n)
    table = res["table"]
    if res["order"] != order or len(table) != order:
        out.append(f"{len(table)} characters, |C| {res['order']} != {order}")
    if res["dim"] != dim:
        out.append(f"model dim {res['dim']} != {dim}")
    mults = [mult for _, _, mult, _ in table]
    if set(mults) - {0, 1} or sum(mults) != dim:
        out.append(f"multiplicities {sorted(set(mults))} sum {sum(mults)}")
    if max(dev for *_, dev in table) > LOOSE_TOL["mult-one"]:
        out.append("multiplicity not within 1e-6 of an integer")
    if res["ortho_dev"] > 1e-9 or res["hom_dev"] > 1e-9:
        out.append("characters are not an orthonormal set of homomorphisms")
    conductors = [cond for _, cond, _, _ in table]
    if conductors != res["bench_conductors"]:
        out.append("conductors differ from the congruence filtration")
    eta0 = res["eta0_labels"]
    for label, cond, mult, _ in table:
        if uval == 0:
            expected = int(cond % 2 == 0)
        elif label in eta0:
            expected = 0
        else:
            expected = int(cond == 0 or cond % 2 == 1)
        if mult != expected:
            out.append(f"{label} (conductor {cond}) has multiplicity {mult}, "
                       f"the parity rule gives {expected}")
    if uval == 1 and (len(eta0) != 1
                      or next(c for lb, c, _, _ in table if lb == eta0[0]) != 1):
        out.append(f"eta0 is not one conductor-1 character: {eta0}")
    if params["eigen"]:
        residuals = res["eigen_residuals"]
        if len(residuals) != dim or max(residuals) > DEFAULT_TOL:
            out.append(f"{len(residuals)} eigenvectors, worst residual "
                       f"{max(residuals, default=None)}")
    return out


def check_product_torus(res, params):
    out = []
    ta, tb = res["factor_tables"]
    da, db = res["factor_dims"]
    orders = [norm_one_count(p, kind, torus_level(kind, u, n))
              for p, kind, u, n in params["factors"]]
    if res["factor_orders"] != orders:
        out.append(f"factor orders {res['factor_orders']} != {orders}")
    if sum(ta.values()) != da or sum(tb.values()) != db:
        out.append("factor multiplicities do not sum to the factor dims")
    if res["dim"] != da * db or len(res["table"]) != orders[0] * orders[1]:
        out.append("product model is not the tensor product of the factors")
    for a, b, mult, dev in res["table"]:
        if mult != ta[a] * tb[b] or dev > LOOSE_TOL["mult-one"]:
            out.append(f"({a}, {b}) has multiplicity {mult}, "
                       f"factors give {ta[a] * tb[b]}")
    return out


# -- workloads ------------------------------------------------------------------------

WORKLOADS = {
    "field": [
        cli("field", "--p", "3", "--rank", "1", "--samples", "1000",
            check=check_field),
        cli("field", "--p", "5", "--rank", "1", "--samples", "1000",
            check=check_field),
        cli("field", "--p", "7", "--rank", "1", "--samples", "1000",
            check=check_field),
        cli("field", "--p", "3", "--rank", "2", "--samples", "1000",
            check=check_field),
    ],
    "ring": [
        cli("ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1",
            check=check_ring),
        cli("ring", "--p", "3", "--r", "1", "--l", "0", "--n", "1",
            "--twist", "1", check=check_ring),
        cli("ring", "--p", "3", "--r", "1", "--l", "1", "--n", "1",
            check=check_ring),
        cli("ring", "--p", "5", "--r", "1", "--l", "0", "--n", "1",
            check=check_ring),
        cli("ring", "--p", "3", "--r", "2", "--l", "1", "--n", "1",
            "--cap-group", "2000", check=check_ring),
    ],
    "torus": [
        *[cli("torus", "--p", str(p), "--kind", kind, "--uval", str(u),
              "--n", "1", check=check_torus)
          for p in (3, 5)
          for kind, u in (("unramified", 0), ("unramified", 1),
                          ("ramified", 0))],
        lib("torus_table p=3 unramified u=0 n=3", "torus_table",
            check_torus_table, p=3, kind="unramified", uval=0, n=3,
            eigen=False),
        lib("torus_table p=3 unramified u=1 n=3 +eigenvectors", "torus_table",
            check_torus_table, p=3, kind="unramified", uval=1, n=3,
            eigen=True),
        lib("product_torus 2 x (3, unramified, 0, 1)", "product_torus",
            check_product_torus, factors=[[3, "unramified", 0, 1]] * 2),
    ],
}
