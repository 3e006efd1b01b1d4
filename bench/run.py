"""Cold-process benchmark of the weilrep verification batteries.

    python3 bench/run.py --workload {field,ring,torus,all} --seed N \
        --seconds S --trace {0,1} [--out results.json]
    python3 bench/run.py --compare BASE.json NEW.json

Run from the root of a source checkout.  Every operation runs in a fresh
interpreter with PYTHONPATH=src, in its own temporary directory under
.bench_work/, one at a time, so each pays the cold cost a CLI user pays.
A run repeats whole rounds of its workload while another round fits in
--seconds (at least one) and reports medians over rounds.  With --trace 1 a
run makes one round in which every operation runs untraced and then traced,
and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 12     # at least this many per run, for the median
OP_TIMEOUT_S = 150
RUN_LIMIT_S = 170     # a workload's run must end within 180 s
BLAS_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")}

END_TO_END = {"wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)


def run_process(argv, cwd, timeout):
    """Run argv to completion; return (exit code, start, end, peak RSS MB)."""
    done = threading.Event()
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)

        def kill():
            if not done.is_set():
                proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024


WORK = ROOT / ".bench_work"


def workdir():
    """A fresh temporary directory under .bench_work/, removed on exit."""
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def setup_probe():
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    argv = [sys.executable, "-c", "import weilrep.cli, jsonschema"]
    with workdir() as wd:
        rc, t0, t1, _ = run_process(argv, Path(wd), OP_TIMEOUT_S)
    if rc != 0:
        raise SystemExit("setup probe failed: cannot import weilrep")
    return t1 - t0


def run_op(op, seed, trace, deadline):
    """One operation in a fresh process; returns its record."""
    spec = {k: op[k] for k in ("kind", "argv", "fn", "params") if k in op}
    spec["seed"] = seed
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec),
            str(int(trace))]
    timeout = max(1.0, min(OP_TIMEOUT_S, deadline - time.monotonic()))
    rec = {"op": op["name"], "traced": trace}
    with workdir() as wd:
        wd = Path(wd)
        rc, t0, t1, rss = run_process(argv, wd, timeout)
        rec.update(rc=rc, wall_s=t1 - t0, peak_rss_mb=rss)
        out = wd / ("report.json" if op["kind"] == "cli" else "result.json")
        if rc != 0 or not out.exists():
            rec["failed"] = True
            rec["stderr"] = (wd / "stderr.txt").read_text(
                errors="replace")[-2000:]
            return rec
        rec["failed"] = False
        try:
            rec["problems"] = op["check"](
                json.loads(out.read_text()),
                op["argv"] if op["kind"] == "cli" else op["params"])
            if trace:
                summary = tracer.summarize(json.loads(
                    (wd / "spans.json").read_text()))
        except (OSError, LookupError, TypeError, ValueError,
                StopIteration) as exc:
            rec["problems"] = [f"output lacks what the checks read: {exc!r}"]
            return rec
        if trace:
            rec["spans"] = summary
            # Self times partition the root span; the root span lies inside
            # the process's wall time.
            if abs(summary["self_total_s"] - summary["root_s"]) > 1e-6 \
                    or summary["min_self_s"] < -1e-9 \
                    or not t0 <= summary["root_start"] <= summary["root_end"] <= t1:
                rec["problems"].append("span self times do not partition "
                                       "the traced wall time")
    return rec


def run_round(ops, seed, trace, deadline, probes):
    """Every operation once; untraced rounds time a setup probe before each
    operation, so that the probes spread over the whole run."""
    recs = []
    for op in ops:
        if trace:
            recs.append(run_op(op, seed, False, deadline))
        else:
            probes.append(setup_probe())
        recs.append(run_op(op, seed, trace, deadline))
    return recs


def end_to_end(rounds, probes):
    per_round = []
    for recs in rounds:
        walls = [r["wall_s"] for r in recs]
        per_round.append({"wall_s": sum(walls), "slowest_op_s": max(walls),
                          "peak_rss_mb": max(r["peak_rss_mb"] for r in recs)})
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in ("wall_s", "slowest_op_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(probes)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(recs):
    traced = [r for r in recs if "spans" in r]
    untraced = [r for r in recs if not r["traced"]]
    calls, incl, own = {}, {}, {}
    counts = dict.fromkeys(tracer.COUNTS, 0)
    spans = 0
    for r in traced:
        s = r["spans"]
        for name in tracer.NAMES:
            c, i, o = s["per_name"][name]
            calls[name] = calls.get(name, 0) + c
            incl[name] = incl.get(name, 0.0) + i
            own[name] = own.get(name, 0.0) + o
        for name, value in s["counts"].items():
            counts[name] += value
        spans += s["spans"]
    out = {}
    for name in tracer.NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for name in tracer.COUNTS:
        out[name] = (counts[name], "bytes" if name.endswith("bytes")
                     else "count")

    def per_call_us(name):
        return incl.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0
    closure = "symplectic.group_closure"
    out[f"{closure}.elements_per_s"] = (
        counts[f"{closure}.elements"] / incl[closure]
        if incl.get(closure) else 0.0, "1/s")
    for name in ("oscillator.OscillatorRep.M_X", "ring_rep.RingWeilRep.op"):
        out[f"{name}.us_per_call"] = (per_call_us(name), "us")
    out["trace.spans"] = (spans, "count")
    out["trace.overhead_s"] = (sum(r["wall_s"] for r in traced)
                               - sum(r["wall_s"] for r in untraced), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def run_workload(name, seed, seconds, trace):
    ops = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = []
    if not trace:
        setup_probe()                        # compiles the bytecode once
        probes += [setup_probe()
                   for _ in range(max(0, SETUP_PROBES - len(ops)))]
    start = time.monotonic()
    rounds = []
    while True:
        t = time.monotonic()
        rounds.append(run_round(ops, seed, trace, deadline, probes))
        took = time.monotonic() - t
        if trace or time.monotonic() - start + took > seconds:
            break
    recs = [r for rnd in rounds for r in rnd]
    metrics = per_layer(recs) if trace else end_to_end(rounds, probes)
    result = {"correct": not any(r.get("problems") for r in recs),
              "attempted": len(recs),
              "failed": sum(r["failed"] for r in recs),
              "metrics": metrics}
    for r in recs:
        for problem in r.get("problems") or ():
            print(f"INCORRECT {name}: {r['op']}: {problem}", file=sys.stderr)
        if r["failed"]:
            print(f"FAILED {name}: {r['op']} exit {r['rc']}\n{r['stderr']}",
                  file=sys.stderr)
    return result, recs, len(rounds)


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload:6s} {name:52s} {m['value']:>16.6g} {m['unit']}")


def save(path, record):
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def compare(base_path, new_path):
    """Print both medians, their ratio and its base, per metric and workload."""
    def medians(path):
        groups = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            for name, m in run["result"]["metrics"].items():
                key = (run["workload"], name, m["unit"])
                groups.setdefault(key, []).append(m["value"])
        return {k: (statistics.median(v), len(v)) for k, v in groups.items()}
    def fmt(x):
        return f"{x:12.5g}" if x is not None else f"{'-':>12s}"
    base, new = medians(base_path), medians(new_path)
    print(f"{'workload':8s} {'metric':52s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s}  (base: {base_path}, median of n runs)")
    for key in sorted(set(base) | set(new)):
        workload, name, unit = key
        b, bn = base.get(key, (None, 0))
        v, vn = new.get(key, (None, 0))
        ratio = f"{v / b:9.3f}" if b and v is not None else f"{'-':>9s}"
        print(f"{workload:8s} {name:52s} {fmt(b)} {fmt(v)} {ratio}  "
              f"{unit}, n={bn}/{vn}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append this run's record to a JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two files written with --out and exit")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "weilrep" / "cli.py").is_file():
        print(f"error: no weilrep source tree at {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, recs, rounds = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace))
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        results[name] = result
        print_metrics(name, result["metrics"])
        if args.out:
            save(args.out, {"workload": name, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "rounds": rounds, "machine": machine(),
                            "result": result, "ops": recs})
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
