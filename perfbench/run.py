"""qzeta benchmark: cold-start verification workloads.

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 36 --trace 0

Run from the repository root.  There is nothing to build: the benchmark
runs the package from ``src/`` on PYTHONPATH.

Workloads (see workload.py for the claims):
  exact-grid     symbolic pipeline: UPoly/QFrac exact arithmetic, both
                 small operands and Kronecker-sized products.
  point-numeric  point values over Fraction plus certified mpmath sums;
                 barely touches UPoly.
  near-one       q0 in [9/10, 99/100], where sum_with_tail is the cost.

Every qzeta CLI call starts with cold caches, so every pass does too: a
pass is one fresh interpreter that issues the workload's claims in a
closed loop (one client, next claim after the previous verdict).  A run
repeats passes with the same inputs in two streams side by side, each
pinned to its own CPU.  A run makes PASSES passes in all, so
a run on a slow host runs longer rather than measuring fewer
repetitions: a pass count that changed with the host's speed would move
the fastest-repetition latencies from run to run.  So --seconds does not
set the run length; BENCHMARK.json's run_seconds is its typical length.

Other tenants of a shared host slow its CPUs by up to 1.8x, in stretches
of seconds to minutes that a run cannot wait out.  So each pass also
times reference() (workload.py), a fixed computation that uses no qzeta
code, before its first claim and after every 0.2 s of claims, and a
claim's latency is scaled to reference speed: its time times
REF_NOMINAL_S / ref, with ref the median of the twelve reference times
nearest it (about three seconds).  The scaling is partial: where
reference() ran 1.7x slower, the claims ran 1.25-1.6x slower.  Each
claim's latency is then the fastest of its cold repetitions, and

  setup_s        median time of fresh `import qzeta.cli`, two on the
                 stream's CPU after each pass (not scaled)
  wall_s         first claim issued to last verdict, cold caches: the sum
                 of the claims' latencies
  claim_p50_ms   median claim latency (a failed claim counts as +inf)
  claim_tail_ms  latency at the highest percentile with >= 10 claims
                 beyond it (+inf for failed claims); the percentile is
                 recorded in the result file
  peak_rss_mb    peak RSS of a pass process (median over passes)

The percentiles are Harrell-Davis estimates (quantile()), which do not
jump when two claims of similar latency swap ranks.  The result file
also keeps each claim's unscaled fastest latency and the unscaled wall_s.

With --trace 1 one untraced pass runs beside one traced pass and, for a
workload with known defects (baseline.json), the census pass, which
issues those claims.  The per-layer numbers of tracer.py are reported,
with the tracing overhead (traced minus untraced wall_s, unscaled, of
two passes side by side), the known defects still failing, those fixed
and the fixed ones' summed latency, and the failed share of all claims,
known defects included.

Each run writes perfbench/results/<workload>-seed<n>-trace<t>.json with
provenance and prints a JSON result as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workload import WORKLOADS, known_defects  # noqa: E402

SETUP_IMPORTS_PER_PASS = 2
STREAMS = 2
PASSES = 6        # three per stream: a run lasts 30-50 s on a shared 2-vCPU host
PASS_TIMEOUT_S = 170
REF_NOMINAL_S = 0.008     # reference() time that latencies are scaled to

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("claim_p50_ms", "ms"),
              ("claim_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("QZETA_PREC", None)     # the golden output is at the default precision
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # setup_s is timed with cached bytecode
    return env


def _start(args):
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc, timeout=PASS_TIMEOUT_S):
    """Wait for a child; return the JSON on its last stdout line."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(proc.args[1:])} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(cpu):
    """Time for a fresh interpreter, pinned to cpu, to import qzeta.cli."""
    pin = "" if cpu is None else f"import os; os.sched_setaffinity(0, {{{cpu}}}); "
    code = (pin + "import json, time; t = time.perf_counter(); import qzeta.cli; "
            "print(json.dumps(time.perf_counter() - t))")
    return _finish(_start(["-c", code]), timeout=60)


def run_pass(workload, seed, kind, cpu):
    """One cold pass ({"trace": t, "census": c}), pinned to cpu."""
    args = [os.path.join(HERE, "workload.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(kind.get("trace", 0)),
            "--census", str(kind.get("census", 0))]
    if cpu is not None:
        args += ["--cpu", str(cpu)]
    return _finish(_start(args))


def run_streams(workload, seed, firsts, shared, cpus, after):
    """One stream of passes per CPU, side by side.  Stream i runs the passes
    in firsts[i], then takes passes from shared until none is left;
    after(cpu) runs after each pass.  Returns the passes' results in
    completion order."""
    lock = threading.Lock()
    results, errors = [], []
    shared = list(shared)

    def stream(first, cpu):
        queue = list(first)
        try:
            while True:
                with lock:
                    if errors or not (queue or shared):   # done, or the other stream failed
                        return
                    kind = queue.pop(0) if queue else shared.pop()
                res = run_pass(workload, seed, kind, cpu)
                after(cpu)
                with lock:
                    results.append(res)
        except Exception as exc:      # re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=stream, args=(first, cpu))
               for first, cpu in zip(firsts, cpus)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    return results


def provenance(workload, seed, claims):
    sha = None     # a checkout without git metadata is known by src_sha256
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                tree.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    tree.update(fh.read())
    import mpmath
    return {
        "git_sha": sha, "src_sha256": tree.hexdigest(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "workload": workload, "seed": seed, "claims": claims,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def known_summary(first, census):
    """Failed share of all claims of one pass, known defects included, and
    the known defects' status."""
    attempted = len(first["claims"]) + len(census)
    failed = len(first["failed"]) + sum(r["status"] != "fixed" for r in census)
    return {"attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
            "known_defects_failing": sum(r["status"] == "still failing" for r in census),
            "known_defects_fixed": sum(r["status"] == "fixed" for r in census),
            "known_defects_fixed_s": sum(r["latency_s"] for r in census
                                         if r["status"] == "fixed")}


def quantile(xs, p):
    """The Harrell-Davis estimate of the p-quantile of xs: a mean of all
    order statistics, weighted by a beta distribution centred on p.  One
    order statistic jumps when two claims of similar latency swap ranks;
    this estimate moves little.  Each weight is positive, so an infinite
    (failed) sample makes the estimate infinite."""
    from mpmath import betainc

    xs = sorted(xs)
    k = len(xs)
    a, b = p * (k + 1), (1 - p) * (k + 1)
    cdf = [float(betainc(a, b, 0, i / k, regularized=True)) for i in range(k + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs) if hi > lo)


def combine(passes):
    """Per-claim latency over passes of the same claims: the fastest cold
    repetition at reference speed (latency * REF_NOMINAL_S / ref, ref the
    reference time around the claim), or +inf if the claim failed in any
    pass.  Returns the end-to-end numbers in their units."""
    names = passes[0]["claims"]
    if any(p["claims"] != names for p in passes):
        raise RuntimeError("passes issued different claims")

    def fastest(scaled):
        return [math.inf if None in lats else min(lats) for lats in zip(*scaled)]

    raw = fastest(p["latency_s"] for p in passes)
    best = fastest([None if t is None else t * REF_NOMINAL_S / r
                    for t, r in zip(p["latency_s"], p["ref_s"])] for p in passes)
    ms = [1e3 * t for t in best]
    tail_p = max(len(ms) - 10, 1) / len(ms)     # ten claims lie beyond it
    return {
        "wall_s": sum(best),
        "claim_p50_ms": quantile(ms, 0.5),
        "claim_tail_ms": quantile(ms, tail_p),
        "claim_tail_pct": 100.0 * tail_p,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "raw_wall_s": sum(raw),
        "claim_best_ms": dict(zip(names, ms)),
        "claim_best_raw_ms": {c: 1e3 * t for c, t in zip(names, raw)},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="qzeta cold-start verification benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36,
                    help="nominal run length; PASSES sets the actual one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qzeta", "cli.py")):
        print(f"no qzeta sources under {os.path.join(ROOT, 'src')}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    try:
        cpus = sorted(os.sched_getaffinity(0))[:STREAMS]
    except AttributeError:      # no affinity control: one pass at a time
        cpus = [None]
    census_pass = [{"census": 1}] if args.trace and known_defects(args.workload) else []
    imports = []

    def after(cpu):
        """setup_s: imports between the passes, so they sample the whole run."""
        if not args.trace:
            got = [measure_setup(cpu) for _ in range(SETUP_IMPORTS_PER_PASS)]
            imports.extend(got)

    if args.trace:
        firsts, shared = [[{}], [{"trace": 1}] + census_pass], []
    else:
        firsts, shared = [[], []], [{}] * PASSES
    if len(cpus) == 1:
        firsts = [[k for first in firsts for k in first]]
    t_run = time.perf_counter()
    passes = run_streams(args.workload, args.seed, firsts, shared, cpus, after)
    census = next((p["census"] for p in passes if "census" in p), [])
    passes = [p for p in passes if "census" not in p]

    untraced = [p for p in passes if "layers" not in p]
    e2e = combine(untraced)
    failed = [f for p in passes for f in p["failed"]]
    wrong = sorted({w for p in passes for w in p["wrong"]}
                   | {r["claim"] for r in census if r["status"] == "wrong"})
    attempted = sum(len(p["claims"]) for p in passes)
    summary = known_summary(passes[0], census)

    if args.trace:
        traced = next(p for p in passes if "layers" in p)
        metrics = dict(traced["layers"])
        metrics.update({
            "trace.wall_s": {"value": traced["wall_s"], "unit": "s"},
            "trace.overhead_s": {"value": traced["wall_s"] - untraced[0]["wall_s"],
                                 "unit": "s"},
            "claims.fail_ratio": {"value": summary["fail_ratio"], "unit": "1"},
            "claims.known_defects": {"value": summary["known_defects_failing"],
                                     "unit": "count"},
            "claims.known_defects_fixed": {"value": summary["known_defects_fixed"],
                                           "unit": "count"},
            "claims.known_defects_fixed_s": {"value": summary["known_defects_fixed_s"],
                                             "unit": "s"},
        })
    else:
        e2e["setup_s"] = statistics.median(imports)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    record = {
        "provenance": provenance(args.workload, args.seed, len(passes[0]["claims"])),
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        "metrics": metrics,
        "claim_tail_percentile": e2e["claim_tail_pct"],
        "raw_wall_s": e2e["raw_wall_s"],
        "claim_best_ms": e2e["claim_best_ms"],
        "claim_best_raw_ms": e2e["claim_best_raw_ms"],
        "ref_median_ms": [1e3 * statistics.median(p["ref_s"]) for p in untraced],
        "all_claims": summary if args.trace else None,
        "census": census,
        "failed": failed,
        "wrong": wrong,
        "setup_imports_s": imports,
        "per_pass_wall_s": [p["wall_s"] for p in passes],
        "run_s": time.perf_counter() - t_run,
    }
    if args.trace:
        record["upoly_qcomb_self_top_claims"] = traced["upoly_qcomb_self_top_claims"]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    known = (f"with known defects {summary['failed']}/{summary['attempted']} claims "
             f"fail (fail_ratio {summary['fail_ratio']:.4f}); "
             f"{summary['known_defects_fixed']} known defects fixed, taking "
             f"{summary['known_defects_fixed_s']:.3f} s; ") if args.trace else ""
    print(f"# {args.workload} seed={args.seed}: {attempted} claims in {len(passes)} "
          f"passes, {len(failed)} failed; tail = p{e2e['claim_tail_pct']:.1f}; {known}"
          f"run took {record['run_s']:.1f} s; {path}")
    for r in census:
        print(f"#   known defect {r['status']} after {r['latency_s']:.3f} s: {r['claim']}"
              f"  [{r['exception']}]")
    print(json.dumps({"correct": not wrong and not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
