"""Write BENCH_<label>.json, one point of the perf trajectory, at the root
of this checkout.

    python3 scripts/bench_trajectory.py --label pr27 --seeds 1-5
    python3 scripts/bench_trajectory.py --label pr27 --seeds 1-5 --parent ../parent

For each workload of perfbench/run.py it makes one untraced run per seed,
with the run length of BENCHMARK.json, and one traced run on the first
seed; the runs are perfbench/report.py's bench_run, imported read-only.
The file holds, per workload, the median and quartiles of every
end-to-end metric, its spread (report.py's spread: the interquartile
range over the median), the seeds and each run's value, whether every run
was correct and how many claims failed, and the traced run's counts:
UPoly and Kronecker products, divexact calls, terms summed by
sum_with_tail and QFrac reductions.  These counts are the same for a seed
on any host, so they settle what wall-clock noise cannot.  It also holds
the commit and a hash of src/, the host (cores, Python, mpmath and its
backend) and the run length.

With --parent, a second checkout (an earlier commit, say) is run the
same way, seed by seed in alternating order (the parent first on the
first, third, fifth, ... seed), and the file gets its numbers under
"parent" with, per metric, the number of seeds where this checkout read
lower, and the per-pair ratio (this checkout over the parent, same seed)
of every end-to-end metric and of raw_wall_s (the run record's sum of
the fastest unscaled claim latencies), as its median and quartiles.
Each run pins two CPUs, so nothing else should run beside it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ROOT      # where BENCH_<label>.json goes
COUNTS = ("upoly.mul.calls", "upoly.kronecker.calls", "upoly.divexact.calls",
          "series.sum_with_tail.terms", "qcomb.reduced.calls")


def load_report(root: str):
    """perfbench/report.py of the checkout at root, as a module of its own."""
    path = os.path.join(root, "perfbench", "report.py")
    spec = importlib.util.spec_from_file_location(f"report_{abs(hash(root))}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commit(root: str):
    """The checkout's HEAD, or None without git metadata."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def quartiles(values: list) -> dict:
    """Median and quartiles (the spread of perfbench/report.py, undivided)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


class Side:
    """The runs of one checkout on one workload."""

    def __init__(self, root: str):
        self.root, self.report = root, load_report(root)
        self.values, self.run_s, self.failed, self.correct = {}, [], 0, True
        self.raw_wall_s = []
        self.src_sha256 = None

    def run(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        result, record = self.report.bench_run(workload, seed, seconds, trace)
        self.correct &= result["correct"]
        self.failed += result["failed"]
        self.src_sha256 = record["provenance"]["src_sha256"]
        if not trace:
            self.run_s.append(record["run_s"])
            self.raw_wall_s.append(record["raw_wall_s"])
            for name, metric in result["metrics"].items():
                self.values.setdefault(name, []).append(metric["value"])
        return result

    def summary(self, traced: dict, units: dict) -> dict:
        return {
            "commit": commit(self.root), "src_sha256": self.src_sha256,
            "correct": self.correct, "failed_claims": self.failed,
            "run_s": {"median": statistics.median(self.run_s), "max": max(self.run_s)},
            "raw_wall_s": dict(quartiles(self.raw_wall_s), values=self.raw_wall_s),
            "metrics": {name: dict(quartiles(v), spread=self.report.spread(v),
                                   unit=units[name], values=v)
                        for name, v in self.values.items()},
            "counts": {name: traced["metrics"][name]["value"] for name in COUNTS},
        }


def bench_workload(workload, seeds, seconds, roots) -> dict:
    """roots: this checkout first, then the parent's if any."""
    sides = [Side(root) for root in roots]
    for i, seed in enumerate(seeds):
        order = sides[::-1] if len(sides) > 1 and i % 2 == 0 else sides
        for side in order:
            side.run(workload, seed, seconds, 0)
        print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    traced = [side.run(workload, seeds[0], seconds, 1) for side in sides]
    units = dict(sides[0].report.END_TO_END)
    out = dict(sides[0].summary(traced[0], units), seeds=seeds, traced_seed=seeds[0])
    if len(sides) > 1:
        change, parent = sides
        out["parent"] = parent.summary(traced[1], units)
        out["pairs_lower"] = {name: sum(a < b for a, b in zip(v, parent.values[name]))
                              for name, v in change.values.items()}
        mine, theirs = (dict(side.values, raw_wall_s=side.raw_wall_s) for side in sides)
        out["pair_ratio"] = {name: quartiles([a / b for a, b in zip(v, theirs[name])])
                             for name, v in mine.items()}
    return out


def host() -> dict:
    import mpmath.libmp
    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seeds", default="1-5", help="'a-b' or a comma list")
    ap.add_argument("--parent", default=None, help="a second checkout to run alternately")
    args = ap.parse_args(argv)
    report = load_report(ROOT)
    seeds = report.parse_seeds(args.seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        seconds = json.load(fh)["run_seconds"]
    roots = [ROOT] + ([os.path.abspath(args.parent)] if args.parent else [])
    data = {"label": args.label, "host": host(), "run_seconds": seconds,
            "workloads": {w: bench_workload(w, seeds, seconds, roots) for w in report.WORKLOADS}}
    path = os.path.join(OUT_DIR, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    correct = all(w["correct"] and w.get("parent", w)["correct"]
                  for w in data["workloads"].values())
    print(f"wrote {path}; every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
