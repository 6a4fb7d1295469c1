"""Run every workload and print all end-to-end metrics by name and unit.

    python3 perfbench/report.py --seeds 1               # one run per workload
    python3 perfbench/report.py --seeds 1-10 --write-baseline

Run from the repository root.  For each workload this calls run.py once
per seed, with the run length of BENCHMARK.json, and prints the median of
every end-to-end metric over the seeds, with its spread (interquartile
range over median) when there are several, and the length of the runs.
One traced run per workload (first seed) then gives fail_ratio, the
failed share of all claims of a pass, known defects included (only the
traced run issues them), the layer shares of its wall time and the
claims with the most upoly + qcomb self time.  Every run checks every
claim's verdict; a run whose result is not correct is reported and
makes the exit code 1.  --write-baseline stores the medians and spreads,
and the traced run's numbers, with provenance, under "metrics" in
baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, WORKLOADS  # noqa: E402

SHARES = ("share.upoly_qcomb_self", "share.sum_with_tail", "share.pf_extract_fraction",
          "trace.wall_s", "trace.overhead_s", "trace.call_overhead_s",
          "claims.known_defects", "claims.known_defects_fixed",
          "claims.known_defects_fixed_s")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def bench_run(workload, seed, seconds, trace):
    """Run run.py; return (its printed result, its result file)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="ascii") as fh:
        return result, json.load(fh)


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="'a-b' or a comma list")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        seconds = json.load(fh)["run_seconds"]

    names = [name for name, _ in END_TO_END]
    units = dict(END_TO_END)
    summary, all_correct, provenance = {}, True, None
    for workload in WORKLOADS:
        values = {name: [] for name in names}
        tails, run_s = [], []
        for seed in seeds:
            result, record = bench_run(workload, seed, seconds, 0)
            all_correct &= result["correct"]
            provenance = record["provenance"]
            for name, _ in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
            tails.append(record["claim_tail_percentile"])
            run_s.append(record["run_s"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={record['passes']} run_s={record['run_s']:.1f}", flush=True)
        row = {name: {"median": statistics.median(v), "spread": spread(v),
                      "unit": units[name]} for name, v in values.items()}
        row["claim_tail_ms"]["percentile"] = statistics.median(tails)
        row["run_s"] = {"median": statistics.median(run_s), "max": max(run_s), "unit": "s"}
        summary[workload] = row
        print(f"== {workload}  ({len(seeds)} seed(s), "
              f"{provenance['claims']} timed claims per pass, run_s median "
              f"{row['run_s']['median']:.1f} max {row['run_s']['max']:.1f})")
        for name in names:
            r = row[name]
            extra = f"  (p{r['percentile']:.1f})" if "percentile" in r else ""
            print(f"   {name:14s} {r['median']:12.6g} {r['unit']:3s}  "
                  f"spread {r['spread']:.3f}{extra}")
        result, record = bench_run(workload, seeds[0], seconds, 1)
        all_correct &= result["correct"]
        row["fail_ratio"] = {"value": record["all_claims"]["fail_ratio"], "unit": "1"}
        row["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        row["upoly_qcomb_self_top_claims"] = record["upoly_qcomb_self_top_claims"]
        print(f"   {'fail_ratio':14s} {row['fail_ratio']['value']:12.6g} 1    "
              f"({record['all_claims']['failed']} of {record['all_claims']['attempted']} "
              "claims of a pass, known defects included)")
        for name in SHARES:
            m = result["metrics"][name]
            print(f"   {name:28s} {m['value']:10.4g} {m['unit']}")
        for top in record["upoly_qcomb_self_top_claims"]:
            print(f"   upoly+qcomb self {top['self_s']:8.4f} s  {top['claim']}")

    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)
        provenance = dict(provenance, workload=None, seed=None, claims=None, seeds=seeds)
        data["metrics"] = {"provenance": provenance, "run_seconds": seconds,
                           "workloads": summary}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
