"""Record the benchmark's reference data from the current source tree.

    python3 perfbench/record.py golden     # README CLI output -> golden/*.out
    python3 perfbench/record.py defects    # near-one failures -> baseline.json

Run from the repository root, at the commit the benchmark is anchored to.
`golden` runs each README command as its own `python -m qzeta.cli`
process and stores its stdout byte for byte; the benchmark compares the
in-process output of `qzeta.cli.main` against these files.  `defects`
issues every near-one claim at every pool point and writes each failing
claim, with its exception, under "known_defects" in baseline.json.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record_golden():
    import workload

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("QZETA_PREC", None)
    for slug, line in workload.README_COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "qzeta.cli", *line.split()],
                              env=env, cwd=ROOT, capture_output=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{line!r} exited {proc.returncode}: {proc.stderr.decode()}")
        with open(os.path.join(HERE, "golden", slug + ".out"), "wb") as fh:
            fh.write(proc.stdout)
        print(f"golden/{slug}.out  {len(proc.stdout)} bytes")


def record_defects():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workload
    import qzeta.cli  # noqa: F401
    import qzeta.eisenstein  # noqa: F401

    claims = [c for identity, stratum in workload.NEAR_STRATA for q0 in stratum
              for c in workload.near_one_point(q0, identity)]
    # the classical-limit claim only sums zeta_q(2), which the defect does
    # not reach; check it on the grids made of the strata's end points
    claims += [workload.classical_limit(pts) for pts in itertools.product(
        *((min(st), max(st)) for _, st in workload.NEAR_STRATA))]
    results, _, _, _ = workload.issue(claims)
    failed, wrong = workload.verdicts(claims, results)
    if wrong:
        raise SystemExit(f"claims returned wrong results: {wrong}")
    # every point of a stratum must fail the same claims, so that every
    # seed times the same kind of work
    kinds = {}
    for f in failed:
        kind, _, q0 = f["claim"].partition(",q=")
        kinds.setdefault(q0.rstrip(")"), set()).add(kind)
    for _, stratum in workload.NEAR_STRATA:
        seen = {frozenset(kinds.get(str(q0), ())) for q0 in stratum}
        if len(seen) > 1:
            raise SystemExit(f"points of one stratum fail different claims: {seen}")
    path = os.path.join(HERE, "baseline.json")
    data = {}
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)
    data["known_defects"] = [dict(f, workload="near-one") for f in failed]
    data["known_defects_pool_claims"] = len(claims)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"{len(failed)} of {len(claims)} near-one pool claims fail")


if __name__ == "__main__":
    what = sys.argv[1:] or ["golden", "defects"]
    for step in what:
        {"golden": record_golden, "defects": record_defects}[step]()
