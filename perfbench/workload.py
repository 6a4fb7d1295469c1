"""One cold pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workload.py --workload exact-grid --seed 1

A pass builds the workload's claims from the seed, checks that every
qzeta cache is empty, then issues the claims one after another on one
thread (a closed loop with one client) and records each claim's latency
(None for a failed claim), and times reference() between the claims
(see issue()).  Verdicts are checked after the loop, so the
benchmark's own checking never sits inside the timed region.  A claim is
one public verification call; it passes only if its stated check holds,
and a claim that raises fails.  The pass prints one JSON object on its
last stdout line.

Claims listed as known defects in baseline.json are not timed.  A pass
with ``--census 1`` issues only them, in the same closed loop, and reports
each as still failing, fixed or wrong, with its latency.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
TOL_EXP = 40
CAL_EVERY_S = 0.2

# README command lines; their JSON output at the seed is kept in golden/.
README_COMMANDS = {
    "denom-probe": "denom-probe --A 4 --r 1 --n 1..8",
    "linform": "linform --A 4 --r 1 --n 6 --eps 1 --q 1/3",
    "slope-S": "slope-S --A 4 --r 1 --q 1/2 --n 2..40 --max-gap 0.05",
    "slope-P": "slope-P --A 4 --r 1 --eps 0 --q 1/2 --n 36..40",
    "slope-D": "slope-D --A 4 --r 1 --q 1/2 --n 2..60 --max-gap 0.03",
    "delta": "delta --A 12 --r 2",
    "delta-const": "delta-const",
    "zeta3": "zeta3 --n 8 --q 1/3",
    "eisenstein": "eisenstein --weight 12 --verify 42",
}
README_POINT = [slug for slug in README_COMMANDS if slug != "denom-probe"]

# exact-grid sizes: the symmetry/integrality grid runs over small n, the
# (4, 1) and weight-3 claims reach the n where products go through the
# Kronecker multiply.
PAIRS = ((4, 1), (6, 1), (6, 2))
GRID_N = range(5)
P1_N = range(9)
Z3_N = range(11)

# point-numeric: each seed draws one q0 from each stratum.  Points in a
# stratum share their denominator and lie within 0.005 of each other, so
# the seed changes the inputs but hardly the amount of work.
POINT_STRATA = (
    tuple(Fraction(k, 499) for k in (221, 222, 223, 224)),
    tuple(Fraction(k, 499) for k in (146, 147, 148, 149)),
)
POINT_GRID_N = range(2)
PAIR_N = range(9)
Z3_ID_N = range(4)

# near-one: one q0 per stratum, q0 in [9/10, 99/100].  zeta_q(s, q0)
# hits the false-divergence defect for s = 6, 5, 4, 3 from q0 about
# 0.927, 0.942, 0.958, 0.976; the strata stay clear of those thresholds,
# so every seed meets the same defects (none, s = 6, s >= 4, s >= 3).
# The second stratum issues only the zeta_q claims, to keep a pass short;
# the linear-form identity runs on the other three.
NEAR_STRATA = (
    (True, tuple(Fraction(k, 10007) for k in (9008, 9010, 9012, 9014, 9016))),
    (False, tuple(Fraction(k, 10007) for k in (9330, 9332, 9334, 9336, 9338))),
    (True, tuple(Fraction(k, 10007) for k in (9660, 9662, 9664, 9666, 9668))),
    (True, tuple(Fraction(k, 10007) for k in (9810, 9812, 9814, 9816, 9818))),
)
NEAR_EDGE = Fraction(99, 100)

WORKLOADS = ("exact-grid", "point-numeric", "near-one")


class Claim:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


def _tol():
    return mpf(10) ** -TOL_EXP


def _is_true(res):
    return res is True


def _pass_flag(res):
    return res["pass"] is True


def _residual(res):
    return res["residual"] < _tol()


def _mod(name):
    # look modules up at call time: the tracer rebinds their attributes
    return sys.modules["qzeta." + name]


# ----------------------------------------------------------------------
# Claim bodies.  Each looks its functions up through the module, so a
# traced pass sees the wrappers.

def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _mod("cli").main(argv)
    return code, buf.getvalue()


def _params(A, r, n, eps=1):
    return _mod("linform").Params(A, r, n, eps)


def _lf(fname, *args):
    return lambda: getattr(_mod("linform"), fname)(*args)


def _residue_sum_zero(n):
    return _mod("zeta3").zeta3_partial_fractions(n).residue_sum().is_zero()


def _series_pair(n, q0):
    z3 = _mod("zeta3")
    return abs(z3.qball_numeric(n, q0, 160) - z3.qbgn_numeric(n, q0, 160))


def _golden_check(slug):
    with open(os.path.join(HERE, "golden", slug + ".out"), encoding="ascii") as fh:
        want = fh.read()
    return lambda res: res == (0, want)


def _cli_claim(slug):
    argv = README_COMMANDS[slug].split()
    return Claim(f"cli {README_COMMANDS[slug]}", lambda: run_cli(argv), _golden_check(slug))


def lambert_zeta_q(s, q0, prec=160):
    """zeta_q(s, q0) by the Lambert route sum_m sigma_{s-1}(m) q0^m, an
    independent reference for the library's sum over k.  Since
    sigma_{s-1}(m) <= m^s, the tail after M terms is at most
    (M+1)^s q0^(M+1) / (1 - r) with r = (1 + 1/(M+1))^s q0; M doubles
    until that bound is below 2^-prec of the total."""
    with mp.workprec(prec + 40):
        q = mpf(q0.numerator) / q0.denominator
        size = 256
        while True:
            sigma = [0] * (size + 1)
            for d in range(1, size + 1):
                dp = d ** (s - 1)
                for m in range(d, size + 1, d):
                    sigma[m] += dp
            total, qm = mpf(0), mpf(1)
            for m in range(1, size + 1):
                qm *= q
                total += sigma[m] * qm
            r = (1 + mpf(1) / (size + 1)) ** s * q
            if r < 1 and mpf(size + 1) ** s * qm * q / (1 - r) < total * mpf(2) ** -prec:
                return +total
            size *= 2


def _zeta_check(s, q0):
    def check(res):
        ref = lambert_zeta_q(s, q0)
        return abs(res - ref) <= _tol() * abs(ref)
    return check


# ----------------------------------------------------------------------
# Workloads.

def exact_grid(rng):
    groups = []
    for A, r in PAIRS:
        per_n = []
        for n in GRID_N:
            p = _params(A, r, n)
            group = [Claim(f"reconstruction_check({A},{r},{n})",
                           _lf("reconstruction_check", p), _is_true),
                     Claim(f"kernel_symmetry_check({A},{r},{n})",
                           _lf("kernel_symmetry_check", p), _is_true),
                     Claim(f"d_symmetry_check({A},{r},{n})",
                           _lf("d_symmetry_check", p), _is_true)]
            group += [Claim(f"p_reciprocity_check({A},{r},{n},s={s})",
                            _lf("p_reciprocity_check", p, s), _is_true)
                      for s in range(1, A + 1)]
            group += [Claim(f"denominator_check({A},{r},{n},eps={eps})",
                            _lf("denominator_check", _params(A, r, n, eps)), _pass_flag)
                      for eps in (0, 1)]
            if (A, r) == (4, 1) and n in P1_N:
                group.append(_p1_claim(n))
            per_n.append(group)
        if (A, r) == (4, 1):
            # the README probe builds the (4, 1) tables up to n = 8; it opens
            # one group with every (4, 1) claim, so it pays for those tables
            # whatever the seed
            groups.append([_cli_claim("denom-probe")] + [c for g in per_n for c in g]
                          + [_p1_claim(n) for n in P1_N if n not in GRID_N])
        else:
            groups += per_n
    for n in Z3_N:
        groups.append([Claim(f"zeta3_partial_fractions({n}).residue_sum()==0",
                             lambda n=n: _residue_sum_zero(n), _is_true),
                       Claim(f"zeta3_reconstruction_check({n})",
                             lambda n=n: _mod("zeta3").zeta3_reconstruction_check(n),
                             _is_true)])
    return _shuffled(groups, rng), []


def _p1_claim(n):
    return Claim(f"p1_at_one_check(4,1,{n})", _lf("p1_at_one_check", _params(4, 1, n)),
                 _is_true)


def _shuffled(groups, rng):
    """Claims of all groups, the groups in seeded order.  A group holds the
    claims that share cached tables, in a fixed order, so whatever the
    seed, the same claim pays for building them."""
    rng.shuffle(groups)
    return [c for g in groups for c in g]


def point_numeric(rng):
    a, b = (rng.choice(stratum) for stratum in POINT_STRATA)
    groups = []
    for q0 in (a, b, -a):
        for A, r in PAIRS:
            for n in POINT_GRID_N:
                groups.append([Claim(
                    f"identity_residual({A},{r},{n},eps={eps},q={q0})",
                    _lf("identity_residual", _params(A, r, n, eps), q0, 256),
                    _residual) for eps in (0, 1)])
    for q0 in (a, b):
        for n in PAIR_N:
            groups.append([Claim(f"|qball-qbgn|({n},q={q0})",
                                 lambda n=n, q0=q0: _series_pair(n, q0),
                                 lambda d: d < _tol())])
        for n in Z3_ID_N:
            groups.append([Claim(
                f"zeta3_identity_residual({n},q={q0})",
                lambda n=n, q0=q0: _mod("zeta3").zeta3_identity_residual(n, q0, 160),
                _residual)])
    groups += [[_cli_claim(slug)] for slug in README_POINT]
    return _shuffled(groups, rng), []


def near_one_point(q0, identity=True):
    """The near-one claims at one q0: zeta_q(s) for s = 1..6 and, with
    identity, the A = 4 linear-form identity for n <= 3, with eps
    alternating in n."""
    claims = []
    for s in range(1, 7):
        claims.append(Claim(f"zeta_q({s},q={q0})",
                            lambda s=s: _mod("linform").zeta_q(s, q0),
                            _zeta_check(s, q0)))
    for n in range(4 if identity else 0):
        eps = n % 2
        claims.append(Claim(f"identity_residual(4,1,{n},eps={eps},q={q0})",
                            _lf("identity_residual", _params(4, 1, n, eps), q0, 256),
                            _residual))
    return claims


def classical_limit(points):
    """(1-q)^2 zeta_q(2) approaching zeta(2) on the drawn points and 99/100."""
    grid = tuple(sorted(points)) + (NEAR_EDGE,)
    return Claim(f"classical_limit_check(2,{','.join(map(str, grid))})",
                 lambda: _mod("eisenstein").classical_limit_check(2, grid, 96),
                 lambda res: res["monotone_decreasing"] is True)


def near_one(rng):
    drawn = [(identity, rng.choice(stratum)) for identity, stratum in NEAR_STRATA]
    # the near-one claims share no cached table, so they are shuffled singly
    claims = [c for identity, q0 in drawn for c in near_one_point(q0, identity)]
    claims.append(classical_limit([q0 for _, q0 in drawn]))
    known = known_defects("near-one")
    timed = [c for c in claims if c.name not in known]
    census = [c for c in claims if c.name in known]
    rng.shuffle(timed)
    return timed, census


def known_defects(workload):
    """{claim: recorded exception} of the workload's known defects."""
    with open(os.path.join(HERE, "baseline.json"), encoding="ascii") as fh:
        return {d["claim"]: d["exception"] for d in json.load(fh)["known_defects"]
                if d["workload"] == workload}


BUILDERS = {"exact-grid": exact_grid, "point-numeric": point_numeric,
            "near-one": near_one}


# ----------------------------------------------------------------------

def cold_start_guard():
    """Names of qzeta memo tables that already hold entries."""
    warm = []
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not key.startswith("qzeta"):
            continue
        for name, val in vars(mod).items():
            info = getattr(val, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{key}.{name}")
    qcomb = sys.modules["qzeta.qcomb"]
    cyclo = getattr(qcomb, "_CYCLO", None)
    if cyclo is not None and (cyclo._phi or len(cyclo._dn) > 1):
        warm.append("qzeta.qcomb._CYCLO")
    stirling = getattr(qcomb, "_STIRLING", None)
    if stirling is not None and len(stirling._rows) > 2:
        warm.append("qzeta.qcomb._STIRLING")
    return warm


def reference():
    """A fixed computation that uses no qzeta code, in the kinds of work the
    claims do: an mpf series like zeta_q's, a product of integer
    polynomials with 200-bit coefficients like UPoly's, and a Fraction sum.
    Its time tracks how fast the CPU runs at the moment (on a shared host
    other tenants slow it by up to 1.8x for seconds at a time).  The
    garbage collector is off meanwhile, since a collection's cost grows
    with the objects the claims have left alive."""
    gc.disable()
    t0 = perf_counter()
    for _ in range(2):
        with mp.workprec(320):
            q = mpf(9) / 10
            qk, acc = mpf(1), mpf(0)
            for k in range(1, 250):
                qk *= q
                acc += k * qk / (1 - qk)
        a = [(7 ** i) % (1 << 200) for i in range(24)]
        b = [(11 ** i) % (1 << 200) for i in range(24)]
        c = [0] * 47
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        f = Fraction(0)
        for k in range(1, 60):
            f += Fraction(k, k * k + 1)
    t = perf_counter() - t0
    gc.enable()
    return t


def issue(claims, mark=None):
    """The closed loop: returns (results, latencies in s, wall_s, ref_s).
    mark, if given, is called after each claim (the traced pass reads its
    per-claim layer times there).  reference() runs before the first
    claim and after every CAL_EVERY_S of claims, outside the latencies and
    wall_s; ref_s[i] is the reference time around claim i."""
    results, lat, seg = [], [], []
    refs = [reference()]
    t_seg = 0.0
    t_start = perf_counter()
    for c in claims:
        t0 = perf_counter()
        try:
            res = c.call()
        except Exception as exc:     # a claim that raises fails
            res = exc
        lat.append(perf_counter() - t0)
        results.append(res)
        if mark is not None:
            mark()
        seg.append(len(refs) - 1)
        t_seg += lat[-1]
        if t_seg >= CAL_EVERY_S or len(lat) == len(claims):
            refs.append(reference())
            t_seg = 0.0
    wall = perf_counter() - t_start - sum(refs[1:])
    # a median over the twelve reference times nearest each claim's
    # segment, about three seconds: a single reference time is mostly
    # jitter, while slow stretches last seconds and slow claim and
    # reference alike
    ref_s = [median(refs[max(i - 5, 0):i + 7]) for i in seg]
    return results, lat, wall, ref_s


def verdicts(claims, results):
    """(failed, wrong): claims that raised or whose check did not hold, and
    the subset that returned a result failing its check."""
    failed, wrong = [], []
    for c, res in zip(claims, results):
        if isinstance(res, Exception):
            failed.append({"claim": c.name, "exception": _exc_text(res)})
        elif not c.check(res):
            failed.append({"claim": c.name, "exception": None})
            wrong.append(c.name)
    return failed, wrong


def _exc_text(exc):
    return f"{type(exc).__name__}: {exc}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--census", type=int, choices=(0, 1), default=0,
                    help="issue the known-defect claims instead of the timed ones")
    ap.add_argument("--cpu", type=int, default=None, help="pin the pass to this CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import qzeta.asymptotics  # noqa: F401  (every layer a claim may reach)
    import qzeta.cli  # noqa: F401
    import qzeta.eisenstein  # noqa: F401
    import qzeta.zeta3  # noqa: F401

    warm = cold_start_guard()
    if warm:
        print(f"cold-start guard: caches not empty at start: {warm}", file=sys.stderr)
        return 3

    claims, census = BUILDERS[args.workload](random.Random(args.seed))
    if args.census:
        print(json.dumps({"census": run_census(census, args.workload)}))
        return 0
    tracer = state = mark = None
    exact_self = []      # traced pass: upoly + qcomb self time after each claim
    if args.trace:
        from tracer import EXACT_LAYERS, Tracer, install
        tracer = Tracer()
        state = install(tracer)
        mark = lambda: exact_self.append(tracer.self_s(EXACT_LAYERS))  # noqa: E731
    try:
        results, lat, wall, ref_s = issue(claims, mark)
    finally:
        if tracer is not None:
            tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, wrong = verdicts(claims, results)
    bad = {f["claim"] for f in failed}
    out = {
        "workload": args.workload, "seed": args.seed,
        "claims": [c.name for c in claims],
        "latency_s": [None if c.name in bad else t for c, t in zip(claims, lat)],
        "ref_s": ref_s, "wall_s": wall, "peak_rss_mb": rss_mb,
        "failed": failed, "wrong": wrong,
    }
    if tracer is not None:
        from tracer import layer_metrics
        out["layers"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in layer_metrics(tracer, state, wall).items()}
        per_claim = [b - a for a, b in zip([0.0] + exact_self, exact_self)]
        top = sorted((t, c) for t, c in zip(per_claim, out["claims"]) if t > 0)[::-1][:5]
        out["upoly_qcomb_self_top_claims"] = [{"claim": c, "self_s": t} for t, c in top]
    print(json.dumps(out))
    return 0


def run_census(census, workload):
    """Issue each known-defect claim once, cold, and report its status and
    latency (the time it takes to fail, or to pass once fixed)."""
    known = known_defects(workload)
    results, lat, _, _ = issue(census)
    rows = []
    for c, res, t in zip(census, results, lat):
        if isinstance(res, Exception):
            status, text = "still failing", _exc_text(res)
        elif c.check(res):
            status, text = "fixed", None
        else:
            status, text = "wrong", None
        rows.append({"claim": c.name, "status": status, "exception": text,
                     "latency_s": t, "recorded": known[c.name]})
    return rows


if __name__ == "__main__":
    sys.exit(main())
