"""Batch command-line front end.

Every verification in the library is exposed as a subcommand with
machine-readable output (json, csv, or pretty text).  q is always an
exact rational string like "1/3" (decimals are rejected), n-ranges are
written "a..b", and the default working precision comes from the
QZETA_PREC environment variable when set.

Exit codes: 0 = pass, 1 = a verification failed, 2 = invalid input,
3 = precision exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, mpf

from .asymptotics import (
    delta,
    delta_asymptotic_constant,
    delta_best_r,
    delta_constant_grid_max,
    slope_D,
    slope_P,
    slope_S,
)
from .eisenstein import (
    InconsistentSystemError,
    eisenstein_expansion,
    express_in_E4_E6,
    monomial_basis,
)
from .linform import (
    Params,
    denominator_check,
    denominator_conjecture_probe,
    denominator_sharpness_probe,
    identity_residual,
)
from .series import DEFAULT_PREC, DivergenceError, PrecisionError
from .upoly import format_rat, parse_rat
from .zeta3 import (
    dbar_probe,
    qball_numeric,
    qbgn_numeric,
    zeta3_identity_residual,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_PRECISION = 3

_DIGITS = 30   # fixed digit count for all float output: determinism


def _default_prec() -> int:
    try:
        return int(os.environ["QZETA_PREC"])
    except (KeyError, ValueError):
        return DEFAULT_PREC


def _parse_nrange(text: str) -> range:
    s = text.strip()
    if ".." in s:
        lo, hi = s.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    v = int(s)
    return range(v, v + 1)


def _num(x) -> str:
    return mp.nstr(mpf(x), _DIGITS)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return format_rat(obj)
    if isinstance(obj, mpf):
        return _num(obj)
    if isinstance(obj, float):
        return repr(obj)
    return obj


def _emit(report: dict, fmt: str, out, csv_rows=None) -> None:
    if fmt == "json":
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _flatten_rows(report)
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    else:
        text = "".join(f"{k}: {v}\n" for k, v in _pretty_lines(report))
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_rows(report, prefix=""):
    rows = [("key", "value")] if not prefix else []
    for k, v in sorted(_jsonable(report).items()):
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_flatten_rows(v, prefix=f"{key}."))
        elif isinstance(v, list):
            rows.append((key, ";".join(json.dumps(x) for x in v)))
        else:
            rows.append((key, v))
    return rows


def _pretty_lines(report, prefix=""):
    for k, v in sorted(_jsonable(report).items()):
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _pretty_lines(v, prefix=f"{key}.")
        else:
            yield key, v


def _slope_report(est, extra=None) -> dict:
    rep = est.to_json()
    if extra:
        rep.update(extra)
    return rep


# ----------------------------------------------------------------------
# Subcommand implementations.  Each returns (exit_code, report, csv_rows).

def _cmd_linform(args):
    params = Params(args.A, args.r, args.n, args.eps)
    q0 = parse_rat(args.q)
    res = identity_residual(params, q0, args.prec)
    den = denominator_check(params)
    tol = mpf(10) ** (-args.tol)
    ok_res = res["residual"] < tol
    report = {
        "command": "linform",
        "A": args.A, "r": args.r, "n": args.n, "eps": args.eps,
        "q": format_rat(q0),
        "prec": args.prec,
        "tol_exponent": args.tol,
        "residual": res["residual"],
        "residual_pass": bool(ok_res),
        "denominator_pass": bool(den["pass"]),
        "P0": res["P0_hat"],
        "P": {s: v for s, v in res["P_hat"].items()},
        "working_prec": res["working_prec"],
    }
    code = EXIT_PASS if (ok_res and den["pass"]) else EXIT_FAIL
    return code, report, None


def _cmd_slope_s(args):
    q0 = parse_rat(args.q)
    est = slope_S(args.A, args.r, args.eps, q0, _parse_nrange(args.n), args.prec)
    rep = _slope_report(est, {"command": "slope-S"})
    code = EXIT_PASS
    if args.max_gap is not None and float(est.rel_gap) > args.max_gap:
        code = EXIT_FAIL
    return code, rep, list(est.to_csv_rows())


def _cmd_slope_p(args):
    q0 = parse_rat(args.q)
    est = slope_P(args.A, args.r, args.eps, q0, _parse_nrange(args.n),
                  args.prec, margin=args.margin)
    violations = est.extras["violations"]
    rep = _slope_report(est, {
        "command": "slope-P",
        "margin": args.margin,
        "violations": violations,
    })
    return (EXIT_PASS if not violations else EXIT_FAIL), rep, list(est.to_csv_rows())


def _cmd_slope_d(args):
    q0 = parse_rat(args.q)
    est = slope_D(args.A, args.r, q0, _parse_nrange(args.n), args.prec)
    tgt = mpf(est.target)
    last_gap = abs(mpf(est.last) - tgt) / abs(tgt)
    rep = _slope_report(est, {"command": "slope-D", "last_gap": last_gap})
    code = EXIT_PASS
    if args.max_gap is not None and float(last_gap) > args.max_gap:
        code = EXIT_FAIL
    return code, rep, list(est.to_csv_rows())


def _cmd_delta(args):
    val = delta(args.A, args.r, args.prec)
    best_r, best_val = delta_best_r(args.A)
    rep = {
        "command": "delta",
        "A": args.A, "r": args.r,
        "delta": val,
        "exceeds_one": bool(val > 1),
        "best_r": best_r,
        "best_delta": best_val,
    }
    return EXIT_PASS, rep, None


def _cmd_delta_const(args):
    const, ustar = delta_asymptotic_constant(args.prec)
    grid = delta_constant_grid_max(args.prec)
    diff = abs(const - grid)
    rep = {
        "command": "delta-const",
        "closed_form": const,
        "maximizer": ustar,
        "grid_max": grid,
        "difference": diff,
    }
    code = EXIT_PASS if diff < mpf(10) ** -8 else EXIT_FAIL
    return code, rep, None


def _cmd_zeta3(args):
    q0 = parse_rat(args.q)
    tol = mpf(10) ** (-args.tol)
    ball = qball_numeric(args.n, q0, args.prec)
    bgn = qbgn_numeric(args.n, q0, args.prec)
    diff = abs(ball - bgn)
    ok = diff < tol
    rep = {
        "command": "zeta3",
        "n": args.n,
        "q": format_rat(q0),
        "ball": ball,
        "bgn": bgn,
        "diff": diff,
    }
    if q0 > 0:
        ident = zeta3_identity_residual(args.n, q0, args.prec)
        probe = dbar_probe([args.n], q0)
        row = probe["rows"][0]
        ok = ok and ident["residual"] < tol
        rep.update({
            "A_num": str(ident["A"].numerator),
            "A_den": str(ident["A"].denominator),
            "B_num": str(ident["B"].numerator),
            "B_den": str(ident["B"].denominator),
            "residual": ident["residual"],
            "dbar_m": row["m"],
            "dbar_slope": row["slope"],
        })
    return (EXIT_PASS if ok else EXIT_FAIL), rep, None


def _cmd_eisenstein(args):
    weight = args.weight
    pairs = monomial_basis(weight)
    if not pairs:
        raise ValueError(f"weight {weight} has an empty E_4/E_6 basis")
    n_solve = args.solve if args.solve is not None else len(pairs)
    n_verify = args.verify if args.verify is not None else n_solve + 40
    target = eisenstein_expansion(weight // 2, n_verify)
    try:
        expr = express_in_E4_E6(weight, target, n_solve, n_verify)
    except InconsistentSystemError as exc:
        rep = {"command": "eisenstein", "weight": weight, "error": str(exc)}
        return EXIT_FAIL, rep, None
    rep = {
        "command": "eisenstein",
        "weight": expr["weight"],
        "basis": [{"a": row["a"], "b": row["b"], "c": format_rat(row["c"])}
                  for row in expr["basis"]],
        "solved_on": expr["solved_on"],
        "verified_to": expr["verified_to"],
    }
    return EXIT_PASS, rep, None


def _cmd_denom_probe(args):
    rows = []
    for n in _parse_nrange(args.n):
        for eps in (0, 1):
            params = Params(args.A, args.r, n, eps)
            sharp = denominator_sharpness_probe(params)
            rows.append({
                "n": n, "eps": eps,
                "exact_pass": bool(denominator_check(params)["pass"]),
                "sharpness_all_pass": bool(sharp["all_pass"]),
                "sharpness_failing_s": sharp["failing_s"],
            })
        conj = denominator_conjecture_probe(Params(args.A, args.r, n, 1))
        rows.append({
            "n": n, "eps": "both",
            "conjecture_all_pass": bool(conj["all_pass"]),
            "conjecture_failing": {e: sorted(s for s, ok in per.items() if not ok)
                                   for e, per in conj["per_eps"].items()},
        })
    rep = {
        "command": "denom-probe",
        "A": args.A, "r": args.r,
        "rows": rows,
    }
    csv_rows = [("n", "eps", "kind", "pass", "failing")]
    for row in rows:
        if "exact_pass" in row:
            csv_rows.append((row["n"], row["eps"], "exact", row["exact_pass"], ""))
            csv_rows.append((row["n"], row["eps"], "sharpness",
                             row["sharpness_all_pass"],
                             ";".join(map(str, row["sharpness_failing_s"]))))
        else:
            csv_rows.append((row["n"], row["eps"], "conjecture",
                             row["conjecture_all_pass"],
                             json.dumps(_jsonable(row["conjecture_failing"]))))
    return EXIT_PASS, rep, csv_rows     # probe: informative, never failing


# ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prec", type=int, default=_default_prec(),
                   help="working precision in bits (env QZETA_PREC)")
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="json")
    p.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact and certified-numeric verification of linear "
                    "forms in q-zeta values.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linform", help="point identity + integrality at one (A,r,n,eps,q)")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=int, default=1, choices=(0, 1))
    p.add_argument("--q", required=True, help="exact rational, e.g. 1/3")
    p.add_argument("--tol", type=int, default=40, help="pass iff residual < 10^-tol")
    _add_common(p)
    p.set_defaults(func=_cmd_linform)

    p = sub.add_parser("slope-S", help="growth rate of the symmetrized series")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=int, default=1, choices=(0, 1))
    p.add_argument("--q", required=True)
    p.add_argument("--n", required=True, help="range a..b")
    p.add_argument("--max-gap", type=float, default=None,
                   help="fail (exit 1) if |fitted-target|/|target| exceeds this")
    _add_common(p)
    p.set_defaults(func=_cmd_slope_s)

    p = sub.add_parser("slope-P", help="growth bound for the coefficient polynomials")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=int, default=1, choices=(0, 1))
    p.add_argument("--q", required=True)
    p.add_argument("--n", required=True, help="range a..b")
    p.add_argument("--margin", type=float, default=0.02)
    _add_common(p)
    p.set_defaults(func=_cmd_slope_p)

    p = sub.add_parser("slope-D", help="growth rate of the clearing denominator")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n", required=True, help="range a..b")
    p.add_argument("--max-gap", type=float, default=None,
                   help="fail (exit 1) if the last-point relative gap exceeds this")
    _add_common(p)
    p.set_defaults(func=_cmd_slope_d)

    p = sub.add_parser("delta", help="dimension bound delta(A, r)")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("delta-const", help="asymptotic constant sup_r delta/sqrt(A)")
    _add_common(p)
    p.set_defaults(func=_cmd_delta_const)

    p = sub.add_parser("zeta3", help="weight-3 series pair and exact decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--tol", type=int, default=40)
    _add_common(p)
    p.set_defaults(func=_cmd_zeta3)

    p = sub.add_parser("eisenstein", help="expand E_weight over the E_4/E_6 basis")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--solve", type=int, default=None,
                   help="coefficients used for the solve (default: basis size)")
    p.add_argument("--verify", type=int, default=None,
                   help="verify through this coefficient (default: solve+40)")
    _add_common(p)
    p.set_defaults(func=_cmd_eisenstein)

    p = sub.add_parser("denom-probe", help="denominator sharpness / reduced-power probe")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", required=True, help="range a..b")
    _add_common(p)
    p.set_defaults(func=_cmd_denom_probe)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.prec < 16:
        print("invalid input: --prec must be >= 16", file=sys.stderr)
        return EXIT_INVALID
    try:
        code, report, csv_rows = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PrecisionError, DivergenceError) as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    _emit(report, args.format, args.out, csv_rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
