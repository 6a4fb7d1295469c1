"""Batch command-line front end.

Every verification in the library is exposed as a subcommand with
machine-readable output (json, csv, or pretty text).  q is always an
exact rational string like "1/3" (decimals are rejected; a negative one
may follow --q as a separate word, "--q -1/2"), n-ranges are
written "a..b", and the seven commands that compute at a working
precision take it as --prec (bits; the exact eisenstein and denom-probe
have none).  Every integer, in an option or a range, is signed ASCII
decimal digits and nothing else.

Exit codes: 0 = pass, 1 = a verification failed, 2 = invalid input,
3 = precision exhausted.
"""

from __future__ import annotations

import argparse
import json
import re
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
from .eisenstein import InconsistentSystemError, express_in_E4_E6
from .linform import Params, denominator_probe, linear_form_report
from .series import DEFAULT_PREC, DivergenceError, PrecisionError
from .upoly import format_rat, parse_rat
from .zeta3 import zeta3_report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_PRECISION = 3

_DIGITS = 30   # fixed digit count for all float output: determinism
# far above every precision in the tests, the README and the goldens; a
# larger one would only run out of memory or time
_MAX_PREC = 1 << 20


_INT = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """A signed ASCII decimal integer: the grammar of parse_rat and of
    n ranges, so no '1_0' and no non-ASCII digits as int() allows.  As an
    argparse type its name is the one the error message gives."""
    if not _INT.fullmatch(text.strip()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


# float()'s grammar in ASCII: no '_', no non-ASCII digits, as for integer
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                      r"|inf(?:inity)?|nan)", re.IGNORECASE | re.ASCII)


def _limit(text: str, name: str) -> float:
    """The value of --margin or --max-gap: an ASCII decimal >= 0, inf
    included."""
    if not _DECIMAL.fullmatch(text.strip()):
        raise ValueError(f"{name} must be a decimal number, got {text!r}")
    limit = float(text)
    if not limit >= 0:  # NaN compares false
        raise ValueError(f"{name} must be >= 0, got {limit}")
    return limit


_NRANGE = re.compile(rf"({_INT.pattern})(?:\.\.({_INT.pattern}))?")


def _parse_nrange(text: str) -> range:
    """'a..b' (inclusive) or a single 'a'; signed ASCII decimal integers."""
    m = _NRANGE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"expected an n range like '2..40', got {text!r}")
    lo = int(m[1])
    hi = lo if m[2] is None else int(m[2])
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


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
        try:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _flatten_rows(report):
    rows = [("key", "value")]
    for key, v in _pretty_lines(report):
        if isinstance(v, list):
            v = ";".join(json.dumps(x) for x in v)
        rows.append((key, v))
    return rows


def _pretty_lines(report, prefix=""):
    for k, v in sorted(_jsonable(report).items()):
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _pretty_lines(v, prefix=f"{key}.")
        else:
            yield key, v


# ----------------------------------------------------------------------
# Subcommand implementations.  Each returns (exit_code, report, csv_rows);
# main adds the command's name to the report.

def _cmd_linform(args):
    rep = linear_form_report(Params(args.A, args.r, args.n, args.eps),
                             parse_rat(args.q), args.prec)
    ok_res = bool(rep["residual"] < mpf(10) ** (-args.tol))
    rep.update(tol_exponent=args.tol, residual_pass=ok_res)
    code = EXIT_PASS if (ok_res and rep["denominator_pass"]) else EXIT_FAIL
    return code, rep, None


def _gap_exit(gap, max_gap) -> int:
    """The --max-gap rule: fail when a limit is set and the gap exceeds it."""
    return EXIT_FAIL if max_gap is not None and float(gap) > max_gap else EXIT_PASS


def _cmd_slope_s(args):
    q0 = parse_rat(args.q)
    est = slope_S(args.A, args.r, args.eps, q0, _parse_nrange(args.n), args.prec)
    return _gap_exit(est.rel_gap, args.max_gap), est.to_json(), list(est.to_csv_rows())


def _cmd_slope_p(args):
    q0 = parse_rat(args.q)
    est = slope_P(args.A, args.r, args.eps, q0, _parse_nrange(args.n),
                  args.prec, margin=args.margin)
    violations = est.extras["violations"]
    rep = {**est.to_json(), "margin": args.margin, "violations": violations}
    return (EXIT_PASS if not violations else EXIT_FAIL), rep, list(est.to_csv_rows())


def _cmd_slope_d(args):
    q0 = parse_rat(args.q)
    est = slope_D(args.A, args.r, q0, _parse_nrange(args.n), args.prec)
    tgt = mpf(est.target)
    last_gap = abs(mpf(est.last) - tgt) / abs(tgt)
    rep = {**est.to_json(), "last_gap": last_gap}
    return _gap_exit(last_gap, args.max_gap), rep, list(est.to_csv_rows())


def _cmd_delta(args):
    val = delta(args.A, args.r, args.prec)
    best_r, best_val = delta_best_r(args.A, args.prec)
    rep = {
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
        "closed_form": const,
        "maximizer": ustar,
        "grid_max": grid,
        "difference": diff,
    }
    code = EXIT_PASS if diff < mpf(10) ** -8 else EXIT_FAIL
    return code, rep, None


def _cmd_zeta3(args):
    rep = zeta3_report(args.n, parse_rat(args.q), args.prec)
    tol = mpf(10) ** (-args.tol)
    ok = rep["diff"] < tol and rep.get("residual", 0) < tol
    return (EXIT_PASS if ok else EXIT_FAIL), rep, None


def _cmd_eisenstein(args):
    try:
        expr = express_in_E4_E6(args.weight, n_solve=args.solve, n_verify=args.verify)
    except InconsistentSystemError as exc:
        return EXIT_FAIL, {"weight": args.weight, "error": str(exc)}, None
    return EXIT_PASS, expr, None


def _cmd_denom_probe(args):
    rows = denominator_probe(args.A, args.r, _parse_nrange(args.n))
    rep = {
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
# The command line as data.  _OPTIONS declares each option once, as its
# flag and its add_argument keywords; a flag that means two things (--n a
# point or a range, --max-gap on the fit or on the last point) has two
# entries.  _COMMANDS gives each command's name, help, handler and
# options, in that order; every command also takes _COMMON.

_REQUIRED_INT = {"type": integer, "required": True}
_OPTIONS = {
    "A": ("--A", _REQUIRED_INT),
    "r": ("--r", _REQUIRED_INT),
    "n": ("--n", _REQUIRED_INT),
    "n-range": ("--n", {"required": True, "help": "range a..b"}),
    "eps": ("--eps", {"type": integer, "default": 1, "choices": (0, 1)}),
    "q": ("--q", {"required": True, "help": "exact rational, e.g. 1/3"}),
    "tol": ("--tol", {"type": integer, "default": 40, "help": "pass iff residual < 10^-tol"}),
    "fit-gap": ("--max-gap", {
        "help": "fail (exit 1) if |fitted-target|/|target| exceeds this"}),
    "last-gap": ("--max-gap", {
        "help": "fail (exit 1) if the last-point relative gap exceeds this"}),
    "margin": ("--margin", {"default": "0.02"}),
    "weight": ("--weight", _REQUIRED_INT),
    "solve": ("--solve", {"type": integer,
                          "help": "coefficients used for the solve (default: basis size)"}),
    "verify": ("--verify", {"type": integer,
                            "help": "verify through this coefficient (default: solve+40)"}),
    "prec": ("--prec", {"type": integer, "default": DEFAULT_PREC,
                        "help": f"working precision in bits (default: {DEFAULT_PREC})"}),
    "format": ("--format", {"choices": ("json", "csv", "pretty"), "default": "json"}),
    "out": ("--out", {"help": "write output to this path"}),
}
_COMMON = ("format", "out")

_COMMANDS = (
    ("linform", "point identity + integrality at one (A,r,n,eps,q)", _cmd_linform,
     ("A", "r", "n", "eps", "q", "tol", "prec")),
    ("slope-S", "growth rate of the symmetrized series", _cmd_slope_s,
     ("A", "r", "eps", "q", "n-range", "fit-gap", "prec")),
    ("slope-P", "growth bound for the coefficient polynomials", _cmd_slope_p,
     ("A", "r", "eps", "q", "n-range", "margin", "prec")),
    ("slope-D", "growth rate of the clearing denominator", _cmd_slope_d,
     ("A", "r", "q", "n-range", "last-gap", "prec")),
    ("delta", "dimension bound delta(A, r)", _cmd_delta, ("A", "r", "prec")),
    ("delta-const", "asymptotic constant sup_r delta/sqrt(A)", _cmd_delta_const, ("prec",)),
    ("zeta3", "weight-3 series pair and exact decomposition", _cmd_zeta3,
     ("n", "q", "tol", "prec")),
    ("eisenstein", "expand E_weight over the E_4/E_6 basis", _cmd_eisenstein,
     ("weight", "solve", "verify")),
    ("denom-probe", "denominator sharpness / reduced-power probe", _cmd_denom_probe,
     ("A", "r", "n-range")),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact and certified-numeric verification of linear "
                    "forms in q-zeta values.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for key in options + _COMMON:
            flag, keywords = _OPTIONS[key]
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return ap


_NEGATIVE_RAT = re.compile(r"-\d+(/\d+)?")


def _join_negative_q(argv: list) -> list:
    """argparse takes '-1/2' after --q for an option; pass it as --q=-1/2."""
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] == "--q" and i + 1 < len(argv)
                and _NEGATIVE_RAT.fullmatch(argv[i + 1])):
            out.append("--q=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_negative_q(sys.argv[1:] if argv is None else list(argv)))
    try:
        prec = getattr(args, "prec", DEFAULT_PREC)
        if prec < 16:
            raise ValueError("--prec must be >= 16")
        if prec > _MAX_PREC:
            raise ValueError(f"--prec must be between 16 and {_MAX_PREC}")
        if getattr(args, "tol", 1) < 1:
            raise ValueError(f"--tol must be >= 1, got {args.tol}")
        for opt in ("max_gap", "margin"):
            text = getattr(args, opt, None)
            if text is not None:
                setattr(args, opt, _limit(text, "--" + opt.replace("_", "-")))
        code, report, csv_rows = args.func(args)
        report["command"] = args.command
        _emit(report, args.format, args.out, csv_rows)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PrecisionError, DivergenceError) as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    return code


if __name__ == "__main__":
    sys.exit(main())
