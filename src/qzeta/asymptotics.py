"""Growth-rate verification and the dimension-bound arithmetic.

Every object here revolves around slopes: the empirical quantities
(1/n^2) log |x_n| for the series values, the coefficient polynomials and
the clearing denominators, compared against their closed-form limits.
The same three limits recombine into the dimension bound delta(A, r),
which is also computed in exact rational arithmetic in 1/pi^2 so the
recombination can be checked with zero tolerance.

numpy is imported inside fit_limit, not here: it is the one numpy call of
the package, only the slope commands reach it, and importing numpy is
most of the time `import qzeta.cli` would otherwise take.

Conventions: q0 is an exact rational with 0 < |q0| < 1; L denotes
log|1/q0|; all slope targets are linear in L.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from .linform import (
    D_exponent,
    Params,
    P_eps_values_hat,
    S_eps_hat_numeric,
    _check_q0,
)
from .qcomb import cyclotomic
from .series import DEFAULT_PREC, PrecisionError, Record, working_prec

__all__ = [
    "SlopeEstimate",
    "delta",
    "delta_asymptotic_constant",
    "delta_best_r",
    "delta_constant_grid_max",
    "delta_exact_pair",
    "fit_limit",
    "log_abs_fraction",
    "slope_D",
    "slope_P",
    "slope_S",
    "verify_delta_recombination",
]


# ----------------------------------------------------------------------
# Small numeric helpers.

def log_abs_fraction(x: Fraction) -> mpf:
    """log|x| for an exact rational, without building a float of x."""
    if x == 0:
        raise ValueError("log of zero")
    return mp.log(mpf(abs(x.numerator))) - mp.log(mpf(x.denominator))


def _log_inv_q(q0: Fraction) -> mpf:
    """L = log|1/q0| > 0 for 0 < |q0| < 1."""
    return -log_abs_fraction(_check_q0(q0))


def fit_limit(points) -> float:
    """Least-squares limit of value(n) = L + a/n + b*log(n)/n^2.

    Fitted on the largest third of the points (the small-n region is
    dominated by unmodeled corrections).  Returns the intercept L.

    numpy is imported here, on the first fit, so that importing the
    package and every command but slope-S, slope-P and slope-D never load
    it (about 0.1 s of a cold start).  The point count is tested first,
    here as well as in _slope_ns: slope_P drops an n whose values all
    vanish.
    """
    pts = sorted(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit")
    import numpy as np

    tail = pts[-max(3, len(pts) // 3):]
    ns = np.array([float(n) for n, _ in tail])
    ys = np.array([float(v) for _, v in tail])
    design = np.column_stack([np.ones_like(ns), 1.0 / ns, np.log(ns) / ns**2])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coef[0])


class SlopeEstimate(Record):
    """Empirical (1/n^2) log-growth against a closed-form target.

    points are (n, value) with strictly increasing n; `fitted` is the
    extrapolated limit, `last` the raw final point; the relative gap is
    |fitted - target| / |target| (None when the target vanishes);
    `extras` is None or a dict of what the estimator adds.
    """

    __slots__ = ("label", "points", "target", "fitted", "last", "rel_gap", "extras")
    _defaults = (None,)

    def _check(self):
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("points must be strictly increasing in n")

    def to_csv_rows(self):
        yield ("n", "value", "target", "gap")
        for n, v in self.points:
            yield (n, mp.nstr(mpf(v), 17), mp.nstr(mpf(self.target), 17),
                   mp.nstr(mpf(v) - mpf(self.target), 17))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "target": mp.nstr(mpf(self.target), 20),
            "fitted": mp.nstr(mpf(self.fitted), 20),
            "last": mp.nstr(mpf(self.last), 20),
            "rel_gap": (None if self.rel_gap is None
                        else mp.nstr(mpf(self.rel_gap), 10)),
            "points": [[n, mp.nstr(mpf(v), 17)] for n, v in self.points],
        }


def _slope_ns(n_range) -> list:
    """The n of a slope range, checked before any work: every n >= 1, and
    at least the 3 that fit_limit needs."""
    ns = list(n_range)
    low = min(ns, default=1)
    if low < 1:
        raise ValueError(f"slope needs n >= 1, got {low}")
    if len(ns) < 3:
        raise ValueError("need at least 3 points to fit")
    return ns


def _make_estimate(label, pts, target, extras=None) -> SlopeEstimate:
    fitted = mpf(fit_limit(pts))
    last = mpf(pts[-1][1])
    gap = None if target == 0 else abs((fitted - target) / target)
    return SlopeEstimate(label, tuple(pts), target, fitted, last, gap, extras)


# ----------------------------------------------------------------------
# Slopes of the three ingredients.

def slope_S(A: int, r: int, eps: int, q0: Fraction, n_range,
            prec: int = DEFAULT_PREC) -> SlopeEstimate:
    """(1/n^2) log |S_n^[eps](q0)| against -(1/2) r (A-2r) L.

    The target degenerates to 0 at A = 2r (excluded: the symmetrized
    series is identically zero for eps = 1 there and the limit statement
    requires a nonzero value).
    """
    ns = _slope_ns(n_range)
    q0 = Fraction(q0)
    if A == 2 * r:
        raise ValueError("A = 2r excluded: the slope target degenerates to 0")
    target = -Fraction(r * (A - 2 * r), 2) * _log_inv_q(q0)
    pts = []
    with mp.workprec(working_prec(prec)):
        log_q = log_abs_fraction(q0)
        for n in ns:
            v = S_eps_hat_numeric(Params(A, r, n, eps), q0, prec)
            if v == 0:
                raise PrecisionError(f"series value vanished at n={n}; "
                                     "raise the working precision")
            # S_n = q0^(-(A-2r)n/4) times the hat value: log |S_n| needs
            # no root of a negative q0
            lv = mp.log(abs(v)) - Fraction((A - 2 * r) * n, 4) * log_q
            pts.append((n, lv / n**2))
    return _make_estimate(f"S[{eps}] slope (A={A}, r={r}, q={q0})",
                          pts, target)


def slope_P(A: int, r: int, eps: int, q0: Fraction, n_range,
            prec: int = DEFAULT_PREC, margin: float = 0.02) -> SlopeEstimate:
    """Upper-bound check: every sampled (1/n^2) log |P_s^[eps](q0)|
    against (1/8)(A + 4 r^2) L.

    The tracked curve is the per-n maximum over s (s = 0 and the parity
    family); `extras` carries the per-(n, s) samples and any bound
    violations beyond `margin` (expected none; the fitted limit is
    expected to approach the bound from below).  A = 2 with eps = 1 is
    excluded: P_0^[1] vanishes there and no odd s lies in 2..A, so there
    is no point to fit.
    """
    ns = _slope_ns(n_range)
    q0 = Fraction(q0)
    if A == 2 and eps == 1:
        raise ValueError("A = 2, eps = 1 excluded: every P_s^[1] is 0 there")
    bound = Fraction(A + 4 * r * r, 8) * _log_inv_q(q0)
    pts = []
    samples = {}
    violations = []
    with mp.workprec(working_prec(prec)):
        for n in ns:
            p0, ps = P_eps_values_hat(A, r, n, eps, q0)
            # true normalization: q0^(-(A-2r)n/4) times the hat value
            pref = Fraction(-(A - 2 * r) * n, 4) * log_abs_fraction(q0)
            best = None
            for s, val in [(0, p0)] + list(ps):
                if val == 0:
                    continue
                lv = (log_abs_fraction(val) + pref) / n**2
                samples[(n, s)] = lv
                if lv > bound + margin:
                    violations.append((n, s, lv))
                if best is None or lv > best:
                    best = lv
            if best is not None:
                pts.append((n, best))
    return _make_estimate(
        f"P[{eps}] max slope (A={A}, r={r}, q={q0})", pts, bound,
        extras={"samples": samples, "violations": violations,
                "margin": margin})


def slope_D(A: int, r: int, q0: Fraction, n_range,
            prec: int = DEFAULT_PREC) -> SlopeEstimate:
    """(1/n^2) log |D_n(q0)| against (3A/pi^2 + A/8 + r^2/2) L.

    Evaluated through the factored form — log (A-1)! + E log|q0| +
    A sum_l log |Phi_l(1/q0)| — so no huge polynomial is expanded.
    """
    ns = _slope_ns(n_range)
    Params(A, r, 0)  # validates (A, r)
    q0 = Fraction(q0)
    L = _log_inv_q(q0)
    with mp.workprec(working_prec(prec)):
        pi2 = mp.pi**2
        target = (3 * A / pi2 + mpf(A) / 8 + mpf(r * r) / 2) * L
        logfac = mp.log(mpf(factorial(A - 1)))
        logq = log_abs_fraction(q0)
        qinv = 1 / q0
        pts = []
        acc = mpf(0)  # log |d_n(1/q0)| accumulated over cyclotomic factors
        n_prev = 0
        for n in sorted(ns):
            for l in range(n_prev + 1, n + 1):
                acc += log_abs_fraction(cyclotomic(l).eval_fraction(qinv))
            n_prev = n
            e = D_exponent(A, r, n)
            val = (logfac + mpf(e.numerator) / e.denominator * logq
                   + A * acc)
            pts.append((n, val / n**2))
    return _make_estimate(f"D_n slope (A={A}, r={r}, q={q0})", pts, target)


# ----------------------------------------------------------------------
# The dimension bound delta(A, r).

def delta(A: int, r: int, prec: int = DEFAULT_PREC) -> mpf:
    """delta(A, r) = (4rA + A - 4r^2) / ((24/pi^2 + 2) A + 8 r^2)."""
    Params(A, r, 0)  # validates (A, r)
    with mp.workprec(working_prec(prec)):
        pi2 = mp.pi**2
        return mpf(4 * r * A + A - 4 * r * r) / ((24 / pi2 + 2) * A
                                                 + 8 * r * r)


def delta_best_r(A: int, prec: int = DEFAULT_PREC):
    """(r_best, delta(A, r_best)) over r in 1..A/2, the first maximum.

    delta(A, r) is unimodal in r: its r-derivative has the sign of
    cA - 8r^2 - (2c + 4)r, c = 24/pi^2 + 2, so over the reals it peaks at
    r* = (-(2c + 4) + sqrt((2c + 4)^2 + 32cA))/16 < A/2.  Only the
    integers from floor(r*) - 1 to ceil(r*) + 1 in 1..A/2 are compared.
    """
    Params(A, 1, 0)  # validates A
    with mp.workprec(working_prec(prec, A.bit_length())):
        c = 24 / mp.pi**2 + 2
        rstar = (-(2 * c + 4) + mp.sqrt((2 * c + 4) ** 2 + 32 * c * A)) / 16
        lo, hi = int(mp.floor(rstar)) - 1, int(mp.ceil(rstar)) + 1
    best = None
    for r in range(max(lo, 1), min(hi, A // 2) + 1):
        v = delta(A, r, prec)
        if best is None or v > best[1]:
            best = (r, v)
    return best


def delta_exact_pair(A: int, r: int):
    """delta(A, r) as an exact pair of linear forms in x = 1/pi^2:

        ((a0, a1), (b0, b1))  meaning  (a0 + a1 x) / (b0 + b1 x),

    with Fraction entries.  This is the zero-tolerance side of the
    recombination check.
    """
    Params(A, r, 0)  # validates (A, r)
    num = (Fraction(4 * r * A + A - 4 * r * r), Fraction(0))
    den = (Fraction(2 * A + 8 * r * r), Fraction(24 * A))
    return num, den


def verify_delta_recombination(A: int, r: int) -> bool:
    """Zero-tolerance identity: the slope targets recombine into delta.

    With x = 1/pi^2 and L = log|1/q| (L cancels), the three targets are
        alpha_S = -r(A-2r)/2          (series slope)
        C       = (A + 4r^2)/8        (coefficient bound)
        D       = A/8 + r^2/2 + 3A x  (denominator slope)
    and the bound 1 - alpha/beta with alpha = alpha_S + D, beta = C + D
    must equal delta(A, r) as a rational function of x.  Cross-multiplied
    over Q[x], checked coefficientwise.
    """
    Params(A, r, 0)  # validates (A, r)
    alpha_s = (Fraction(-r * (A - 2 * r), 2), Fraction(0))
    cbound = (Fraction(A + 4 * r * r, 8), Fraction(0))
    dslope = (Fraction(A, 8) + Fraction(r * r, 2), Fraction(3 * A))
    alpha = (alpha_s[0] + dslope[0], alpha_s[1] + dslope[1])
    beta = (cbound[0] + dslope[0], cbound[1] + dslope[1])
    top = (beta[0] - alpha[0], beta[1] - alpha[1])   # beta - alpha
    dnum, dden = delta_exact_pair(A, r)
    # (beta - alpha) * dden == dnum * beta in Q[x] (degree <= 2)
    lhs = (top[0] * dden[0],
           top[0] * dden[1] + top[1] * dden[0],
           top[1] * dden[1])
    rhs = (dnum[0] * beta[0],
           dnum[0] * beta[1] + dnum[1] * beta[0],
           dnum[1] * beta[1])
    return lhs == rhs


def delta_asymptotic_constant(prec: int = DEFAULT_PREC):
    """The large-A limit sup_r delta(A, r)/sqrt(A): closed form
    pi / (2 sqrt(pi^2 + 12)), attained along r ~ u* sqrt(A).

    Returns (constant, u_star) with u* = sqrt((24/pi^2 + 2)/8).
    """
    with mp.workprec(working_prec(prec)):
        pi2 = mp.pi**2
        const = mp.pi / (2 * mp.sqrt(pi2 + 12))
        u_star = mp.sqrt((24 / pi2 + 2) / 8)
        return const, u_star


def _first_argmax(f, last: int) -> int:
    """The first i in 0..last where f(i) is largest, for an f that
    increases strictly up to its largest value and falls strictly after
    it, two equal values at the top allowed: a discrete ternary search,
    then the first max over the last interval widened by 2 on each side.
    When f(i) < f(j), i < j, the first argmax lies above i; otherwise it
    lies below j.  So the search alone finds the full scan's index; the
    widened window is a margin for a value near the top that rounding
    puts out of order."""
    lo, hi = 0, last
    while hi - lo > 2:
        third = (hi - lo) // 3
        if f(lo + third) < f(hi - third):
            lo += third + 1
        else:
            hi -= third + 1
    return max(range(max(lo - 2, 0), min(hi + 2, last) + 1), key=f)


def delta_constant_grid_max(prec: int = DEFAULT_PREC) -> mpf:
    """Independent numeric maximization of f(u) = 4u/(c + 8u^2),
    c = 24/pi^2 + 2: the best of 4001 grid points u_i over [0.05, 4],
    then at most 200 golden-section steps between its neighbours, which
    stop once they are less than 2^(-max(prec, 53)//2) apart: a width of
    2^(-prec//2) at prec 16 leaves f(u) 3e-8 below the maximum.  Oracle
    for the closed form.

    The grid point is the first maximum of a full scan, found by
    _first_argmax in about 50 evaluations of f.  f is strictly unimodal:
    f'(u) = 4(c - 8u^2)/(c + 8u^2)^2 is positive below u* = sqrt(c/8) and
    negative above it, so the exact f(u_i) rise strictly to the grid point
    left of u* and fall strictly from the one right of it.  Two adjacent
    values other than that pair differ by at least about |f''(u*)| h^2/2
    = 3e-7 (h the grid step), and f is evaluated at 33 bits or more
    (working_prec(1)), so their rounded values keep that order and only
    the pair around u* can come out equal or swapped: the search returns
    the scan's index."""
    with mp.workprec(working_prec(prec)):
        pi2 = mp.pi**2
        c = 24 / pi2 + 2

        def f(u):
            return 4 * u / (c + 8 * u * u)

        grid = 4000
        lo_m = mpf(0.05)
        step = (mpf(4) - lo_m) / grid
        best_i = _first_argmax(lambda i: f(lo_m + i * step), grid)
        a = lo_m + max(best_i - 1, 0) * step
        b = lo_m + min(best_i + 1, grid) * step
        invphi = (mp.sqrt(5) - 1) / 2
        c1 = b - invphi * (b - a)
        c2 = a + invphi * (b - a)
        f1, f2 = f(c1), f(c2)
        for _ in range(200):
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + invphi * (b - a)
                f2 = f(c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - invphi * (b - a)
                f1 = f(c1)
            if b - a < mpf(2) ** (-max(prec, 53) // 2):
                break
        u = (a + b) / 2
        return f(u)
