"""The weight-3 case study: two q-deformations of the classical
irrationality series for zeta(3) and their exact linear-form structure.

Two series are compared numerically:

  * ball-type:  (q;q)_n^2 sum_{k>n} (1 - q^(2k+n)) (q^(k-n);q)_n
                (q^(1+k+n);q)_n / (q^k;q)_{n+1}^4 q^(k(n+1)),
    the symmetrized kernel series of (A, r, eps) = (4, 1, 1), which
    linform.S_eps_hat_numeric sums;
  * derivative-type:  q^(n(n+1))/log q * sum_{k>n} d/dk [q^k W_n(q^k)],
                W_n(T) = (q^(-n) T;q)_n^2 / (T;q)_{n+1}^2,
    summed here, independently of the kernel series,

where the k-derivative is evaluated analytically through logarithmic
differentiation in T (chain rule with dT/dk = log q * T), so the log q
cancels and both sides are algebraic in the summand.

The derivative series decomposes exactly over the order-2 partial
fractions of W_n:  (1/log q) sum_k d/dk [q^k W_n(q^k)] =
A_n(q) zeta_q(3) - B_n(q), with A_n, B_n explicit rational functions.
The module verifies that identity numerically, the partial-fraction
structure exactly, and probes the minimal cyclotomic denominator
clearing A_n and B_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .asymptotics import log_abs_fraction
from .linform import Params, S_eps_hat_numeric, _check_q0, _cleared, _inv_clearer, zeta_q
from .qcomb import QFrac, cyclotomic
from .series import (
    DEFAULT_PREC,
    MAX_TERMS,
    PONE,
    FractionRing,
    Kernel,
    PrecisionError,
    Record,
    UPolyRing,
    from_mpf,
    padd,
    pdiv,
    pf_extract,
    pf_reconstruct,
    pmul,
    pmul_int,
    ppow,
    psub,
    sum_with_tail,
    working_prec,
)

__all__ = [
    "Zeta3Kernel",
    "classical_ball",
    "dbar_probe",
    "qball_numeric",
    "qbgn_numeric",
    "zeta3_form",
    "zeta3_form_values",
    "zeta3_identity_residual",
    "zeta3_partial_fractions",
    "zeta3_reconstruction_check",
    "zeta3_report",
]


# ----------------------------------------------------------------------
# Exact order-2 partial fractions of W_n(T) = (q^-n T;q)_n^2/(T;q)_{n+1}^2.

def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def _w_kernel(n: int) -> Kernel:
    """The numerator (q^(-n) T; q)_n^2 of W_n, by its linear factors."""
    _check_n(n)
    return Kernel(exps=tuple(i - n for i in range(n)) * 2)


class Zeta3Kernel(Record):
    """Order-2 partial fractions of W_n as pf_extract returns them:
    rows[j] = {1: b_j, 2: a_j} with W_n(T) = sum_j a_j/(1 - q^j T)^2
    + b_j/(1 - q^j T), exact QFrac entries."""

    __slots__ = ("n", "rows")

    def residue_sum(self) -> QFrac:
        """sum_j b_j q^(-j), the negated residue at infinity; must be 0."""
        return UPolyRing.pole_sums(self.rows, self.n, 2).at_one(1).reduced()


@lru_cache(maxsize=None)
def zeta3_partial_fractions(n: int) -> Zeta3Kernel:
    return Zeta3Kernel(n, tuple(pf_extract(_w_kernel(n), n + 1, 2, UPolyRing)))


def zeta3_reconstruction_check(n: int) -> bool:
    """Exact identity: the order-2 partial fractions re-sum to W_n."""
    rows = zeta3_partial_fractions(n).rows
    return pf_reconstruct(_w_kernel(n).dense(), rows, n + 1, 2)


# ----------------------------------------------------------------------
# The exact linear-form coefficients A_n, B_n.

def _z3_assemble(rows, n: int, ring):
    """(A_n, B_n) of zeta3_form from the order-2 partial fractions
    rows[j] = {1: b_j, 2: a_j} in the fraction field of either exact
    ring.  The inner k-sums are the running sums

        G_3(j) = sum_{k=1..j} q^k (1 + q^k)/(1-q^k)^3,
        G_2(j) = sum_{k=1..j} q^k /(1-q^k)^2,

    so B_n = sum_{j=1..n} q^(-j) (a_j G_3(j) + b_j G_2(j)).
    """
    sums = ring.pole_sums(rows, n, 3)
    a_total = sums.at_one(2)
    b_total = sums.cumulative({2: (1, (1, 2), 3), 1: (1, (1,), 2)})
    return sums.value(a_total), sums.value(b_total)


@lru_cache(maxsize=None)
def zeta3_form(n: int):
    """(A_n, B_n) as reduced QFrac:

        A_n = sum_j a_j q^(-j),
        B_n = sum_{j=1..n} sum_{k=1..j} [ a_j q^(k-j) (1 + q^k)/(1-q^k)^3
                                        + b_j q^(k-j) /(1-q^k)^2 ].
    """
    a_total, b_total = _z3_assemble(zeta3_partial_fractions(n).rows, n, UPolyRing)
    return a_total.reduced(), b_total.reduced()


@lru_cache(maxsize=None)
def zeta3_form_values(n: int, q0: Fraction):
    """(A_n(q0), B_n(q0)) exact Fractions, from the partial fractions at
    q0 (fast specialized route); q0 = 0, 1 and -1 raise ValueError."""
    ring = FractionRing(q0)
    return _z3_assemble(pf_extract(_w_kernel(n), n + 1, 2, ring), n, ring)


# ----------------------------------------------------------------------
# Numeric series with certified tails.

def qball_numeric(n: int, q0, prec: int = DEFAULT_PREC) -> mpf:
    """The ball-type series of the module docstring.  Its summand is the
    (4, 1) integer-power kernel summand times the bracket 1 - q^(2k+n), so
    it is S_eps_hat_numeric(Params(4, 1, n, 1), q0, prec), bit for bit."""
    return S_eps_hat_numeric(Params(4, 1, n, 1), q0, prec)


def _bracket_factor(q: tuple, m: int, p: int):
    """(q^m, (1 - q^m)^2, 2 q^m/(1 - q^m)), kernel pairs at p bits, the
    factors of _w_log_deriv_bracket at the exponent m."""
    qm = ppow(q, m, p)
    f = psub(PONE, qm, p)
    return qm, pmul(f, f, p), pdiv(pmul_int(qm, 2, p), f, p)


def _w_log_deriv_bracket(n: int, window: list, p: int):
    """W_n(q^k) and the bracket 1 + T W'/W at T = q^k, k > n, kernel pairs
    at p bits.

    W'/W = -2 sum_{i<n} q^(i-n)/(1 - q^(i-n) T) + 2 sum_{i<=n} q^i/(1 - q^i T);
    each accumulated term below already carries the factor T = q^k.  window
    holds _bracket_factor(q, m, p) for the exponents m = k-n..k+n."""
    w = PONE
    s = (0, 0)
    for _, ff, g in window[:n]:
        w = pmul(w, ff, p)
        s = psub(s, g, p)
    for _, ff, g in window[n:]:
        w = pdiv(w, ff, p)
        s = padd(s, g, p)
    return w, padd(PONE, s, p)


def _bgn_terms(n: int, q: tuple, p: int):
    """The terms q^k W_n(q^k) [1 + q^k (W'/W)(q^k)] of _bgn_sum at q, kernel
    pairs at p bits, for k = n+1, n+2, ...; window holds the 2n+1 factor
    triples m = k-n..k+n and slides with k."""
    k = n + 1
    window = [_bracket_factor(q, m, p) for m in range(1, 2 * n + 2)]
    while True:
        w, br = _w_log_deriv_bracket(n, window, p)
        yield pmul(pmul(window[n][0], w, p), br, p)  # window[n][0] is q^k
        del window[0]
        k += 1
        window.append(_bracket_factor(q, k + n, p))


def qbgn_numeric(n: int, q0, prec: int = DEFAULT_PREC) -> mpf:
    """The derivative-type series, log q cancelled analytically:

        q^(n(n+1)) sum_{k>n} q^k W_n(q^k) [1 + q^k (W'/W)(q^k)].
    """
    _check_n(n)
    q0 = _check_q0(q0)
    with mp.workprec(working_prec(prec, 4 * n)):
        q = mpf(q0.numerator) / q0.denominator
        return q ** (n * (n + 1)) * _bgn_sum(n, q0, prec)


def _bgn_sum(n: int, q0: Fraction, prec: int) -> mpf:
    """The k-sum of qbgn_numeric without its q^(n(n+1)) monomial, its tail
    certified to 2^(-prec-1), at working_prec(prec, 4n)."""
    with mp.workprec(working_prec(prec, 4 * n)):
        p = mp.prec
        q = mpf(q0.numerator) / q0.denominator
        aq = abs(q)

        def bracket_bound(k):
            g = 2 * aq ** k * (n / (aq ** n * (1 - aq ** (k - n)))
                               + (n + 1) / (1 - aq ** k))
            return g

        def ratio(idx):
            k = n + 1 + idx
            g0, g1 = bracket_bound(k), bracket_bound(k + 1)
            if g0 >= 1:
                return mp.inf
            r = (aq
                 * ((1 + aq ** (k + 1)) / (1 - aq ** (k - n))) ** 2
                 * ((1 + aq ** k) / (1 - aq ** (k + n + 1))) ** 2
                 * (1 + g1) / (1 - g0))
            return math.nextafter(float(r), math.inf)

        return sum_with_tail(_bgn_terms(n, from_mpf(q), p), ratio,
                             mpf(2) ** (-prec - 1), limit=aq)


# ----------------------------------------------------------------------
# The identity  (1/log q) * derivative series = A_n zeta_q(3) - B_n.

def zeta3_identity_residual(n: int, q0, prec: int = DEFAULT_PREC) -> dict:
    """Residual of the exact decomposition at q = q0 in (0, 1):

        sum_{k>n} q^k W_n(q^k) [1 + q^k (W'/W)(q^k)] = A_n zeta_q(3) - B_n,

    the left side being the k-derivative series with the common log q
    factor cancelled (and without the q^(n(n+1)) monomial); the right
    side uses the exact A_n(q0), B_n(q0) and the certified zeta_q(3)
    sum.  Working precision is raised by the bit-size of the exact
    coefficients so the stated tolerance survives the cancellation.
    """
    _check_n(n)
    q0 = _check_q0(q0)
    working_prec(prec)  # rejects prec < 1 before the exact coefficients
    a_val, b_val = zeta3_form_values(n, q0)
    scale = max(_frac_bits(a_val), _frac_bits(b_val))
    prec_eff = prec + 24 + max(0, scale)
    with mp.workprec(working_prec(prec_eff, 4 * n)):
        lhs = _bgn_sum(n, q0, prec_eff)
        z3 = zeta_q(3, q0, prec_eff)
        rhs = (mpf(a_val.numerator) / a_val.denominator * z3
               - mpf(b_val.numerator) / b_val.denominator)
        residual = abs(lhs - rhs)
    return {
        "n": n,
        "q0": q0,
        "lhs": lhs,
        "rhs": rhs,
        "A": a_val,
        "B": b_val,
        "residual": residual,
        "working_prec": working_prec(prec_eff, 4 * n),
    }


def _frac_bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# ----------------------------------------------------------------------
# Denominator probe for A_n, B_n.

def dbar_probe(n_values, q0=Fraction(1, 2)) -> dict:
    """Minimal cyclotomic clearing of the weight-3 form coefficients.

    For each n, finds the smallest m <= 4 with d_n(1/q)^m A_n and
    d_n(1/q)^m B_n Laurent with integer coefficients, and the exponent
    shift e = -max positive power so q^e d_n(1/q)^m puts both in Z[1/q].
    Reports the growth of log|q0^e d_n(1/q0)^m| / n^2 in both
    normalizations — divided by log|1/q0| and raw — against 9/pi^2; the
    literature states the limit without the log factor, dimensional
    consistency suggests it, so neither is asserted.  q0 must satisfy
    0 < |q0| < 1 (ValueError otherwise).
    """
    q0 = _check_q0(q0)
    rows = []
    with mp.workprec(working_prec(DEFAULT_PREC)):
        L = -log_abs_fraction(q0)
        target_x = 9 / mp.pi ** 2
        for n in sorted(n_values):
            a_n, b_n = zeta3_form(n)
            found = None
            for m in range(5):
                dinv_m = _inv_clearer(dict.fromkeys(range(1, n + 1), m))
                ws = [_cleared(form, dinv_m) for form in (a_n, b_n)]
                if all(w is not None and w.only_even_exponents()
                       and w.coefficients_integral() for w in ws):
                    found = (m, -max([w.max_exp() // 2 for w in ws if not w.is_zero()] + [0]))
                    break
            if found is None:
                rows.append({"n": n, "m": None, "e": None, "slope": None,
                             "slope_over_L": None})
                continue
            m, e = found
            logd = sum((log_abs_fraction(cyclotomic(l).eval_fraction(1 / q0))
                        for l in range(1, n + 1)), mpf(0))
            val = e * log_abs_fraction(q0) + m * logd
            slope = val / n**2 if n else mpf(0)
            rows.append({
                "n": n, "m": m, "e": e,
                "slope": slope,
                "slope_over_L": slope / L,
            })
        return {
            "q0": q0,
            "rows": rows,
            "target_over_L": target_x,
            "target_times_L": target_x * L,
            "all_m": sorted({r["m"] for r in rows}),
        }


# ----------------------------------------------------------------------
# Classical degeneration oracle.

def classical_ball(n: int, prec: int = 64) -> mpf:
    """n!^2 sum_{k>n} (2k+n) (k-n)_n (k+n+1)_n / (k)_{n+1}^4, summed
    directly with an integral-comparison tail bound (terms decay like
    k^(-2n-3)).

    The sum stops at the first k with 2 t_k k/(p-1) < 2^-prec, p = 2n+3.
    Bounding each factor of t_k gives

        2 t_k k/(p-1) >= B(k) = 4 k^2 (k-n)^n / ((p-1) (k+n)^(3n+4)),

    and B rises then falls on k > n (the numerator of its log-derivative
    is -(2n+2) k^2 + 4n(n+1) k - 2n^2), so if B(n+1) and B(n+MAX_TERMS)
    are both >= 2^-prec the stop test cannot pass within MAX_TERMS terms,
    the cap of sum_with_tail, and PrecisionError is raised before any
    term.  Reaching the cap otherwise raises it too.
    """
    _check_n(n)
    wp = working_prec(prec)

    def cannot_stop(k):     # B(k) >= 2^-prec, in integers
        return (4 * k * k * (k - n) ** n << prec) >= (2 * n + 2) * (k + n) ** (3 * n + 4)

    last = n + MAX_TERMS
    if cannot_stop(n + 1) and cannot_stop(last):
        raise PrecisionError(f"classical_ball({n}, {prec}) needs more than "
                             f"{MAX_TERMS} terms")
    with mp.workprec(wp):
        tol = mpf(2) ** (-prec)
        total = mpf(0)
        k = n + 1
        p = 2 * n + 3
        while True:
            t = mpf(2 * k + n)
            for i in range(n):
                t *= (k - n + i) * (k + n + 1 + i)
            den = mpf(1)
            for i in range(n + 1):
                den *= k + i
            t /= den ** 4
            total += t
            # sum_{j>k} j^-p <= k^(1-p)/(p-1); terms ~ c k^-p
            if t * k / (p - 1) * 2 < tol:
                break
            if k >= last:
                raise PrecisionError(f"no certified tail after {MAX_TERMS} terms")
            k += 1
        return mpf(mp.factorial(n)) ** 2 * total


# ----------------------------------------------------------------------
# Consolidated report.

def zeta3_report(n: int, q0, prec: int = DEFAULT_PREC) -> dict:
    """Machine-readable summary for one (n, q0): the series pair and their
    difference, and for q0 > 0 the exact A_n, B_n, the identity residual
    and the dbar probe row.  Values are mpf (None for a missing slope)."""
    q0 = _check_q0(q0)
    ball = qball_numeric(n, q0, prec)
    bgn = qbgn_numeric(n, q0, prec)
    out = {"n": n, "q": str(q0), "ball": ball, "bgn": bgn, "diff": abs(ball - bgn)}
    if q0 > 0:
        ident = zeta3_identity_residual(n, q0, prec)
        row = dbar_probe([n], q0)["rows"][0]
        out.update({
            "A_num": str(ident["A"].numerator),
            "A_den": str(ident["A"].denominator),
            "B_num": str(ident["B"].numerator),
            "B_den": str(ident["B"].denominator),
            "residual": ident["residual"],
            "dbar_m": row["m"],
            "dbar_slope": row["slope"],
        })
    return out
