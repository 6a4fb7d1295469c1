"""The weight-3 case study: two q-deformations of the classical
irrationality series for zeta(3) and their exact linear-form structure.

Two series are implemented independently and compared numerically:

  * ball-type:  (q;q)_n^2 sum_{k>n} (1 - q^(2k+n)) (q^(k-n);q)_n
                (q^(1+k+n);q)_n / (q^k;q)_{n+1}^4 q^(k(n+1))
  * derivative-type:  q^(n(n+1))/log q * sum_{k>n} d/dk [q^k W_n(q^k)],
                W_n(T) = (q^(-n) T;q)_n^2 / (T;q)_{n+1}^2,

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .asymptotics import SlopeEstimate, _make_estimate, log_abs_fraction
from .linform import Params, S_eps_hat_numeric, _check_q0, zeta_q
from .qcomb import QFrac, cyclotomic, d_poly
from .series import (
    DEFAULT_PREC,
    FractionRing,
    UPolyRing,
    pf_extract,
    pf_reconstruct,
    sum_with_tail,
    tmul_linear,
    working_prec,
)
from .upoly import UPoly

__all__ = [
    "Zeta3Kernel",
    "ball_matches_symmetrized",
    "bgn_slope",
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

def _w_numerator(n: int, ring) -> list:
    """Dense T-coefficients of (q^(-n) T; q)_n^2 over the given ring."""
    coeffs = [ring.one]
    for _ in range(2):
        for i in range(n):
            coeffs = tmul_linear(coeffs, ring.qpow(i - n))
    return coeffs


@dataclass(frozen=True)
class Zeta3Kernel:
    """Order-2 partial fractions of W_n: W_n(T) = sum_j a[j]/(1 - q^j T)^2
    + b[j]/(1 - q^j T), exact QFrac entries."""

    n: int
    a: tuple
    b: tuple

    def residue_sum(self) -> QFrac:
        """sum_j b[j] q^(-j), the negated residue at infinity; must be 0."""
        total = QFrac(UPoly.zero())
        for j, bj in enumerate(self.b):
            total = total + bj.mul_qpow(-j)
        return total.reduced()


@lru_cache(maxsize=None)
def zeta3_partial_fractions(n: int) -> Zeta3Kernel:
    numer = _w_numerator(n, UPolyRing)
    rows, bases = pf_extract(numer, n + 1, 2, UPolyRing)
    a = []
    b = []
    for j in range(n + 1):
        row = {}
        for s in (1, 2):
            v = QFrac(rows[j][s])
            for m in bases[j]:
                v = v.div_one_minus_qpow(m, 4 - s)
            row[s] = v.reduced()
        a.append(row[2])
        b.append(row[1])
    return Zeta3Kernel(n, tuple(a), tuple(b))


@lru_cache(maxsize=None)
def _z3_values(n: int, q0: Fraction):
    """(a[j](q0), b[j](q0)) exact Fractions via the specialized extractor."""
    ring = FractionRing(q0)
    numer = _w_numerator(n, ring)
    rows, bases = pf_extract(numer, n + 1, 2, ring)
    av, bv = [], []
    for j in range(n + 1):
        base = Fraction(1)
        for m in bases[j]:
            base *= 1 - q0 ** m
        av.append(rows[j][2] / base ** 2)
        bv.append(rows[j][1] / base ** 3)
    return tuple(av), tuple(bv)


def zeta3_reconstruction_check(n: int) -> bool:
    """Exact identity: the order-2 partial fractions re-sum to W_n."""
    ker = zeta3_partial_fractions(n)
    rows = [{1: b, 2: a} for a, b in zip(ker.a, ker.b)]
    return pf_reconstruct(_w_numerator(n, UPolyRing), rows, n + 1, 2)


# ----------------------------------------------------------------------
# The exact linear-form coefficients A_n, B_n.

@lru_cache(maxsize=None)
def zeta3_form(n: int):
    """(A_n, B_n) as reduced QFrac:

        A_n = sum_j a_j q^(-j),
        B_n = sum_{j=1..n} sum_{k=1..j} [ a_j q^(k-j) (1 + q^k)/(1-q^k)^3
                                        + b_j q^(k-j) /(1-q^k)^2 ].
    """
    ker = zeta3_partial_fractions(n)
    a_total = QFrac(UPoly.zero())
    for j, aj in enumerate(ker.a):
        a_total = a_total + aj.mul_qpow(-j)
    b_total = QFrac(UPoly.zero())
    for j in range(1, n + 1):
        for k in range(1, j + 1):
            ta = (ker.a[j] * QFrac(UPoly.one() + UPoly.q_power(k))
                  ).mul_qpow(k - j).div_one_minus_qpow(k, 3)
            tb = ker.b[j].mul_qpow(k - j).div_one_minus_qpow(k, 2)
            b_total = b_total + ta + tb
    return a_total.reduced(), b_total.reduced()


@lru_cache(maxsize=None)
def zeta3_form_values(n: int, q0: Fraction):
    """(A_n(q0), B_n(q0)) exact Fractions (fast specialized route)."""
    av, bv = _z3_values(n, q0)
    a_total = sum(av[j] * q0 ** (-j) for j in range(n + 1))
    b_total = Fraction(0)
    for j in range(1, n + 1):
        for k in range(1, j + 1):
            qk = q0 ** k
            b_total += av[j] * q0 ** (k - j) * (1 + qk) / (1 - qk) ** 3
            b_total += bv[j] * q0 ** (k - j) / (1 - qk) ** 2
    return a_total, b_total


# ----------------------------------------------------------------------
# Numeric series with certified tails.

def qball_numeric(n: int, q0, prec: int = DEFAULT_PREC, tol=None) -> mpf:
    """The ball-type series; terms for k <= n vanish identically."""
    q0 = _check_q0(q0)
    with mp.workprec(working_prec(prec, 4 * n)):
        if tol is None:
            tol = mpf(2) ** (-prec)
        q = mpf(q0.numerator) / q0.denominator
        aq = abs(q)
        poch = mpf(1)   # (q;q)_n
        for i in range(1, n + 1):
            poch *= 1 - q ** i

        def terms():
            k = n + 1
            while True:
                t = (1 - q ** (2 * k + n)) * q ** (k * (n + 1))
                for i in range(n):
                    t *= (1 - q ** (k - n + i)) * (1 - q ** (1 + k + n + i))
                den = mpf(1)
                for i in range(n + 1):
                    den *= 1 - q ** (k + i)
                yield t / den ** 4
                k += 1

        def ratio(idx):
            k = n + 1 + idx
            r = (aq ** (n + 1)
                 * (1 + aq ** (2 * k + n + 2)) / (1 - aq ** (2 * k + n))
                 * (1 + aq ** (k + 1)) / (1 - aq ** (k - n))
                 * (1 + aq ** (k + 2 * n + 1)) / (1 - aq ** (k + n + 1))
                 * ((1 + aq ** k) / (1 - aq ** (k + n + 1))) ** 4)
            return float(r) if r < 1 else None

        return poch ** 2 * sum_with_tail(terms(), ratio, tol / 2)


def _w_log_deriv_bracket(n: int, q, k: int):
    """W_n(q^k) and the bracket 1 + T W'/W at T = q^k, k > n.

    W'/W = -2 sum_{i<n} q^(i-n)/(1 - q^(i-n) T) + 2 sum_{i<=n} q^i/(1 - q^i T);
    each accumulated term below already carries the factor T = q^k."""
    w = mpf(1)
    s = mpf(0)
    for i in range(n):
        f = 1 - q ** (k - n + i)
        w *= f * f
        s -= 2 * q ** (k - n + i) / f
    for i in range(n + 1):
        f = 1 - q ** (k + i)
        w /= f * f
        s += 2 * q ** (k + i) / f
    return w, 1 + s


def qbgn_numeric(n: int, q0, prec: int = DEFAULT_PREC, tol=None) -> mpf:
    """The derivative-type series, log q cancelled analytically:

        q^(n(n+1)) sum_{k>n} q^k W_n(q^k) [1 + q^k (W'/W)(q^k)].
    """
    q0 = _check_q0(q0)
    with mp.workprec(working_prec(prec, 4 * n)):
        if tol is None:
            tol = mpf(2) ** (-prec)
        q = mpf(q0.numerator) / q0.denominator
        aq = abs(q)

        def terms():
            k = n + 1
            while True:
                w, br = _w_log_deriv_bracket(n, q, k)
                yield q ** k * w * br
                k += 1

        def bracket_bound(k):
            g = 2 * aq ** k * (n / (aq ** n * (1 - aq ** (k - n)))
                               + (n + 1) / (1 - aq ** k))
            return g

        def ratio(idx):
            k = n + 1 + idx
            g0, g1 = bracket_bound(k), bracket_bound(k + 1)
            if g0 >= 1:
                return None
            r = (aq
                 * ((1 + aq ** (k + 1)) / (1 - aq ** (k - n))) ** 2
                 * ((1 + aq ** k) / (1 - aq ** (k + n + 1))) ** 2
                 * (1 + g1) / (1 - g0))
            return float(r) if r < 1 else None

        total = sum_with_tail(terms(), ratio, tol / 2)
        return q ** (n * (n + 1)) * total


def ball_matches_symmetrized(n: int, q0, prec: int = DEFAULT_PREC) -> dict:
    """Dual-route check: the ball-type series coincides termwise with the
    integer-power symmetrized series at (A, r) = (4, 1), eps = 1 — that
    is, with q^(n/2) times the monomial-normalized one.  Returns both
    values and the residual."""
    q0 = _check_q0(q0)
    ball = qball_numeric(n, q0, prec)
    sym = S_eps_hat_numeric(Params(4, 1, n, 1), q0, prec)
    return {
        "n": n,
        "q0": q0,
        "ball": ball,
        "symmetrized_hat": sym,
        "monomial_q_exponent": Fraction(n, 2),
        "residual": abs(ball - sym),
    }


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
    q0 = _check_q0(q0)
    a_val, b_val = zeta3_form_values(n, q0)
    scale = max(_frac_bits(a_val), _frac_bits(b_val))
    prec_eff = prec + 24 + max(0, scale)
    with mp.workprec(working_prec(prec_eff, 4 * n)):
        qv = mpf(q0.numerator) / q0.denominator
        lhs = qbgn_numeric(n, q0, prec_eff) / qv ** (n * (n + 1))
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

def _laurent_integral_after(form: QFrac, clearer: UPoly):
    """Multiply and test membership in Z[q, 1/q] (any exponent sign):
    returns (ok, max_q_exponent or None)."""
    prod = (form * QFrac(clearer)).reduced()
    if not prod.den.is_one():
        return False, None
    w = prod.num
    if w.is_zero():
        return True, 0
    if not (w.only_even_exponents() and w.coefficients_integral()):
        return False, None
    return True, w.max_exp() // 2


def dbar_probe(n_values, q0=Fraction(1, 2), max_m: int = 4) -> dict:
    """Minimal cyclotomic clearing of the weight-3 form coefficients.

    For each n, finds the smallest m <= max_m with d_n(1/q)^m A_n and
    d_n(1/q)^m B_n Laurent with integer coefficients, and the exponent
    shift e = -max positive power so q^e d_n(1/q)^m puts both in Z[1/q].
    Reports the growth of log|q0^e d_n(1/q0)^m| / n^2 in both
    normalizations — divided by log|1/q0| and raw — against 9/pi^2; the
    literature states the limit without the log factor, dimensional
    consistency suggests it, so neither is asserted.
    """
    q0 = Fraction(q0)
    rows = []
    with mp.workprec(working_prec(DEFAULT_PREC)):
        L = -log_abs_fraction(q0)
        target_x = 9 / mp.pi ** 2
        for n in sorted(n_values):
            a_n, b_n = zeta3_form(n)
            dinv = d_poly(n).subst_inv()
            found = None
            for m in range(max_m + 1):
                clearer = dinv ** m if m else UPoly.one()
                ok_a, ea = _laurent_integral_after(a_n, clearer)
                ok_b, eb = _laurent_integral_after(b_n, clearer)
                if ok_a and ok_b:
                    found = (m, -max(ea, eb, 0))
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
# Growth of the derivative series itself (the obstruction to applying
# the irrationality criterion: its slope tends to 0).

def bgn_slope(n_range, q0=Fraction(1, 2), prec: int = DEFAULT_PREC) -> SlopeEstimate:
    """(1/n^2) log |log q * (A_n zeta_q(3) - B_n)| at q = q0, target 0."""
    q0 = _check_q0(q0)
    if q0 < 0:
        raise ValueError("needs q0 in (0, 1): log q appears unsquared")
    pts = []
    with mp.workprec(working_prec(prec)):
        z3 = zeta_q(3, q0, prec)
        logq = mp.log(mpf(q0.numerator) / q0.denominator)
        for n in sorted(n_range):
            if n < 1:
                continue
            a_val, b_val = zeta3_form_values(n, q0)
            scale = max(_frac_bits(a_val), _frac_bits(b_val))
            with mp.workprec(working_prec(prec, scale)):
                z3s = zeta_q(3, q0, prec + scale)
                v = (mpf(a_val.numerator) / a_val.denominator * z3s
                     - mpf(b_val.numerator) / b_val.denominator) * logq
            if v == 0:
                continue
            pts.append((n, mp.log(abs(v)) / n**2))
    return _make_estimate(f"weight-3 series slope (q={q0})", pts, mpf(0))


# ----------------------------------------------------------------------
# Classical degeneration oracle.

def classical_ball(n: int, prec: int = 64, tol=None) -> mpf:
    """n!^2 sum_{k>n} (2k+n) (k-n)_n (k+n+1)_n / (k)_{n+1}^4, summed
    directly with an integral-comparison tail bound (terms decay like
    k^(-2n-3))."""
    with mp.workprec(working_prec(prec)):
        if tol is None:
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
            k += 1
        return mpf(mp.factorial(n)) ** 2 * total


# ----------------------------------------------------------------------
# Consolidated report.

def zeta3_report(n: int, q0, prec: int = DEFAULT_PREC) -> dict:
    """Machine-readable summary for one (n, q0)."""
    q0 = _check_q0(q0)
    ball = qball_numeric(n, q0, prec)
    bgn = qbgn_numeric(n, q0, prec)
    out = {
        "n": n,
        "q": str(q0),
        "ball": mp.nstr(ball, 25),
        "bgn": mp.nstr(bgn, 25),
        "diff": mp.nstr(abs(ball - bgn), 6),
    }
    if q0 > 0:
        ident = zeta3_identity_residual(n, q0, prec)
        probe = dbar_probe([n] if n else [0], q0 if q0 > 0 else Fraction(1, 2))
        row = probe["rows"][0]
        out.update({
            "A_num": str(ident["A"].numerator),
            "A_den": str(ident["A"].denominator),
            "B_num": str(ident["B"].numerator),
            "B_den": str(ident["B"].denominator),
            "residual": mp.nstr(ident["residual"], 6),
            "dbar_m": row["m"],
            "dbar_slope": None if row["slope"] is None
            else mp.nstr(row["slope"], 10),
        })
    return out
