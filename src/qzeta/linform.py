"""Linear forms in q-zeta values built from a very-well-poised rational kernel.

The pipeline: a rational function R(T) with poles of order A at the
geometric points T = q^(-j), j = 0..n, is split into exact partial
fractions; summing q^k R(q^k) over k then collapses the pole structure
onto the series zeta_q(s) = sum_m m^(s-1) q^m / (1 - q^m), yielding an
exact identity

    S = P_0 + sum_s P_s * zeta_q(s)

with rational-function coefficients P_s.  Symmetrizing under q -> 1/q
(the eps switch) cancels either the even-index or the odd-index zeta
values.  All symbolic work is exact: coefficients are QFrac values
(Laurent numerator in u, u^2 = q, over a factored cyclotomic
denominator) and the numeric series evaluations carry certified
geometric tail bounds.

Convention: the kernel includes a normalizing monomial q^(-(A-2r)n/4)
whose exponent is half-integral for odd n.  Internally every
partial-fraction row and combined coefficient is computed on the "hat"
variant with that monomial stripped (integer q-powers only); public
objects restore the monomial as a u-power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp, mpf

from .qcomb import QFrac, alpha_weight, d_poly, qpoch
from .series import (
    DEFAULT_PREC,
    DivergenceError,
    FractionRing,
    UPolyRing,
    pf_extract,
    pf_reconstruct,
    sum_with_tail,
    tmul_linear,
    working_prec,
)
from .upoly import UPoly, format_rat


__all__ = [
    "Params",
    "PFTable",
    "LinearFormReport",
    "partial_fractions",
    "reconstruction_check",
    "kernel_symmetry_check",
    "d_symmetry_check",
    "p_reciprocity_check",
    "p1_at_one_check",
    "P_z",
    "P_eps",
    "P_eps_hat",
    "P_eps_values_hat",
    "zeta_q",
    "S_eps_numeric",
    "S_eps_hat_numeric",
    "S_tilde_numeric",
    "S_z_numeric",
    "transform_check",
    "identity_residual",
    "D_exponent",
    "D_n",
    "denominator_check",
    "denominator_sharpness_probe",
    "denominator_conjecture_probe",
    "linear_form_report",
]


# ----------------------------------------------------------------------
# Parameters.

@dataclass(frozen=True)
class Params:
    """Kernel parameters: pole order A (even), well-poising offset r with
    1 <= r <= A/2, pole count n+1, and the symmetrization sign eps."""

    A: int
    r: int
    n: int
    eps: int = 1

    def __post_init__(self):
        if self.A < 2 or self.A % 2 != 0:
            raise ValueError(f"A must be an even integer >= 2, got {self.A}")
        if not 1 <= self.r <= self.A // 2:
            raise ValueError(f"need 1 <= r <= A/2, got r={self.r}, A={self.A}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {self.eps}")

    @property
    def prefactor_u(self) -> int:
        """u-exponent of the normalizing monomial q^(-(A-2r)n/4)."""
        return -(self.A - 2 * self.r) * self.n // 2


# ----------------------------------------------------------------------
# The kernel numerator as a dense T-polynomial.

def _hat_numerator(A: int, r: int, n: int, ring) -> list:
    """Dense T-coefficients of the integer-power kernel numerator

        (q;q)_n^(A-2r) * prod_{i=1..rn} (1 - q^(-i) T)
                       * prod_{i=n+1..n+rn} (1 - q^i T) * T^((A-2r)n/2);

    the kernel R_hat(T) is this over (T;q)_{n+1}^A.
    """
    coeffs = [ring.one]
    for i in range(1, r * n + 1):
        coeffs = tmul_linear(coeffs, ring.qpow(-i))
    for i in range(n + 1, n + r * n + 1):
        coeffs = tmul_linear(coeffs, ring.qpow(i))
    poch = ring.one
    for i in range(1, n + 1):
        poch = poch * (ring.one - ring.qpow(i))
    scal = poch ** (A - 2 * r)
    shift = (A - 2 * r) * n // 2
    return [ring.zero] * shift + [scal * c for c in coeffs]


# ----------------------------------------------------------------------
# Partial fractions.

@dataclass(frozen=True)
class PFTable:
    """Exact partial-fraction coefficients of the kernel.

    dhat[j][s] is the QFrac coefficient of 1/(1 - q^j T)^s for the
    integer-power kernel (normalizing monomial stripped); d(s, j) and
    c(s, j) restore the monomial and give the two standard conventions
    d_{s,j} and c_{s,j} = (-1)^s q^(-js) ... with d = (-1)^s q^(js) c.
    """

    A: int
    r: int
    n: int
    prefactor_u: int
    dhat: tuple  # dhat[j][s] -> QFrac, reduced

    def d(self, s: int, j: int) -> QFrac:
        v = self.dhat[j][s]
        return QFrac(v.num.shift_u(self.prefactor_u), v.den)

    def c(self, s: int, j: int) -> QFrac:
        v = self.d(s, j).mul_qpow(-j * s)
        return -v if s % 2 else v

    def entries(self):
        for j in range(self.n + 1):
            for s in range(1, self.A + 1):
                yield s, j, self.d(s, j)


@lru_cache(maxsize=None)
def _pf_table(A: int, r: int, n: int) -> PFTable:
    numer = _hat_numerator(A, r, n, UPolyRing)
    rows, bases = pf_extract(numer, n + 1, A, UPolyRing)
    qrows = []
    for j in range(n + 1):
        row = {}
        for s in range(1, A + 1):
            v = QFrac(rows[j][s])
            for m in bases[j]:
                v = v.div_one_minus_qpow(m, 2 * A - s)
            row[s] = v.reduced()
        qrows.append(row)
    pref = -(A - 2 * r) * n // 2
    return PFTable(A, r, n, pref, tuple(qrows))


def partial_fractions(params: Params) -> PFTable:
    return _pf_table(params.A, params.r, params.n)


def reconstruction_check(params: Params) -> bool:
    """Exact identity: the partial fractions re-sum to the kernel.

    Done on the integer-power kernel (the normalizing monomial scales
    both sides identically), at pole order A."""
    A, n = params.A, params.n
    numer = _hat_numerator(A, params.r, n, UPolyRing)
    return pf_reconstruct(numer, partial_fractions(params).dhat, n + 1, A)


def kernel_symmetry_check(params: Params) -> bool:
    """Exact identity R(q^n T; 1/q) = R(T; q).

    Both sides share the same denominator factor set {1 - q^i T}, so the
    check compares the two numerator coefficient lists, each built
    independently from its own formula (base 1/q and argument q^n T on
    the left)."""
    A, r, n = params.A, params.r, params.n
    ring = UPolyRing

    def assemble(scalar: UPoly, mono_u: int, exps: list) -> list:
        coeffs = [ring.one]
        for e in exps:
            coeffs = tmul_linear(coeffs, ring.qpow(e))
        pre = scalar * UPoly.u_power(mono_u)
        shift = (A - 2 * r) * n // 2
        return [UPoly.zero()] * shift + [pre * c for c in coeffs]

    base_inv = UPoly.q_power(-1)
    lhs = assemble(
        qpoch(base_inv, n, base="1/q") ** (A - 2 * r),
        (A - 2 * r) * n // 2 + n * n * (A - 2 * r),
        [n + i for i in range(1, r * n + 1)] + [n - i for i in range(n + 1, n + r * n + 1)],
    )
    rhs = assemble(
        qpoch(UPoly.q_power(1), n, base="q") ** (A - 2 * r),
        -(A - 2 * r) * n // 2,
        [-i for i in range(1, r * n + 1)] + [i for i in range(n + 1, n + r * n + 1)],
    )
    return len(lhs) == len(rhs) and all((a - b).is_zero() for a, b in zip(lhs, rhs))


def d_symmetry_check(params: Params) -> bool:
    """Exact pole symmetry d_{s, n-j}(q) = d_{s, j}(1/q) for all s, j."""
    table = partial_fractions(params)
    for j in range(params.n + 1):
        for s in range(1, params.A + 1):
            if not table.d(s, params.n - j) == table.d(s, j).subst_inv():
                return False
    return True


# ----------------------------------------------------------------------
# The z-polynomials P_s(z) and the symmetrized coefficients P_s^[eps].

def P_z(params: Params, s: int) -> list:
    """Coefficient list (in z) of P_s(z), QFrac entries, monomial included.

    For 1 <= s <= A: P_s(z) = sum_j d_{s,j} q^(-j) z^j, degree n.
    For s = 0:       P_0(z) = -sum_{s,j} sum_{k=1..j} d_{s,j} q^(k-j)
                               z^(j-k) / (1-q^k)^s, degree n-1.
    """
    table = partial_fractions(params)
    n, A = params.n, params.A
    if 1 <= s <= A:
        return [table.d(s, j).mul_qpow(-j) for j in range(n + 1)]
    if s != 0:
        raise ValueError(f"s must be in 0..{A}, got {s}")
    out = [QFrac.zero() for _ in range(max(n, 1))]
    for sig in range(1, A + 1):
        for j in range(1, n + 1):
            dj = table.d(sig, j)
            for k in range(1, j + 1):
                t = dj.mul_qpow(k - j).div_one_minus_qpow(k, sig)
                out[j - k] = out[j - k] - t
    return out


def p_reciprocity_check(params: Params, s: int) -> bool:
    """Exact z-reciprocity z^n q^(-n) P_s(1/z; 1/q) = P_s(z; q), 1 <= s <= A.

    Coefficientwise: q^(-n) * c_{n-i}(1/q) = c_i(q) for the z-coefficients
    c_j of P_s."""
    if not 1 <= s <= params.A:
        raise ValueError(f"s must be in 1..{params.A}, got {s}")
    coeffs = P_z(params, s)
    n = params.n
    return all(
        coeffs[n - i].subst_inv().mul_qpow(-n).reduced()
        == coeffs[i].reduced()
        for i in range(n + 1))


def p1_at_one_check(params: Params) -> bool:
    """Exact vanishing P_1(1; q) = sum_j d_{1,j} q^(-j) = 0."""
    total = QFrac.zero()
    for c in P_z(params, 1):
        total = total + c
    return total.reduced().is_zero()


# perfbench/tracer.py labels _assemble_eps calls by this name.
_FractionOps = FractionRing


def _assemble_eps(dval, A: int, n: int, eps: int, ring):
    """Symmetrized coefficients from hat partial-fraction values.

    dval[j][s] are the hat coefficients in the fraction field of one of
    the two exact rings (UPolyRing: QFrac; FractionRing: Fraction).
    Returns (P0_eps, {s: P_s_eps}) in that field, hat-normalized.  The
    building blocks:

      Pk1[k]   = sum_j dval[j][k] q^(-j)                (value at z = 1)
      dP1      = sum_j j dval[j][1] q^(-j)              (z-derivative at 1)
      P0_plain = -sum_{s,j} dval[j][s] q^(-j) G_s(j),
                 G_s(j) = sum_{k=1..j} q^k/(1-q^k)^s
      P0_inv   = -sum_{s,j<=n-1} (-1)^s dval[j][s] q^(-j) H_s(n-j),
                 H_s(m) = sum_{k=1..m} q^(k(s-1))/(1-q^k)^s
                 (the q -> 1/q half, rewritten with positive powers)
      P0_eps   = P0_plain + (-1)^eps (P0_inv + dP1)
      P_s_eps  = sum_{k=s..A} alpha(k, s) Pk1[k]   for s = eps mod 2, s >= 2
    """
    zero = dval[0][1] * 0
    qpow, div_omq = ring.qpow, ring.div_one_minus_qpow
    pk1 = {}
    for k in range(1, A + 1):
        acc = zero
        for j in range(n + 1):
            acc = acc + dval[j][k] * qpow(-j)
        pk1[k] = acc
    dp1 = zero
    for j in range(1, n + 1):
        dp1 = dp1 + j * (dval[j][1] * qpow(-j))

    p0_plain = zero
    for s in range(1, A + 1):
        g = zero
        for j in range(1, n + 1):
            g = g + div_omq(qpow(j), j, s)
            p0_plain = p0_plain - dval[j][s] * qpow(-j) * g

    p0_inv = zero
    for s in range(1, A + 1):
        sgn = -1 if s % 2 else 1
        h = zero
        for m in range(1, n + 1):
            h = h + div_omq(qpow(m * (s - 1)), m, s)
            j = n - m
            p0_inv = p0_inv - sgn * (dval[j][s] * qpow(-j)) * h

    flip = -1 if eps else 1
    p0 = p0_plain + flip * (p0_inv + dp1)
    ps = {}
    for s in range(2, A + 1):
        if s % 2 != eps % 2:
            continue
        acc = zero
        for k in range(s, A + 1):
            acc = acc + alpha_weight(k, s) * pk1[k]
        ps[s] = acc
    return p0, ps


@lru_cache(maxsize=None)
def _p_eps_hat(A: int, r: int, n: int, eps: int):
    table = _pf_table(A, r, n)
    dval = [{s: table.dhat[j][s] for s in range(1, A + 1)} for j in range(n + 1)]
    p0, ps = _assemble_eps(dval, A, n, eps, UPolyRing)
    return p0.reduced(), {s: v.reduced() for s, v in ps.items()}


def P_eps_hat(params: Params) -> dict:
    """Hat-normalized symmetrized coefficients {0: P0, s: Ps, ...}, QFrac."""
    p0, ps = _p_eps_hat(params.A, params.r, params.n, params.eps)
    out = {0: p0}
    out.update(ps)
    return out


def P_eps(params: Params) -> dict:
    """Symmetrized coefficients with the normalizing monomial restored."""
    pref = params.prefactor_u
    return {s: QFrac(v.num.shift_u(pref), v.den)
            for s, v in P_eps_hat(params).items()}


@lru_cache(maxsize=None)
def _pf_values(A: int, r: int, n: int, q0: Fraction):
    """Hat partial-fraction values at an exact rational q0 (fast path)."""
    ring = FractionRing(q0)
    numer = _hat_numerator(A, r, n, ring)
    rows, bases = pf_extract(numer, n + 1, A, ring)
    vals = []
    for j in range(n + 1):
        base = Fraction(1)
        for m in bases[j]:
            base *= 1 - q0 ** m
        vals.append({s: rows[j][s] / base ** (2 * A - s) for s in range(1, A + 1)})
    return tuple(vals)


@lru_cache(maxsize=None)
def P_eps_values_hat(A: int, r: int, n: int, eps: int, q0: Fraction):
    """Exact Fractions: hat P0^[eps] and {s: hat Ps^[eps]} at q = q0."""
    dval = _pf_values(A, r, n, q0)
    p0, ps = _assemble_eps(dval, A, n, eps, FractionRing(q0))
    return p0, tuple(sorted(ps.items()))


# ----------------------------------------------------------------------
# Numeric series with certified tails.

def _check_q0(q0) -> Fraction:
    q0 = Fraction(q0)
    if not 0 < abs(q0) < 1:
        raise ValueError(f"need 0 < |q0| < 1, got {q0}")
    return q0


def zeta_q(s: int, q0: Fraction, prec: int = DEFAULT_PREC, tol=None) -> mpf:
    """zeta_q(s) = sum_k k^(s-1) q0^k / (1 - q0^k), certified tail.

    The ratio of consecutive terms is bounded by ((k+1)/k)^(s-1) |q0|
    (1+|q0|^k)/(1-|q0|^(k+1)), which is decreasing in k, so it is a valid
    geometric bound for the whole tail.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    q0 = Fraction(q0)
    if q0 == 0:
        return mpf(0)
    q0 = _check_q0(q0)
    with mp.workprec(working_prec(prec)):
        if tol is None:
            tol = mpf(2) ** (-(prec + 8))
        qm = mpf(q0.numerator) / q0.denominator
        aq = abs(qm)

        def terms():
            qk = mpf(1)
            k = 1
            while True:
                qk *= qm
                yield mpf(k) ** (s - 1) * qk / (1 - qk)
                k += 1

        def bound(i):
            k = i + 1
            return (mpf(k + 1) / k) ** (s - 1) * aq * (1 + aq ** k) / (1 - aq ** (k + 1))

        return +sum_with_tail(terms(), bound, tol)


class _QPowers:
    """Lazily grown table of integer powers q0^e, e >= 0, at fixed precision."""

    def __init__(self, qm):
        self.qm = qm
        self.p = [mpf(1)]

    def get(self, e: int):
        while len(self.p) <= e:
            self.p.append(self.p[-1] * self.qm)
        return self.p[e]


def _rho_hat(A: int, r: int, n: int, k: int, qp: _QPowers):
    """q^k R_hat(q^k) by direct product: the integer-power kernel summand."""
    val = qp.get(k * ((A - 2 * r) * n // 2 + 1))
    for i in range(1, n + 1):
        val *= (1 - qp.get(i)) ** (A - 2 * r)
    for i in range(r * n):
        val *= (1 - qp.get(k - r * n + i)) * (1 - qp.get(k + n + 1 + i))
    pole = mpf(1)
    for i in range(n + 1):
        pole *= 1 - qp.get(k + i)
    return val / pole ** A


def _rho_envelope(A: int, r: int, n: int, aq):
    """Decreasing-in-k bound on |rho_{k+1}/rho_k|, valid for the whole tail."""
    lead = aq ** ((A - 2 * r) * n // 2 + 1)

    def env(k: int):
        return (lead * (1 + aq ** (k + n + 1 + r * n)) / (1 - aq ** (k - r * n))
                * ((1 + aq ** k) / (1 - aq ** (k + n + 1))) ** (A + 1))

    return env


def S_eps_hat_numeric(params: Params, q0: Fraction, prec: int = DEFAULT_PREC,
                      tol=None) -> mpf:
    """The symmetrized kernel series, integer-power normalization:

        sum_{k > rn} q^k R_hat(q^k) (1 + (-1)^eps q^((A/2-1)(n+2k))).

    Valid for any rational 0 < |q0| < 1 (negative q0 included).
    """
    A, r, n, eps = params.A, params.r, params.n, params.eps
    q0 = _check_q0(q0)
    if A == 2 and eps == 1:
        return mpf(0)  # the bracket 1 + (-1) q^0 vanishes identically
    with mp.workprec(working_prec(prec)):
        if tol is None:
            tol = mpf(2) ** (-(prec + 8))
        qm = mpf(q0.numerator) / q0.denominator
        aq = abs(qm)
        qp = _QPowers(qm)
        env = _rho_envelope(A, r, n, aq)
        half = A // 2 - 1

        def terms():
            k = r * n + 1
            while True:
                br = 1 + (-1) ** eps * qp.get(half * (n + 2 * k))
                yield _rho_hat(A, r, n, k, qp) * br
                k += 1

        def bound(i):
            k = r * n + 1 + i
            b = env(k)
            if half:
                b *= (1 + aq ** (half * (n + 2 * k + 2))) / (1 - aq ** (half * (n + 2 * k)))
            return b

        return +sum_with_tail(terms(), bound, tol)


def S_eps_numeric(params: Params, q0: Fraction, prec: int = DEFAULT_PREC) -> mpf:
    """True normalization q0^(-(A-2r)n/4) * hat series; q0 > 0 only
    (the monomial is a genuine quarter/half power in general)."""
    q0 = _check_q0(q0)
    ex = Fraction(-(params.A - 2 * params.r) * params.n, 4)
    if q0 <= 0 and ex.denominator != 1:
        raise ValueError("negative q0 with fractional normalizing exponent; "
                         "use S_eps_hat_numeric")
    hat = S_eps_hat_numeric(params, q0, prec)
    with mp.workprec(working_prec(prec)):
        qm = mpf(q0.numerator) / q0.denominator
        return +(mp.power(qm, mpf(ex.numerator) / ex.denominator) * hat)


def S_tilde_numeric(params: Params, q0: Fraction, prec: int = DEFAULT_PREC,
                    tol=None) -> mpf:
    """The alternative very-well-poised series (integer q-powers only):

        (q;q)_n^(A-2r) sum_{k>rn} (1 - q^(2k+n))
            (q^(k-rn);q)_rn (q^(k+n+1);q)_rn / (q^k;q)_{n+1}^A
            q^(k((A-2r)n/2 + A/2 - 1)).

    Termwise it is rho_hat(k) * q^(k(A/2-2)) * (1 - q^(2k+n)).
    """
    A, r, n = params.A, params.r, params.n
    q0 = _check_q0(q0)
    gap = (A - 2 * r) * n // 2 + A // 2 - 1
    if gap < 1:
        raise DivergenceError(
            f"alternative series needs (A-2r)n/2 + A/2 - 1 >= 1, got {gap}")
    with mp.workprec(working_prec(prec)):
        if tol is None:
            tol = mpf(2) ** (-(prec + 8))
        qm = mpf(q0.numerator) / q0.denominator
        aq = abs(qm)
        qp = _QPowers(qm)
        env = _rho_envelope(A, r, n, aq)
        ex = A // 2 - 2

        def terms():
            k = r * n + 1
            while True:
                extra = qp.get(k * ex) if ex >= 0 else 1 / qp.get(k * (-ex))
                yield _rho_hat(A, r, n, k, qp) * extra * (1 - qp.get(2 * k + n))
                k += 1

        def bound(i):
            k = r * n + 1 + i
            return (env(k) * aq ** ex
                    * (1 + aq ** (2 * k + n + 2)) / (1 - aq ** (2 * k + n)))

        return +sum_with_tail(terms(), bound, tol)


def S_z_numeric(params: Params, qv: Fraction, zv: Fraction,
                prec: int = DEFAULT_PREC, tol=None) -> mpf:
    """sum_{k > rn} q^k R(q^k; q) z^(-k) for positive rational q and z.

    q > 1 is allowed: the terms still decay geometrically because the
    kernel's degree gap is negative; the tail bound switches to the
    q > 1 envelope in that case.  Used by the base-inversion transform
    check, where one side naturally sums at base 1/q.
    """
    A, r, n = params.A, params.r, params.n
    qv, zv = Fraction(qv), Fraction(zv)
    if qv <= 0 or qv == 1 or zv <= 0:
        raise ValueError("need rational q > 0, q != 1, z > 0")
    with mp.workprec(working_prec(prec)):
        if tol is None:
            tol = mpf(2) ** (-(prec + 8))
        qm = mpf(qv.numerator) / qv.denominator
        zi = mpf(zv.denominator) / zv.numerator
        # exact quarter-power monomial q^(-(A-2r)n/4)
        pref = mp.power(qm, -mpf((A - 2 * r) * n) / 4)
        qp = _QPowers(qm)

        if qv < 1:
            env0 = _rho_envelope(A, r, n, qm)

            def bound(i):
                return env0(r * n + 1 + i) * zi
        else:
            c = ((A - 2 * r) * n // 2 + 2 + n + 2 * r * n - (n + 1) * (A + 1))
            lead = mp.power(qm, c)

            def bound(i):
                k = r * n + 1 + i
                return (lead * zi / (1 - mp.power(qm, -(k - r * n)))
                        / (1 - mp.power(qm, -(k + n + 1))) ** (A + 1))

        def terms():
            k = r * n + 1
            zk = zi ** k
            while True:
                yield _rho_hat(A, r, n, k, qp) * pref * zk
                zk *= zi
                k += 1

        return +sum_with_tail(terms(), bound, tol)


def transform_check(params: Params, q0: Fraction, prec: int = DEFAULT_PREC) -> mpf:
    """|S(1; 1/q) - q^(An/2) S(q^(2-A); q)|: base inversion swaps the
    argument by q^(2-A).  Returns the residual (should be ~0)."""
    A, n = params.A, params.n
    q0 = _check_q0(q0)
    if q0 <= 0:
        raise ValueError("transform check needs q0 > 0")
    lhs = S_z_numeric(params, 1 / q0, Fraction(1), prec)
    rhs = S_z_numeric(params, q0, q0 ** (2 - A), prec)
    with mp.workprec(working_prec(prec)):
        qm = mpf(q0.numerator) / q0.denominator
        return +abs(lhs - mp.power(qm, A * n // 2) * rhs)


# ----------------------------------------------------------------------
# Point A): the linear-form identity, residual at exact rational q0.

def _frac_log2(x: Fraction) -> int:
    if x == 0:
        return 0
    return x.numerator.bit_length() - x.denominator.bit_length()


def identity_residual(params: Params, q0: Fraction, prec: int = DEFAULT_PREC) -> dict:
    """Residual |S^[eps] - P0^[eps] - sum_s Ps^[eps] zeta_q(s)| at q = q0.

    The coefficients are exact Fractions; only the two series are floats.
    The working precision is raised by the bit-size of the largest
    coefficient so that the massive cancellation still leaves a certified
    residual at the requested precision.
    """
    A, r, n, eps = params.A, params.r, params.n, params.eps
    q0 = _check_q0(q0)
    p0, ps_items = P_eps_values_hat(A, r, n, eps, q0)
    ps = dict(ps_items)
    scale = max([0, _frac_log2(p0)] + [_frac_log2(v) for v in ps.values()])
    pref_ex = Fraction((A - 2 * r) * n, 4)  # |prefactor| = |q0|^(-pref_ex)
    # cheap overestimate of log2 |q0|^(-pref_ex):
    pref_bits = float(pref_ex) * abs(Fraction(1) / q0).numerator.bit_length()
    prec_eff = prec + 24 + max(0, scale) + max(0, int(pref_bits))
    wp = working_prec(prec_eff)
    with mp.workprec(wp):
        shat = S_eps_hat_numeric(params, q0, prec_eff)
        zetas = {s: zeta_q(s, q0, prec_eff) for s in ps}
        acc = shat - mpf(p0.numerator) / p0.denominator
        for s, v in ps.items():
            acc -= (mpf(v.numerator) / v.denominator) * zetas[s]
        residual_hat = abs(acc)
        aq = abs(mpf(q0.numerator) / q0.denominator)
        residual = +(mp.power(aq, -mpf(pref_ex.numerator) / pref_ex.denominator)
                     * residual_hat)
    return {
        "residual": residual,
        "residual_hat": +residual_hat,
        "S_hat": +shat,
        "P0_hat": p0,
        "P_hat": ps,
        "zeta": {s: +v for s, v in zetas.items()},
        "working_prec": wp,
    }


# ----------------------------------------------------------------------
# Point D): the cyclotomic denominator.

def D_exponent(A: int, r: int, n: int) -> Fraction:
    """Exponent of q in the denominator monomial:
    (A-2r)n/4 - ceil(A(n+1)^2/8) - r^2 n^2/2 + rn/2 - (A-1)n."""
    ceil_term = -((-A * (n + 1) ** 2) // 8)  # ceil(A(n+1)^2 / 8)
    return (Fraction((A - 2 * r) * n, 4) - ceil_term
            - Fraction(r * r * n * n, 2) + Fraction(r * n, 2) - (A - 1) * n)


def D_n(params: Params) -> UPoly:
    """(A-1)! q^E d_n(1/q)^A with E = D_exponent; exact UPoly in u."""
    A, n = params.A, params.n
    ex = D_exponent(A, params.r, n)
    u_exp = 2 * ex
    assert u_exp.denominator == 1, "denominator monomial must be a u-power"
    dinv = d_poly(n).subst_inv()
    return UPoly.const(factorial(A - 1)) * UPoly.u_power(int(u_exp)) * dinv ** A


def _clearing_check(poly_q: UPoly, forms: dict) -> dict:
    """Multiply each coefficient by the candidate denominator and test
    membership in Z[1/q]: denominator 1 after reduction, integer
    coefficients, even u-exponents, no positive q-powers."""
    out = {}
    for s, frac in sorted(forms.items()):
        prod = (frac * poly_q).reduced()
        if not prod.den.is_one():
            out[s] = {"ok": False, "reason": "denominator does not clear",
                      "witness": None}
            continue
        w = prod.num
        ok_even = w.only_even_exponents()
        ok_int = w.coefficients_integral()
        ok_neg = w.is_zero() or w.max_exp() <= 0
        ok = ok_even and ok_int and ok_neg
        reason = None
        if not ok:
            bits = []
            if not ok_even:
                bits.append("odd u-powers")
            if not ok_int:
                bits.append("non-integer coefficients")
            if not ok_neg:
                bits.append(f"positive q-power up to u^{w.max_exp()}")
            reason = ", ".join(bits)
        out[s] = {"ok": ok, "reason": reason, "witness": w}
    return out


def denominator_check(params: Params) -> dict:
    """Exact check D_n * P_s^[eps] in Z[1/q] for every s in the form."""
    results = _clearing_check(D_n(params), P_eps(params))
    return {
        "params": params,
        "pass": all(v["ok"] for v in results.values()),
        "per_s": results,
    }


def denominator_sharpness_probe(params: Params) -> dict:
    """Divide the denominator by one extra factor Phi_n(1/q) and rerun the
    check; a failure witnesses that the d_n-power A cannot be lowered by
    a single cyclotomic at this n."""
    A, n = params.A, params.n
    if n < 1:
        raise ValueError("sharpness probe needs n >= 1")
    ex = D_exponent(A, params.r, n)
    shaved = (UPoly.const(factorial(A - 1)) * UPoly.u_power(int(2 * ex))
              * d_poly(n).subst_inv() ** (A - 1) * d_poly(n - 1).subst_inv())
    results = _clearing_check(shaved, P_eps(params))
    return {
        "params": params,
        "all_pass": all(v["ok"] for v in results.values()),
        "failing_s": sorted(s for s, v in results.items() if not v["ok"]),
        "per_s": results,
    }


def denominator_conjecture_probe(params: Params) -> dict:
    """Probe the conjectural smaller denominator with d_n-power A-1.

    The smaller denominator provably clears the coefficients of the
    alternative very-well-poised series for A = 4, r = 1 (where that
    series coincides with the symmetrized one up to a monomial); here it
    is applied to the symmetrized-form coefficients for both eps, and the
    outcome is recorded, not asserted.
    """
    A, r, n = params.A, params.r, params.n
    ex = D_exponent(A, r, n)
    dtilde = (UPoly.const(factorial(A - 1)) * UPoly.u_power(int(2 * ex))
              * d_poly(n).subst_inv() ** (A - 1))
    per_eps = {}
    for eps in (0, 1):
        forms = P_eps(Params(A, r, n, eps))
        res = _clearing_check(dtilde, forms)
        per_eps[eps] = {s: v["ok"] for s, v in res.items()}
    return {
        "A": A, "r": r, "n": n,
        "per_eps": per_eps,
        "all_pass": all(all(v.values()) for v in per_eps.values()),
        "interpretation": (
            "reduced denominator (d_n power A-1) applied to the symmetrized-form "
            "coefficients; the alternative series' own coefficients coincide with "
            "these for A=4, r=1 only"),
    }


# ----------------------------------------------------------------------
# Reports.

@dataclass
class LinearFormReport:
    params: Params
    q0: Fraction
    P: dict              # s -> reduced QFrac (true normalization), s = 0 and parity s
    S_value: object      # mpf
    zeta_values: dict    # s -> mpf
    residual: object     # mpf
    residual_hat: object
    denom_pass: bool
    witness: list        # per-s summaries
    working_prec: int

    def to_json(self) -> dict:
        return {
            "params": {"A": self.params.A, "r": self.params.r, "n": self.params.n},
            "q": format_rat(self.q0),
            "eps": self.params.eps,
            "P": [{"s": s, "num": f.num.to_json(),
                   "den": {str(l): m for l, m in sorted(f.den.e.items())}}
                  for s, f in sorted(self.P.items())],
            "residual": mp.nstr(self.residual, 25),
            "denom_pass": self.denom_pass,
            "witness": self.witness,
        }


def linear_form_report(params: Params, q0: Fraction,
                       prec: int = DEFAULT_PREC) -> LinearFormReport:
    """Complete verification at one (params, q0): exact coefficients, the
    numeric identity residual, and the exact denominator check."""
    q0 = _check_q0(q0)
    forms = P_eps(params)
    res = identity_residual(params, q0, prec)
    den = denominator_check(params)
    witness = []
    for s, v in sorted(den["per_s"].items()):
        w = v["witness"]
        witness.append({
            "s": s,
            "ok": v["ok"],
            "reason": v["reason"],
            "terms": w.num_terms() if w is not None else None,
            "max_q_exp": (w.max_exp() // 2) if w is not None and not w.is_zero() else None,
        })
    # true S = q0^(-(A-2r)n/4) * hat S; report magnitude consistently with
    # the residual normalization (real for q0 > 0, |.| otherwise).
    return LinearFormReport(
        params=params,
        q0=q0,
        P=forms,
        S_value=res["S_hat"],
        zeta_values=res["zeta"],
        residual=res["residual"],
        residual_hat=res["residual_hat"],
        denom_pass=den["pass"],
        witness=witness,
        working_prec=res["working_prec"],
    )
