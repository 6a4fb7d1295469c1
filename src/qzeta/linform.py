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

from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp, mpf

from .qcomb import PhiProduct, QFrac, alpha_weight, qpoch
from .series import (
    DEFAULT_PREC,
    PONE,
    FractionRing,
    Kernel,
    PrecisionError,
    Record,
    UPolyRing,
    from_mpf,
    linear_product,
    padd,
    pdiv,
    pf_extract,
    pf_reconstruct,
    pmul,
    ppow,
    psub,
    sum_with_tail,
    working_prec,
)
from .upoly import UPoly


__all__ = [
    "Params",
    "partial_fractions",
    "reconstruction_check",
    "kernel_symmetry_check",
    "d_symmetry_check",
    "p_reciprocity_check",
    "p1_at_one_check",
    "P_eps",
    "P_eps_hat",
    "P_eps_values_hat",
    "zeta_q",
    "S_eps_hat_numeric",
    "identity_residual",
    "D_exponent",
    "D_n",
    "denominator_check",
    "denominator_probe",
    "linear_form_report",
]


# ----------------------------------------------------------------------
# Parameters.

class Params(Record):
    """Kernel parameters: pole order A (even), well-poising offset r with
    1 <= r <= A/2, pole count n+1, and the symmetrization sign eps."""

    __slots__ = ("A", "r", "n", "eps")
    _defaults = (1,)

    def _check(self):
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
# The kernel numerator, by its factors.

def _hat_kernel(A: int, r: int, n: int) -> Kernel:
    """The integer-power kernel numerator

        (q;q)_n^(A-2r) * T^((A-2r)n/2) * prod_{i=1..rn} (1 - q^(-i) T)
                       * prod_{i=n+1..n+rn} (1 - q^i T);

    the kernel R_hat(T) is this over (T;q)_{n+1}^A.
    """
    return Kernel(tuple((i, A - 2 * r) for i in range(1, n + 1)), (A - 2 * r) * n // 2,
                  tuple(range(-1, -r * n - 1, -1)) + tuple(range(n + 1, n + r * n + 1)))


# ----------------------------------------------------------------------
# Partial fractions.

class _Rows(tuple):
    """The rows of one hat partial-fraction table; sums memoizes their
    eps-free pole sums, which _assemble_eps builds once for both eps."""
    sums = None


@lru_cache(maxsize=None)
def _pf_table(A: int, r: int, n: int) -> tuple:
    return _Rows(pf_extract(_hat_kernel(A, r, n), n + 1, A, UPolyRing))


def partial_fractions(params: Params) -> tuple:
    """Exact partial-fraction rows of the kernel, as pf_extract returns them.

    rows[j][s] is the reduced QFrac coefficient of 1/(1 - q^j T)^s for
    the integer-power kernel (normalizing monomial stripped);
    rows[j][s].shift_u(params.prefactor_u) restores the monomial, giving
    d_{s,j}.
    """
    return _pf_table(params.A, params.r, params.n)


def reconstruction_check(params: Params) -> bool:
    """Exact identity: the partial fractions re-sum to the kernel.

    Done on the integer-power kernel (the normalizing monomial scales
    both sides identically), at pole order A."""
    A, n = params.A, params.n
    numer = _hat_kernel(A, params.r, n).dense()
    return pf_reconstruct(numer, partial_fractions(params), n + 1, A)


def kernel_symmetry_check(params: Params) -> bool:
    """Exact identity R(q^n T; 1/q) = R(T; q).

    Both sides share the same denominator factor set {1 - q^i T}, so the
    check compares the two numerator coefficient lists: the left side is
    built from its own formula (base 1/q and argument q^n T, with
    (1/q; 1/q)_n = (q^-n; q)_n), the right side is the kernel numerator
    that the partial fractions expand, with the normalizing monomial
    restored.  UPoly is canonical, so == decides each equality."""
    A, r, n = params.A, params.r, params.n
    coeffs = linear_product([n + i for i in range(1, r * n + 1)]
                            + [n - i for i in range(n + 1, n + r * n + 1)])
    pre = (qpoch(UPoly.q_power(-n), n) ** (A - 2 * r)).shift_u(
        (A - 2 * r) * n // 2 + n * n * (A - 2 * r))
    lhs = [UPoly.zero()] * ((A - 2 * r) * n // 2) + [pre * c for c in coeffs]
    rhs = [c.shift_u(params.prefactor_u) for c in _hat_kernel(A, r, n).dense()]
    return lhs == rhs


def d_symmetry_check(params: Params) -> bool:
    """Exact pole symmetry d_{s, n-j}(q) = d_{s, j}(1/q) for all s, j: the
    z-reciprocity of every P_s, which is this identity for one s."""
    return all(p_reciprocity_check(params, s) for s in range(1, params.A + 1))


# ----------------------------------------------------------------------
# The z-polynomials P_s(z) and the symmetrized coefficients P_s^[eps].

def p_reciprocity_check(params: Params, s: int) -> bool:
    """Exact z-reciprocity z^n q^(-n) P_s(1/z; 1/q) = P_s(z; q), 1 <= s <= A,
    for P_s(z) = sum_j c_j z^j, c_j = d_{s,j} q^(-j).

    Coefficientwise: q^(-n) * c_{n-i}(1/q) = c_i(q), that is
    d_{s,n-i}(1/q) = d_{s,i}(q) for d_{s,j} = rows[j][s] u^prefactor_u,
    read on the hat rows of partial_fractions.

    The check reads the fields of the reduced rows and builds no QFrac or
    UPoly of its own.  It relies on one condition: a reduced QFrac
    num / prod Phi_l^e_l is canonical (the Phi_l are irreducible, none
    divides a reduced numerator, and a UPoly is canonical), so two
    reduced QFracs are equal exactly when their fields are.  Since
    Phi_1(1/q) = -q^(-1) Phi_1(q) and Phi_l(1/q) = q^(-phi(l)) Phi_l(q)
    for l >= 2, a(1/q) for a = x / prod Phi_l^e_l is the reduced QFrac
    over the same denominator whose numerator has x's coefficients
    reversed, negated when e_1 is odd, from the u-power
    -(x.lo + 2(len(x.v) - 1)) + 2 deg up, deg = sum_l phi(l) e_l.  With
    the u-shifts prefactor_u - 2j of c_j on both sides, n and i cancel:
    the hat row Y = rows[i][s] must have the fields of X = rows[n-i][s]
    so transformed, its lowest power moved by -2 prefactor_u, or both
    must be zero.  The map is an involution, so the pairs with i <= n/2
    decide the rest.
    """
    if not 1 <= s <= params.A:
        raise ValueError(f"s must be in 1..{params.A}, got {s}")
    rows = partial_fractions(params)
    n, pu = params.n, params.prefactor_u
    for i in range(n // 2 + 1):
        a, b = rows[n - i][s], rows[i][s]
        x, y = a.num, b.num
        if not x.v:
            if y.v:
                return False
            continue
        e = a.den.e
        if (e != b.den.e or x.den != y.den or len(x.v) != len(y.v)
                or y.lo != -(x.lo + 2 * (len(x.v) - 1)) + 2 * a.den.degree_q() - 2 * pu):
            return False
        if y.v != (x.v[::-1] if e.get(1, 0) % 2 == 0 else [-c for c in reversed(x.v)]):
            return False
    return True


def p1_at_one_check(params: Params) -> bool:
    """Exact vanishing P_1(1; q) = sum_j d_{1,j} q^(-j) = 0, summed over
    the hat rows (the normalizing monomial does not change whether it
    vanishes).  Once _assemble_eps has summed the table, it reads P_1(1)
    from the table's memo instead of summing column 1 again."""
    rows = partial_fractions(params)
    if rows.sums is not None:
        return rows.sums[0][1].is_zero()
    return UPolyRing.pole_sums(rows, params.n, params.A).at_one(1).is_zero()


# perfbench/tracer.py labels _assemble_eps calls by this name.
_FractionOps = FractionRing


def _assemble_eps(dval: _Rows, A: int, n: int, eps: int, ring):
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

    The sums over j come from ring.pole_sums; over FractionRing they are
    integers over one denominator, and each output is one Fraction.  All
    but the last two lines are eps-free: they are built once per table
    and kept, unreduced, in dval.sums; only this eps is combined and valued.
    """
    if dval.sums is None:
        sums = ring.pole_sums(dval, n, A)
        inv = sums.cumulative({s: (1 if s % 2 else -1, (s - 1,), s) for s in range(1, A + 1)},
                              reverse=True)
        dval.sums = ({k: sums.at_one(k) for k in range(1, A + 1)},
                     sums.cumulative({s: (-1, (1,), s) for s in range(1, A + 1)}),
                     inv + sums.at_one(1, derivative=True), sums.value)
    pk1, p0_plain, p0_flip, value = dval.sums
    p0 = p0_plain + (-1 if eps else 1) * p0_flip
    ps = {s: sum(alpha_weight(k, s) * pk1[k] for k in range(s, A + 1))
          for s in range(2, A + 1) if s % 2 == eps % 2}
    return value(p0), {s: value(v) for s, v in ps.items()}


@lru_cache(maxsize=None)
def _p_eps_hat(A: int, r: int, n: int, eps: int):
    p0, ps = _assemble_eps(_pf_table(A, r, n), A, n, eps, UPolyRing)
    return p0.reduced(), {s: v.reduced() for s, v in ps.items()}


def P_eps_hat(params: Params) -> dict:
    """Hat-normalized symmetrized coefficients {0: P0, s: Ps, ...}, QFrac."""
    p0, ps = _p_eps_hat(params.A, params.r, params.n, params.eps)
    return {0: p0, **ps}


def P_eps(params: Params) -> dict:
    """Symmetrized coefficients with the normalizing monomial restored."""
    return {s: v.shift_u(params.prefactor_u) for s, v in P_eps_hat(params).items()}


@lru_cache(maxsize=None)
def _pf_values(A: int, r: int, n: int, q0: Fraction):
    """Hat partial-fraction values at an exact rational q0 (fast path)."""
    return _Rows(pf_extract(_hat_kernel(A, r, n), n + 1, A, FractionRing(q0)))


@lru_cache(maxsize=None)
def P_eps_values_hat(A: int, r: int, n: int, eps: int, q0: Fraction):
    """Exact Fractions: hat P0^[eps] and {s: hat Ps^[eps]} at q = q0;
    q0 = 0, 1 and -1 raise ValueError."""
    Params(A, r, n, eps)  # validates (A, r, n, eps) before any arithmetic
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

    Three routes, one rule: for q0 > 1/2 the pairs (k, j) of the double
    sum sum_{k,j>=1} k^(s-1) q0^(kj) are grouped by min(k, j)
    (_zeta_q_clausen), which needs about the square root of the terms of
    the direct series; for -1/2 <= q0 <= 1/2 the direct series
    k^(s-1) q0^k/(1 - q0^k) is summed (_zeta_q_series); for q0 < -1/2 the
    value is an exact combination of zeta_x, zeta_(x^2) and zeta_(x^4),
    x = -q0, each summed by one of the first two routes (_zeta_q_minus).
    The Clausen terms alternate in sign for q0 < 0, and their ratio bound
    holds only for positive terms, so they never see a negative q0.  Every
    route stops once the certified tail is below tol, by default
    2^-(prec+8).  A q0 that rounds to +-1 at the working precision, where
    the first term would divide by 1 - q = 0, raises PrecisionError
    before any term.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"need an integer s >= 1, got {s!r}")
    if tol is not None and not tol > 0:
        raise ValueError(f"need tol > 0, got {tol}")
    q0 = Fraction(q0)
    with mp.workprec(working_prec(prec)):
        if q0 == 0:
            return mpf(0)
        q0 = _check_q0(q0)
        if tol is None:
            tol = mpf(2) ** (-(prec + 8))
        qm = mpf(q0.numerator) / q0.denominator
        if abs(qm) >= 1:
            raise PrecisionError(f"q0 = {q0} rounds to {qm} at {mp.prec} bits; "
                                 "raise prec to separate it from +-1")
        if q0 < Fraction(-1, 2):
            return +_zeta_q_minus(s, -q0, prec, tol)
        series = _zeta_q_clausen if q0 > Fraction(1, 2) else _zeta_q_series
        terms, bound, limit = series(s, qm)
        return +sum_with_tail(terms, bound, tol, limit=limit)


def _zeta_q_minus(s: int, x: Fraction, prec: int, tol) -> mpf:
    """zeta_q(s) at q = -x, 1/2 < x < 1, by the exact base change

        zeta_(-x)(s) = -zeta_x(s) + (2^s + 2) zeta_(x^2)(s) - 2^s zeta_(x^4)(s):

    split sum_k k^(s-1) q^k/(1 - q^k) by the parity of k and write each odd
    term with x^k/(1 + x^k) = x^k/(1 - x^k) - 2 x^(2k)/(1 - x^(2k)).  Each
    zeta_(x^e) is certified to tol 2^-(2 + bits(c)), c its coefficient, so
    the three tails add to less than tol.  As x -> 1, zeta_(x^e)(s) is
    about Gamma(s) zeta(s)/(e t)^s, t = -log x, and the combination keeps
    about 2^-s of the first term: the three values and their combination
    are taken s + 2 bits wider."""
    wide = prec + s + 2
    with mp.workprec(working_prec(wide)):
        total = mpf(0)
        for c, e in ((-1, 1), (2 ** s + 2, 2), (-(2 ** s), 4)):
            part_tol = mp.ldexp(tol, -(2 + abs(c).bit_length()))
            total += c * zeta_q(s, x ** e, wide, part_tol)
        return total


def _zeta_q_series(s: int, qm):
    """The terms of zeta_q(s) at q = qm, their ratio bound and its limit.

    The ratio of consecutive terms is bounded by ((k+1)/k)^(s-1) |q0|
    (1+|q0|^k)/(1-|q0|^(k+1)), which decreases in k to |q0|, so it is a
    valid geometric bound for the whole tail.  k^(s-1) is an exact int.
    The terms are kernel pairs at the precision of the first one taken.

    One fused loop builds term k as pdiv(pmul_int(q^k, k^(s-1)), 1 - q^k)
    with q^k = pmul(q^(k-1), q), each step rounded inline by the rule of
    its kernel operation, so every term is that expression's pair, bit for
    bit.  1 - q^k is padd(1, -q^k): 1 has exponent 0 above q^k's, and
    once q^k lies below 2^-(p+1), more than p + 4 bits under 1, it is
    replaced by the sticky bit -sign(q^k) 2^-(p+2).
    """
    aq = abs(qm)

    def terms():
        p = mp.prec
        qmant, qexp = from_mpf(qm)
        m, e = 1, 0     # q^k
        k = 1
        while True:
            # q^k = q^(k-1) q, rounded as pmul rounds it
            m, e = m * qmant, e + qexp
            d = m.bit_length() - p
            if d > 0:
                h = m >> d - 1
                m = (h + 1) >> 1 if h & 1 and (h & 2 or m & (1 << d - 1) - 1) else h >> 1
                e += d
            # k^(s-1) q^k, as pmul_int
            nm, ne = m * k ** (s - 1), e
            d = nm.bit_length() - p
            if d > 0:
                h = nm >> d - 1
                nm = (h + 1) >> 1 if h & 1 and (h & 2 or nm & (1 << d - 1) - 1) else h >> 1
                ne += d
            # 1 - q^k, as padd(PONE, (-m, e)): e < 0, so no swap
            off, dm, de = -e, -m, e
            if off > p + 4 and e + m.bit_length() <= -p - 1:
                off, dm, de = p + 2, (-1 if m > 0 else 1), -p - 2
            dm += 1 << off
            d = dm.bit_length() - p
            if d > 0:
                h = dm >> d - 1
                dm = (h + 1) >> 1 if h & 1 and (h & 2 or dm & (1 << d - 1) - 1) else h >> 1
                de += d
            # the quotient, as pdiv: 1 - q^k > 0, so the sign is q^k's
            neg = nm < 0
            extra = p + 1 - nm.bit_length() + dm.bit_length()
            if extra < 0:
                extra = 0
            quo, rem = divmod(-nm << extra if neg else nm << extra, dm)
            if rem:
                quo = (quo << 1) | 1
                extra += 1
            if neg:
                quo = -quo
            te = ne - de - extra
            d = quo.bit_length() - p
            if d > 0:
                h = quo >> d - 1
                quo = (h + 1) >> 1 if h & 1 and (h & 2 or quo & (1 << d - 1) - 1) else h >> 1
                te += d
            yield quo, te
            k += 1

    def bound(i):
        k = i + 1
        return (mpf(k + 1) / k) ** (s - 1) * aq * (1 + aq ** k) / (1 - aq ** (k + 1))

    return terms(), bound, aq


def _zeta_q_clausen(s: int, qm):
    """The terms of zeta_q(s) at q = qm, 0 < qm < 1, grouped along the
    hyperbola, their ratio bound and its limit (Clausen's rearrangement of
    a Lambert series; Dirichlet's hyperbola method, Hardy & Wright 18.2).

    zeta_q(s) = sum_{k,j>=1} k^(s-1) q^(kj).  Term m >= 1 is the sum over
    the pairs with min(k, j) = m.  With x = q^m and c = m + 1,

        T_m = q^(m^2) m^(s-1)/(1 - x)         the pairs (m, j), j >= m
            + x^c N_s(c, x)/(1 - x)^s          the pairs (k, m), k > m,

    where sum_{k>=c} k^(s-1) x^k = x^c N_s(c, x)/(1 - x)^s and
    N_s(c, x) = sum_{j<s} a_j x^j, a_j = sum_{l<=j} (-1)^l C(s,l)
    (c+j-l)^(s-1).  The second part is evaluated in the equal form
    x^c/(1 - x) sum_{j<s} d_j y^j, y = x/(1 - x), with d_j the j-th
    forward difference of i -> (c+i)^(s-1) at 0: the d_j are
    nonnegative ints, so no step cancels.  Every T_m is positive.

    The ratio bound: (m+1, j) -> (m, j) and (k, m+1) -> (k, m), k > m+1,
    map the pairs with min m+1 injectively (the images have first
    coordinate m, or at least m+2) into those with min m, and each
    weight falls by ((m+1)/m)^(s-1) q^j <= ((m+1)/m)^(s-1) q^(m+1) or
    by q^k <= q^(m+2).  So T_(m+1) <= ((m+1)/m)^(s-1) q^(m+1) T_m, a
    bound that decreases in m to 0.  It is returned as a kernel pair at
    most s + 64 bits wide and never below the exact bound at the dyadic
    q: q^(m+1) is a running product of q rounded up to 64 bits, each step
    rounded up to 64 bits, and the factor ((m+1)/m)^(s-1) is applied by
    one ceiling division, so a term costs one small product and no mpf
    operation.  For q < 0 the weights q^(kj) change sign and the map
    bounds nothing, so negative q never come here.

    The terms fall like q^(m^2): about sqrt(bits/(1-q)) of them, against
    bits/(1-q) for the direct series.  They are kernel pairs at the
    precision of the first one taken; 1 - q^m is accumulated as
    1 - q^(m+1) = (1 - q^m) + q^m (1 - q), without cancellation.
    """
    def terms():
        p = mp.prec
        q = from_mpf(qm)
        om1 = psub(PONE, q, p)   # exact: 1/2 < q < 1 has at most p bits
        x, om, qmm = q, om1, q   # q^m, 1 - q^m, q^(m^2)
        lead = 1                 # m^(s-1)
        diffs = [(2 + i) ** (s - 1) for i in range(s)]
        for j in range(1, s):
            for i in range(s - 1, j - 1, -1):
                diffs[i] -= diffs[i - 1]
        while True:
            y = pdiv(x, om, p)
            h = (diffs[-1], 0)
            for dj in reversed(diffs[:-1]):
                h = padd(pmul(h, y, p), (dj, 0), p)
            yield pdiv(pmul(qmm, padd((lead, 0), pmul(x, h, p), p), p), om, p)
            # c -> c + 1: d_j(c + 1) = d_j(c) + d_(j+1)(c), all exact ints
            lead = diffs[0]
            for j in range(s - 1):
                diffs[j] += diffs[j + 1]
            xn = pmul(x, q, p)
            qmm = pmul(pmul(qmm, x, p), xn, p)
            om = padd(om, pmul(x, om1, p), p)
            x = xn

    qup = _mul_up(from_mpf(qm), PONE)   # q rounded up to 64 bits
    at, pw = 1, _mul_up(qup, qup)       # pw >= q^(at+1), a running product

    def bound(i):
        nonlocal at, pw
        m = i + 1
        if m < at:
            at, pw = 1, _mul_up(qup, qup)
        while at < m:
            at, pw = at + 1, _mul_up(pw, qup)
        return -(-pw[0] * (m + 1) ** (s - 1) // m ** (s - 1)), pw[1]

    return terms(), bound, 0


def _mul_up(x: tuple, y: tuple) -> tuple:
    """x y for pairs with positive mantissas, rounded up to 64 bits."""
    m, e = x[0] * y[0], x[1] + y[1]
    n = m.bit_length() - 64
    return (m, e) if n <= 0 else (-(-m >> n), e + n)


def _kernel_terms(A: int, r: int, n: int, eps: int, q: tuple, p: int):
    """The terms of S_eps_hat_numeric at q, a kernel pair of at most p
    bits: for k = rn+1, rn+2, ... the integer-power kernel summand times
    the bracket, by direct product,

        q^(k lead) prod_{i=1..n} (1 - q^i)^(A-2r)
            prod_{i<rn} (1 - q^(k-rn+i)) (1 - q^(k+n+1+i))
            / (prod_{i<=n} (1 - q^(k+i)))^A  (1 +- q^(ak+b)),

    lead = (A-2r)n/2 + 1, a = A - 2 and b = (A/2-1)n, multiplied in that
    order and each product rounded in place as pmul rounds it; the pole
    product starts at 1 - q^k, which the product by one would leave as it
    is.  q^e is a running product of q.  The k-free powers (1 - q^i)^(A-2r)
    are computed once, and so is each 1 - q^m and each numerator pair
    (1 - q^m)(1 - q^(m+n+1+rn)): om holds 1 - q^m for m = k..k+n+rn+1 and
    num the powers, then the pairs m = k-rn..k-1, and both slide with k.
    So every term is the pair that building it from scratch gives."""
    rn, lead, a, b = r * n, (A - 2 * r) * n // 2 + 1, A - 2, (A // 2 - 1) * n
    qm, qe = q
    pw = [PONE]     # pw[e] = q^e

    def power(top):
        m, e = pw[-1]
        for _ in range(top + 1 - len(pw)):
            m, e = m * qm, e + qe
            d = m.bit_length() - p
            if d > 0:
                h = m >> d - 1
                m = (h + 1) >> 1 if h & 1 and (h & 2 or m & (1 << d - 1) - 1) else h >> 1
                e += d
            pw.append((m, e))
        return pw[top]

    k = rn + 1
    num = [ppow(psub(PONE, power(i), p), A - 2 * r, p) for i in range(1, n + 1)]
    num += [pmul(psub(PONE, power(m), p), psub(PONE, power(m + n + 1 + rn), p), p)
            for m in range(1, k)]
    om = [psub(PONE, power(m), p) for m in range(k, k + n + rn + 2)]
    sign = -1 if eps else 1
    while True:
        power(max(k * lead, a * k + b, k + n + rn + 2))
        vm, ve = pw[k * lead]
        for fm, fe in num:
            vm, ve = vm * fm, ve + fe
            d = vm.bit_length() - p
            if d > 0:
                h = vm >> d - 1
                vm = (h + 1) >> 1 if h & 1 and (h & 2 or vm & (1 << d - 1) - 1) else h >> 1
                ve += d
        pm, pe = om[0]
        for fm, fe in om[1:n + 1]:
            pm, pe = pm * fm, pe + fe
            d = pm.bit_length() - p
            if d > 0:
                h = pm >> d - 1
                pm = (h + 1) >> 1 if h & 1 and (h & 2 or pm & (1 << d - 1) - 1) else h >> 1
                pe += d
        bm, be = pw[a * k + b]
        yield pmul(pdiv((vm, ve), ppow((pm, pe), A, p), p), padd(PONE, (sign * bm, be), p), p)
        if rn:
            del num[n]
            num.append(pmul(om[0], om[n + 1 + rn], p))
        del om[0]
        k += 1
        bm, be = pw[k + n + rn + 1]
        om.append(padd(PONE, (-bm, be), p))


def S_eps_hat_numeric(params: Params, q0: Fraction, prec: int = DEFAULT_PREC) -> mpf:
    """The symmetrized kernel series, integer-power normalization:

        sum_{k > rn} q^k R_hat(q^k) (1 + (-1)^eps q^((A/2-1)(n+2k))),

    its tail certified to 2^-(prec+8); _kernel_terms gives the terms.
    Valid for any rational 0 < |q0| < 1 (negative q0 included).  At A = 2
    the bracket is 1 +- q^0, and each term is still multiplied by it:
    doubling the finished sum would change the stop test.
    """
    A, r, n, eps = params.A, params.r, params.n, params.eps
    q0 = _check_q0(q0)
    with mp.workprec(working_prec(prec)):
        if A == 2 and eps:
            return mpf(0)  # the bracket 1 - q^0 vanishes identically
        a, b = A - 2, (A // 2 - 1) * n   # the bracket's exponent ak + b
        tol = mpf(2) ** (-(prec + 8))
        qm = mpf(q0.numerator) / q0.denominator
        aq = abs(qm)
        lead = aq ** ((A - 2 * r) * n // 2 + 1)

        def bound(i):
            # a decreasing-in-k bound on |rho_{k+1}/rho_k|, valid for the
            # whole tail, with limit lead (each factor after lead is >= 1),
            # times for a > 0 the bracket's (1 + |q|^(a(k+1)+b))/(1 - |q|^(ak+b))
            k = r * n + 1 + i
            bk = (lead * (1 + aq ** (k + n + 1 + r * n)) / (1 - aq ** (k - r * n))
                  * ((1 + aq ** k) / (1 - aq ** (k + n + 1))) ** (A + 1))
            if a:
                bk *= (1 + aq ** (a * (k + 1) + b)) / (1 - aq ** (a * k + b))
            return bk

        return +sum_with_tail(_kernel_terms(A, r, n, eps, from_mpf(qm), mp.prec),
                              bound, tol, limit=lead)


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
    working_prec(prec)  # rejects prec < 1 before the exact coefficients
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


def _inv_clearer(exps: dict, scalar: int = 1, shift: int = 0) -> tuple:
    """scalar u^shift prod_l Phi_l(1/q)^exps[l] as a clearer (c, k, phis),
    c u^k prod_l Phi_l^(P_l), by Phi_l(1/q) = q^-phi(l) Phi_l, -q^-1 Phi_1."""
    phis = PhiProduct(exps)
    return (-1) ** phis.e.get(1, 0) * scalar, shift - 2 * phis.degree_q(), phis


def _clearer(A: int, r: int, n: int, power: int, shaved: bool = False) -> tuple:
    """(A-1)! q^E d_n(1/q)^power, E = D_exponent, over Phi_n(1/q) if shaved."""
    u_exp = 2 * D_exponent(A, r, n)
    assert u_exp.denominator == 1, "denominator monomial must be a u-power"
    exps = {l: power - (shaved and l == n) for l in range(1, n + 1)}
    return _inv_clearer(exps, factorial(A - 1), int(u_exp))


def D_n(params: Params) -> UPoly:
    """(A-1)! q^E d_n(1/q)^A with E = D_exponent; exact UPoly in u."""
    c, k, phis = _clearer(params.A, params.r, params.n, params.A)
    return (c * phis.expand()).shift_u(k)


def _cleared(form: QFrac, clearer: tuple):
    """form times the clearer (c, k, phis), a Laurent polynomial, or None.
    A reduced num / prod Phi_l^(e_l) has no Phi_l of its denominator in num,
    so it clears iff every e_l <= P_l, to c u^k num prod Phi_l^(P_l - e_l)."""
    c, k, phis = clearer
    if any(e > phis.e.get(l, 0) for l, e in form.den.e.items()):
        return None
    return (c * (form.num * phis.cofactor(form.den).expand())).shift_u(k)


def _clearing_check(clearer: tuple, forms: dict) -> dict:
    """Multiply each reduced coefficient by the clearer and test membership
    in Z[1/q]: Phi exponents at most the clearer's (see _cleared), integer
    coefficients, even u-exponents, no positive q-powers."""
    out = {}
    for s, frac in sorted(forms.items()):
        w = _cleared(frac, clearer)
        if w is None:
            out[s] = {"ok": False, "reason": "denominator does not clear",
                      "witness": None}
            continue
        bits = []
        if not w.only_even_exponents():
            bits.append("odd u-powers")
        if not w.coefficients_integral():
            bits.append("non-integer coefficients")
        if not (w.is_zero() or w.max_exp() <= 0):
            bits.append(f"positive q-power up to u^{w.max_exp()}")
        out[s] = {"ok": not bits, "reason": ", ".join(bits) or None, "witness": w}
    return out


def denominator_check(params: Params) -> dict:
    """Exact check D_n * P_s^[eps] in Z[1/q] for every s in the form, by
    Phi exponents (see _cleared); both eps share one set of pole sums
    (see _assemble_eps)."""
    results = _clearing_check(_clearer(params.A, params.r, params.n, params.A), P_eps(params))
    return {
        "params": params,
        "pass": all(v["ok"] for v in results.values()),
        "per_s": results,
    }


def denominator_probe(A: int, r: int, n_range) -> list:
    """The rows `qzeta denom-probe` prints, two per eps and one for both.

    exact_pass is denominator_check.  The sharpness row divides D_n by
    one extra factor Phi_n(1/q); a failure witnesses that the d_n-power A
    cannot be lowered by a single cyclotomic at this n.  The conjecture
    row applies the smaller denominator with d_n-power A-1 to the
    symmetrized-form coefficients of both eps; it provably clears the
    alternative very-well-poised series' coefficients, which coincide
    with these for A = 4, r = 1 only, so the outcome is recorded, not
    asserted.
    """
    rows = []
    for n in n_range:
        Params(A, r, n)  # validates (A, r, n) before the n >= 1 rule
        if n < 1:
            raise ValueError("sharpness probe needs n >= 1")
        dtilde = _clearer(A, r, n, A - 1)
        shaved = _clearer(A, r, n, A, shaved=True)
        conjecture = {}
        for eps in (0, 1):
            params = Params(A, r, n, eps)
            forms = P_eps(params)
            sharp = [s for s, v in _clearing_check(shaved, forms).items() if not v["ok"]]
            conjecture[eps] = [s for s, v in _clearing_check(dtilde, forms).items()
                               if not v["ok"]]
            rows.append({"n": n, "eps": eps,
                         "exact_pass": denominator_check(params)["pass"],
                         "sharpness_all_pass": not sharp,
                         "sharpness_failing_s": sharp})
        rows.append({"n": n, "eps": "both",
                     "conjecture_all_pass": not any(conjecture.values()),
                     "conjecture_failing": conjecture})
    return rows


# ----------------------------------------------------------------------
# Report.

def linear_form_report(params: Params, q0: Fraction,
                       prec: int = DEFAULT_PREC) -> dict:
    """Complete verification at one (params, q0): the numeric identity
    residual, the exact denominator check and the hat coefficients at q0.

    Values are ints, Fractions and mpf; `qzeta linform` prints this dict
    with its command, tolerance exponent and residual verdict added.  The
    symbolic coefficients and the clearing witnesses are P_eps and
    denominator_check."""
    q0 = _check_q0(q0)
    res = identity_residual(params, q0, prec)
    return {
        "A": params.A, "r": params.r, "n": params.n, "eps": params.eps,
        "q": q0,
        "prec": prec,
        "residual": res["residual"],
        "denominator_pass": denominator_check(params)["pass"],
        "P0": res["P0_hat"],
        "P": res["P_hat"],
        "working_prec": res["working_prec"],
    }
