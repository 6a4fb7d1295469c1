"""Certified numeric summation and exact truncated-series machinery.

Floating point work is delegated to mpmath (arbitrary-precision binary
floats); this module pins down the conventions: explicit precision in
bits, a fixed reserve of guard bits, and scale-aware working precision so
that residuals of badly cancelling combinations are still certified at
the requested tolerance.

The exact half is one T-polynomial layer (tmul, tmul_linear, tdiv_linear,
tpow) that is deliberately generic, and one exact-ring protocol with two
rings: UPolyRing (symbolic q) and FractionRing (q specialized to a
rational q0).  The partial-fraction extractor and its reconstruction
check, built on top of them, are shared by the main linear-form kernel
and the weight-3 kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mpmath import mpf

from .qcomb import PhiProduct, QFrac
from .upoly import ExactArithError, ExactDivisionError, UPoly


DEFAULT_PREC = 256
GUARD_BITS = 32


class DivergenceError(ExactArithError):
    """Series terms stopped decreasing; the sum cannot be certified."""


class PrecisionError(ExactArithError):
    """The requested tolerance could not be certified."""


def working_prec(prec: int, scale_log2: float = 0.0) -> int:
    """Working precision in bits: requested precision plus guard bits plus
    headroom for the magnitude of the largest intermediate quantity."""
    extra = int(scale_log2) + 1 if scale_log2 > 0 else 0
    return prec + GUARD_BITS + extra


def sum_with_tail(terms, ratio_bound, tol, max_terms: int = 200000):
    """Sum terms with a certified geometric tail bound.

    terms: iterable of mpf values.  ratio_bound: a constant r < 1 with
    |t_{k+1}| <= r |t_k| eventually, or a callable k -> bound valid for
    all later indices.  Summation stops once |t_k| * r/(1-r) < tol.
    Non-decreasing |t_k| beyond a cutoff raises DivergenceError.
    """
    total = mpf(0)
    prev_abs = None
    grow = 0
    for k, t in enumerate(terms):
        total += t
        ta = abs(t)
        r = ratio_bound(k) if callable(ratio_bound) else ratio_bound
        if r is not None and 0 <= r < 1 and ta * r / (1 - r) < tol:
            return total
        if prev_abs is not None and ta >= prev_abs and ta > tol:
            grow += 1
            if grow > 64:
                raise DivergenceError("terms stopped decreasing; no certified tail")
        else:
            grow = 0
        prev_abs = ta
        if k >= max_terms:
            raise PrecisionError(f"no certified tail after {max_terms} terms")
    return total


# ----------------------------------------------------------------------
# Dense T-polynomials over a generic coefficient ring: ascending
# coefficient lists whose entries support + - * and integer scalars.

def tmul(a: list, b: list, order: int | None = None) -> list:
    """a(T) * b(T), or its residue mod T^order (padded to order terms)."""
    size = len(a) + len(b) - 1 if order is None else order
    out = [a[0] * 0] * size
    for i, ai in enumerate(a):
        if i >= size:
            break
        if not ai:
            continue
        top = min(size - i, len(b))
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def tmul_linear(a: list, c) -> list:
    """a(T) * (1 - c T)."""
    return [a[0]] + [a[i] - c * a[i - 1] for i in range(1, len(a))] + [-(c * a[-1])]


def tdiv_linear(a: list, c) -> list:
    """Exact quotient a(T) / (1 - c T); ExactDivisionError on a remainder."""
    out = [a[0]]
    for x in a[1:]:
        out.append(x + c * out[-1])
    if out.pop():
        raise ExactDivisionError(f"1 - ({c!r}) T does not divide")
    return out


def tpow(a: list, k: int) -> list:
    """a(T)^k by repeated multiplication."""
    out = [a[0] ** 0]
    for _ in range(k):
        out = tmul(out, a)
    return out


# ----------------------------------------------------------------------
# The exact-ring protocol.  pf_extract and the coefficient assembly in
# linform run unchanged over either ring:
#     one, zero               -- units of the coefficient ring
#     qpow(m)                 -- the element q^m, m any integer
#     divexact(a, b)          -- a / b, known to be exact
#     div_one_minus_qpow(x, m, p) -- x / (1 - q^m)^p in the fraction field
# UPolyRing is the symbolic ring Q[u, 1/u] (fractions are QFrac, with
# cyclotomic denominators); FractionRing(q0) specializes q = q0.

class UPolyRing:
    one = UPoly.one()
    zero = UPoly.zero()

    @staticmethod
    def qpow(m: int) -> UPoly:
        return UPoly.q_power(m)

    @staticmethod
    def divexact(a: UPoly, b: UPoly) -> UPoly:
        return a.divexact(b)

    @staticmethod
    def div_one_minus_qpow(x, m: int, p: int) -> QFrac:
        return (x if isinstance(x, QFrac) else QFrac(x)).div_one_minus_qpow(m, p)


class FractionRing:
    def __init__(self, q0: Fraction):
        self.q0 = Fraction(q0)
        self.one = Fraction(1)
        self.zero = Fraction(0)

    def qpow(self, m: int) -> Fraction:
        return self.q0 ** m

    @staticmethod
    def divexact(a: Fraction, b: Fraction) -> Fraction:
        return a / b

    def div_one_minus_qpow(self, x: Fraction, m: int, p: int) -> Fraction:
        return x / (1 - self.q0 ** m) ** p


# ----------------------------------------------------------------------
# Partial fractions over poles of equal order at T = q^(-j).

def pf_extract(numer_T, pole_count: int, order: int, ring) -> tuple[list, list]:
    """Partial fractions of numer(T) / prod_{i=0}^{pole_count-1} (1 - q^i T)^order.

    numer_T: dense T-coefficients (ring elements, ascending); ring: one of
    the two rings above (one, zero, qpow and divexact are used).

    Returns (dhat, bases) where dhat[j][s] for s in 1..order is the
    numerator of the coefficient of 1/(1 - q^j T)^s and bases[j] is the
    tuple of offsets m = i - j over the other poles i; the true
    coefficient is
        dhat[j][s] / prod_m (1 - q^m)^(2*order - s).

    Writing V = 1 - q^j T, the product of (numer / other poles) evaluated
    at T = q^(-j)(1 - V) is regular at V = 0 and its V^(order-s)
    coefficient is exactly the sought d-coefficient, with no sign
    bookkeeping.  The other-poles product P(V) = prod ((1-q^m) + q^m V)^order
    is inverted as a power series over the base c = prod (1 - q^m): with
    1/P = sum_k f_k / c^(order+k) V^k the f_k are polynomials satisfying
        f_0 = 1,  c^order f_k = -sum_{t=1..k} p_t f_{k-t} c^t,
    one exact division by c^order per coefficient; every denominator stays
    a known product of (1 - q^m) factors.
    """
    one, zero = ring.one, ring.zero
    dhat = []
    bases = []
    for j in range(pole_count):
        qj = ring.qpow(-j)
        # numer(q^-j (1 - V)) mod V^order, by Horner in (1 - V)
        s = [zero] * order
        for cval in reversed(numer_T):
            new = [zero] * order
            for i, si in enumerate(s):
                if si:
                    t = qj * si
                    new[i] = new[i] + t
                    if i + 1 < order:
                        new[i + 1] = new[i + 1] - t
            new[0] = new[0] + cval
            s = new
        # P(V) = prod_{i != j} ((1 - q^m) + q^m V)^order mod V^order,
        # c = prod_{i != j} (1 - q^m)
        pv = [one] + [zero] * (order - 1)
        cbase = one
        offs = []
        for i in range(pole_count):
            if i == j:
                continue
            m = i - j
            offs.append(m)
            qm = ring.qpow(m)
            om = one - qm
            cbase = cbase * om
            ompows = [one]
            for _ in range(order):
                ompows.append(ompows[-1] * om)
            fac = []
            qmk = one
            for k in range(order):
                fac.append(comb(order, k) * ompows[order - k] * qmk)
                qmk = qmk * qm
            pv = tmul(pv, fac, order)
        cpows = [one]
        for _ in range(order):
            cpows.append(cpows[-1] * cbase)
        # scaled inverse series: 1/P = sum f_k / c^(order+k) V^k
        f = [one]
        for k in range(1, order):
            acc = zero
            for t in range(1, k + 1):
                if pv[t]:
                    acc = acc + pv[t] * f[k - t] * cpows[t]
            f.append(ring.divexact(-acc, cpows[order]) if acc else zero)
        # (numer shift) * inverse; the V^(order-s) coefficient over the
        # common denominator c^(2*order - s):
        # sum_{t+u = order-s} n_t f_u / c^(order+u) =
        #     [sum_t n_t c^t f_(order-s-t)] / c^(2*order-s).
        h = [s[t] * cpows[t] if s[t] else zero for t in range(order)]
        hf = tmul(h, f, order)
        dhat.append({sdx: hf[order - sdx] for sdx in range(1, order + 1)})
        bases.append(tuple(offs))
    return dhat, bases


def pf_reconstruct(numer, rows, pole_count: int, order: int) -> bool:
    """Exact identity: partial fractions re-sum to their kernel,

        numer(T) / prod_{j<pole_count} (1 - q^j T)^order
            = sum_j sum_{s=1..order} rows[j][s] / (1 - q^j T)^s,

    with numer dense UPoly T-coefficients and rows[j][s] QFrac.  With L
    the lcm of the row denominators it is a Laurent-polynomial identity:

        L * numer(T) = sum_j quot_j^order * sum_s n_{s,j} (1 - q^j T)^(order-s)

    where quot_j = (T;q)_{pole_count} / (1 - q^j T) and n_{s,j} is the row
    numerator rescaled to L, num * expand(L / den).
    """
    lden = PhiProduct()
    for row in rows:
        for v in row.values():
            lden = lden.lcm(v.den)
    lpoly = lden.expand()
    diff = [c * lpoly for c in numer]
    big = [UPoly.one()]
    for j in range(pole_count):
        big = tmul_linear(big, UPoly.q_power(j))
    for j, row in enumerate(rows):
        qj = UPoly.q_power(j)
        # sum_s n_s (1 - q^j T)^(order-s), by Horner in (1 - q^j T)
        nums = [row[s].num * lden.cofactor(row[s].den).expand()
                for s in range(1, order + 1)]
        srow = nums[:1]
        for n_s in nums[1:]:
            srow = tmul_linear(srow, qj)
            srow[0] = srow[0] + n_s
        term = tmul(srow, tpow(tdiv_linear(big, qj), order))
        diff += [UPoly.zero()] * (len(term) - len(diff))
        for i, t in enumerate(term):
            diff[i] = diff[i] - t
    return not any(diff)
