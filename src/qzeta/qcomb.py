"""Exact q-combinatorics: cyclotomic polynomials, q-Pochhammer symbols,
Gaussian binomials, Stirling numbers, Bernoulli numbers, and fractions
whose denominators are tracked as products of cyclotomic polynomials.

The fraction type QFrac is the workhorse of the whole package.  Partial
fraction coefficients, the combined form coefficients and the various
denominator checks all produce fractions whose denominators are, up to a
monomial, products of cyclotomic polynomials Phi_l(q).  Keeping that
factorization explicit means reduction never needs a generic polynomial
gcd: we only ever try exact division of the numerator by known Phi_l.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .upoly import ExactDivisionError, UPoly


# ----------------------------------------------------------------------
# Stirling numbers (unsigned, first kind) and the weights relating the
# symmetrized polynomial values to q-zeta coefficients.

class StirlingTable:
    """Triangular cache of unsigned Stirling numbers of the first kind.

    c(N, j) counts permutations of N elements with j cycles and satisfies
    c(N+1, j) = c(N, j-1) + N*c(N, j), with c(1, 1) = 1.  Equivalently
    x(x+1)...(x+N-1) = sum_j c(N, j) x^j.
    """

    def __init__(self):
        self._rows = [None, {1: 1}]

    def value(self, n: int, j: int) -> int:
        if n < 1:
            raise ValueError("Stirling index n must be >= 1")
        while len(self._rows) <= n:
            m = len(self._rows) - 1
            prev = self._rows[m]
            row = {}
            for jj in range(1, m + 2):
                row[jj] = prev.get(jj - 1, 0) + m * prev.get(jj, 0)
            self._rows.append(row)
        row = self._rows[n]
        if j < 1 or j > n:
            raise ValueError(f"Stirling index j={j} out of range 1..{n}")
        return row.get(j, 0)


_STIRLING = StirlingTable()


def stirling_first(n: int, j: int) -> int:
    return _STIRLING.value(n, j)


def alpha_weight(s: int, j: int) -> Fraction:
    """alpha(s, j) = 2 c(s-1, j-1) / (s-1)! for 2 <= j <= s."""
    if s < 2 or j < 2 or j > s:
        raise ValueError(f"alpha weight needs 2 <= j <= s, got s={s}, j={j}")
    return Fraction(2 * stirling_first(s - 1, j - 1), factorial(s - 1))


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2, by the defining recurrence."""
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m == 0:
        return Fraction(1)
    # sum_{k=0}^{m} C(m+1, k) B_k = 0
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli(k)
    return -acc / comb(m + 1, m)


# ----------------------------------------------------------------------
# Divisor sums (shared with the modular-forms module).

def divisor_power_sum(k: int, e: int) -> int:
    """sigma_e(k) = sum of d^e over divisors d of k."""
    if k < 1:
        raise ValueError("divisor sum needs k >= 1")
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += d ** e
            other = k // d
            if other != d:
                total += other ** e
        d += 1
    return total


@lru_cache(maxsize=None)
def _divisors(m: int) -> tuple:
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return tuple(sorted(out))


# ----------------------------------------------------------------------
# Cyclotomic polynomials and the products d_n = prod_{l<=n} Phi_l.

class CycloCache:
    """Cyclotomic polynomials Phi_l(q) and prefix products, memoized.

    Phi_l is computed by exact division: Phi_l = (q^l - 1) / prod_{d|l, d<l} Phi_d.
    The cache is grown on demand; all returned polynomials are shared and
    must be treated as immutable.
    """

    def __init__(self):
        self._phi = {}
        self._dn = [UPoly.one()]

    def phi(self, l: int) -> UPoly:
        if l < 1:
            raise ValueError("cyclotomic index must be >= 1")
        got = self._phi.get(l)
        if got is not None:
            return got
        num = UPoly({2 * l: 1, 0: -1})  # q^l - 1
        for d in _divisors(l):
            if d < l:
                num = num.divexact(self.phi(d))
        self._phi[l] = num
        return num

    def d_poly(self, n: int) -> UPoly:
        """d_n(q) = prod_{l=1}^{n} Phi_l(q)."""
        if n < 0:
            raise ValueError("d_n needs n >= 0")
        while len(self._dn) <= n:
            m = len(self._dn)
            self._dn.append(self._dn[m - 1] * self.phi(m))
        return self._dn[n]


_CYCLO = CycloCache()


def cyclotomic(l: int) -> UPoly:
    return _CYCLO.phi(l)


def d_poly(n: int) -> UPoly:
    return _CYCLO.d_poly(n)


@lru_cache(maxsize=None)
def totient(l: int) -> int:
    return (cyclotomic(l).max_exp() - cyclotomic(l).min_exp()) // 2 if l > 0 else 0


# ----------------------------------------------------------------------
# q-Pochhammer and Gaussian binomials.

def qpoch(a: UPoly, n: int, base: str = "q") -> UPoly:
    """(a; q)_n = prod_{i=0}^{n-1} (1 - a q^i), exactly.

    base='1/q' uses step q^(-1) instead, i.e. (a; 1/q)_n.
    """
    if n < 0:
        raise ValueError("q-Pochhammer length must be >= 0")
    step = 2 if base == "q" else -2
    if base not in ("q", "1/q"):
        raise ValueError("base must be 'q' or '1/q'")
    out = UPoly.one()
    cur = a
    for _ in range(n):
        out = out * (UPoly.one() - cur)
        cur = cur.shift_u(step)
    return out


@lru_cache(maxsize=None)
def qbinomial(m: int, k: int) -> UPoly:
    """Gaussian binomial [m choose k]_q, an integer polynomial in q."""
    if k < 0 or k > m:
        return UPoly.zero()
    if k == 0 or k == m:
        return UPoly.one()
    # Pascal recurrence [m k] = [m-1 k-1] + q^k [m-1 k]
    val = qbinomial(m - 1, k - 1) + UPoly.q_power(k) * qbinomial(m - 1, k)
    assert val.coefficients_integral(), "Gaussian binomial must have integer coefficients"
    return val


# ----------------------------------------------------------------------
# PhiProduct: a monic product of cyclotomic polynomials, used as the
# denominator of QFrac.  Only positive powers of Phi_l appear; monomials,
# signs and rational scalars always live in the numerator.

class PhiProduct:
    __slots__ = ("e",)

    def __init__(self, exps=None):
        self.e = {int(l): int(m) for l, m in (exps or {}).items() if m}
        assert all(m > 0 for m in self.e.values())

    @classmethod
    def one(cls) -> "PhiProduct":
        return cls()

    def is_one(self) -> bool:
        return not self.e

    def mul(self, other: "PhiProduct") -> "PhiProduct":
        out = dict(self.e)
        for l, m in other.e.items():
            out[l] = out.get(l, 0) + m
        return PhiProduct(out)

    def lcm(self, other: "PhiProduct") -> "PhiProduct":
        out = dict(self.e)
        for l, m in other.e.items():
            out[l] = max(out.get(l, 0), m)
        return PhiProduct(out)

    def cofactor(self, sub: "PhiProduct") -> "PhiProduct":
        """self / sub, assuming sub divides self exponentwise."""
        out = {}
        for l, m in self.e.items():
            rest = m - sub.e.get(l, 0)
            if rest < 0:
                raise ValueError("cofactor would have negative exponent")
            if rest:
                out[l] = rest
        return PhiProduct(out)

    def expand(self) -> UPoly:
        out = UPoly.one()
        for l in sorted(self.e):
            out = out * cyclotomic(l) ** self.e[l]
        return out

    def eval_fraction(self, q0: Fraction) -> Fraction:
        out = Fraction(1)
        for l, m in self.e.items():
            out *= cyclotomic(l).eval_fraction(q0) ** m
        return out

    def degree_q(self) -> int:
        return sum(totient(l) * m for l, m in self.e.items())

    def __eq__(self, other):
        return isinstance(other, PhiProduct) and self.e == other.e

    def __repr__(self):
        if not self.e:
            return "PhiProduct(1)"
        return "PhiProduct(" + " ".join(f"Phi_{l}^{m}" for l, m in sorted(self.e.items())) + ")"


def one_minus_qpow_factored(m: int):
    """Factor (1 - q^m), m != 0, as sign * q^shift * prod_{d | |m|} Phi_d.

    Returns (sign, q_shift, PhiProduct).  For m > 0 the factorization is
    -(q^m - 1); for m < 0 it is q^m (q^|m| - 1) after clearing the negative
    power.
    """
    if m == 0:
        raise ValueError("1 - q^0 is zero")
    phis = PhiProduct({d: 1 for d in _divisors(abs(m))})
    if m > 0:
        return -1, 0, phis
    return 1, m, phis


class QFrac:
    """Fraction num / prod Phi_l(q)^e with num a UPoly numerator.

    Closed under + - * and under division by factors of the form
    (1 - q^m); that is all the pipeline ever needs, so no polynomial gcd
    is involved.  reduced() performs trial exact division of the numerator
    by each cyclotomic in the denominator, which yields the canonical
    reduced form because cyclotomics are irreducible over Q.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: PhiProduct | None = None):
        self.num = num
        self.den = den if den is not None else PhiProduct.one()
        if num.is_zero():
            self.den = PhiProduct.one()

    @classmethod
    def zero(cls) -> "QFrac":
        return cls(UPoly.zero())

    @classmethod
    def one(cls) -> "QFrac":
        return cls(UPoly.one())

    @classmethod
    def from_fraction(cls, v) -> "QFrac":
        return cls(UPoly.const(v))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QFrac.from_fraction(other)
        if not isinstance(other, QFrac):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        den = self.den.lcm(other.den)
        a = self.num * den.cofactor(self.den).expand()
        b = other.num * den.cofactor(other.den).expand()
        return QFrac(a + b, den)

    __radd__ = __add__

    def __neg__(self):
        return QFrac(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QFrac.from_fraction(other)
        if not isinstance(other, QFrac):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QFrac(self.num * other, self.den)
        if isinstance(other, UPoly):
            return QFrac(self.num * other, self.den)
        if not isinstance(other, QFrac):
            return NotImplemented
        return QFrac(self.num * other.num, self.den.mul(other.den))

    __rmul__ = __mul__

    def mul_qpow(self, e: int) -> "QFrac":
        return QFrac(self.num.shift_u(2 * e), self.den)

    def div_one_minus_qpow(self, m: int, power: int = 1) -> "QFrac":
        """Divide by (1 - q^m)^power using the cyclotomic factorization."""
        sign, shift, phis = one_minus_qpow_factored(m)
        num = self.num.shift_u(-2 * shift * power)
        if sign == -1 and power % 2 == 1:
            num = -num
        den = self.den
        for _ in range(power):
            den = den.mul(phis)
        return QFrac(num, den)

    def reduced(self) -> "QFrac":
        if self.num.is_zero():
            return QFrac.zero()
        num = self.num
        exps = dict(self.den.e)
        for l in sorted(exps):
            phi = cyclotomic(l)
            while exps[l] > 0:
                try:
                    num = num.divexact(phi)
                except ExactDivisionError:
                    break
                exps[l] -= 1
            if not exps[l]:
                del exps[l]
        return QFrac(num, PhiProduct(exps))

    def subst_inv(self) -> "QFrac":
        """Substitute q -> 1/q, staying inside the class.

        Phi_1(1/q) = -q^(-1) Phi_1(q) and Phi_l(1/q) = q^(-phi(l)) Phi_l(q)
        for l >= 2, so the denominator keeps its shape and the numerator
        absorbs a sign and a monomial.
        """
        num = self.num.subst_inv()
        deg = self.den.degree_q()
        num = num.shift_u(2 * deg)
        if self.den.e.get(1, 0) % 2 == 1:
            num = -num
        return QFrac(num, PhiProduct(dict(self.den.e)))

    def eval_pair(self, q0: Fraction):
        dv = self.den.eval_fraction(q0)
        a, b = self.num.eval_pair(q0)
        return a / dv, b / dv

    def eval_fraction(self, q0: Fraction) -> Fraction:
        a, b = self.eval_pair(q0)
        if b != 0:
            raise ValueError("value involves sqrt(q0); use eval_pair")
        return a

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QFrac.from_fraction(other)
        if not isinstance(other, QFrac):
            return NotImplemented
        diff = self - other
        return diff.num.is_zero()

    def __repr__(self):
        return f"QFrac({self.num!r} / {self.den!r})"
