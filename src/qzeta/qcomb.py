"""Exact q-combinatorics: cyclotomic polynomials, q-Pochhammer symbols,
Stirling numbers, Bernoulli numbers, and fractions whose denominators
are tracked as products of cyclotomic polynomials.

The fraction type QFrac is the workhorse of the whole package.  Partial
fraction coefficients, the combined form coefficients and the various
denominator checks all produce fractions whose denominators are, up to a
monomial, products of cyclotomic polynomials Phi_l(q).  Keeping that
factorization explicit means reduction never needs a generic polynomial
gcd, nor any divisor but q^m - 1 = prod_{d|m} Phi_d: QFrac.reduced
cancels whole binomials q^m - 1, then single Phi_l, each written as
binomials q^d - 1 to multiply by and divide by, and each by trial
divisions that stop at the first nonzero remainder.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .upoly import ExactDivisionError, UPoly

__all__ = [
    "PhiProduct",
    "QFrac",
    "alpha_weight",
    "bernoulli",
    "cyclotomic",
    "divisor_power_sum",
    "qpoch",
    "stirling_first",
]


# ----------------------------------------------------------------------
# Stirling numbers (unsigned, first kind) and the weights relating the
# symmetrized polynomial values to q-zeta coefficients.

@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple:
    """Unsigned Stirling numbers of the first kind c(n, j), j = 0..n.

    c(N, j) counts permutations of N elements with j cycles and satisfies
    c(N+1, j) = c(N, j-1) + N*c(N, j), with c(0, 0) = 1.  Equivalently
    x(x+1)...(x+N-1) = sum_j c(N, j) x^j.
    """
    row = [1]
    for m in range(n):
        row = [m * a + b for a, b in zip(row + [0], [0] + row)]
    return tuple(row)


def stirling_first(n: int, j: int) -> int:
    if n < 1:
        raise ValueError("Stirling index n must be >= 1")
    if j < 1 or j > n:
        raise ValueError(f"Stirling index j={j} out of range 1..{n}")
    return _stirling_row(n)[j]


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


def divisor_power_sum(k: int, e: int) -> int:
    """sigma_e(k) = sum of d^e over divisors d of k."""
    if k < 1:
        raise ValueError("divisor sum needs k >= 1")
    return sum(d ** e for d in _divisors(k))


# ----------------------------------------------------------------------
# Cyclotomic polynomials and the products d_n = prod_{l<=n} Phi_l.

@lru_cache(maxsize=None)
def _q_power_minus_one(m: int) -> UPoly:
    """q^m - 1, built once per m and shared; treat it as immutable."""
    return UPoly({2 * m: 1, 0: -1})


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    """The Moebius function mu(n), from sum_{d|n} mu(d) = [n = 1]."""
    return 1 if n == 1 else -sum(map(_mobius, _divisors(n)[:-1]))


@lru_cache(maxsize=None)
def _phi_recipe(l: int) -> tuple:
    """(minus, plus): the d | l with mu(l/d) = -1 and those with
    mu(l/d) = 1, largest first, so that Phi_l = prod_{d in plus} (q^d - 1)
    / prod_{d in minus} (q^d - 1).  plus starts with l itself."""
    divs = _divisors(l)[::-1]
    return (tuple(d for d in divs if _mobius(l // d) == -1),
            tuple(d for d in divs if _mobius(l // d) == 1))


@lru_cache(maxsize=None)
def cyclotomic(l: int) -> UPoly:
    """Phi_l(q) from its recipe: the product of the plus binomials, divided
    by each minus binomial in turn.

    The returned polynomial is shared and must be treated as immutable."""
    if l < 1:
        raise ValueError("cyclotomic index must be >= 1")
    minus, plus = _phi_recipe(l)
    num = UPoly.one()
    for d in plus:
        num = num * _q_power_minus_one(d)
    for d in minus:
        num = num.divexact(_q_power_minus_one(d))
    return num


@lru_cache(maxsize=None)
def _phi_product(key: tuple) -> UPoly:
    """prod_l Phi_l(q)^m over key = sorted ((l, m), ...)."""
    got = UPoly.one()
    for l, m in key:
        got = got * cyclotomic(l) ** m
    return got


@lru_cache(maxsize=None)
def totient(l: int) -> int:
    """Euler's phi(l), the degree of Phi_l; 0 for l <= 0."""
    if l < 1:
        return 0
    minus, plus = _phi_recipe(l)
    return sum(plus) - sum(minus)


# ----------------------------------------------------------------------
# q-Pochhammer.

def qpoch(a: UPoly, n: int) -> UPoly:
    """(a; q)_n = prod_{i=0}^{n-1} (1 - a q^i), exactly."""
    if n < 0:
        raise ValueError("q-Pochhammer length must be >= 0")
    out = UPoly.one()
    cur = a
    for _ in range(n):
        out = out * (UPoly.one() - cur)
        cur = cur.shift_u(2)
    return out


# ----------------------------------------------------------------------
# PhiProduct: a monic product of cyclotomic polynomials, used as the
# denominator of QFrac.  Only positive powers of Phi_l appear; monomials,
# signs and rational scalars always live in the numerator.

class PhiProduct:
    __slots__ = ("e",)

    def __init__(self, exps=None):
        self.e = {int(l): int(m) for l, m in (exps or {}).items() if m}
        for l, m in self.e.items():
            if m < 0:
                raise ValueError(f"Phi_{l} has exponent {m}; PhiProduct needs positive ones")

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
        return _phi_product(tuple(sorted(self.e.items())))

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


class QFrac:
    """Fraction num / prod Phi_l(q)^e with num a UPoly numerator.

    Closed under + - * and under division by factors of the form
    (1 - q^m); that is all the pipeline ever needs, so no polynomial gcd
    is involved.  reduced() cancels every cyclotomic factor the numerator
    shares with the denominator, which yields the canonical reduced form
    because cyclotomics are irreducible over Q.  It first divides by whole
    binomials q^m - 1, largest m first, while every Phi_d, d | m, is still
    in the denominator.  Then it divides by each Phi_l left over, l >= 2,
    as a product by the binomials q^d - 1 of its recipe with mu(l/d) = -1
    and divisions by those with mu(l/d) = 1.  Either trial is exact
    exactly when its factor divides the numerator, so the first division
    that leaves a remainder ends the loop for that factor, and each
    factor costs at most one failed trial.
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

    def shift_u(self, k: int) -> "QFrac":
        """Multiply by u^k, that is by q^(k/2)."""
        return QFrac(self.num.shift_u(k), self.den)

    def div_one_minus_qpow(self, m: int, power: int = 1) -> "QFrac":
        """Divide by (1 - q^m)^power, m >= 1, using the cyclotomic
        factorization 1 - q^m = -(q^m - 1) = -prod_{d | m} Phi_d."""
        if m < 1:
            raise ValueError(f"div_one_minus_qpow needs m >= 1, got {m}")
        phis = PhiProduct({d: 1 for d in _divisors(m)})
        den = self.den
        for _ in range(power):
            den = den.mul(phis)
        return QFrac(-self.num if power % 2 else self.num, den)

    def reduced(self) -> "QFrac":
        if self.num.is_zero():
            return QFrac.zero()
        num = self.num
        exps = dict(self.den.e)
        # (phis, mults, divs): num * prod_mults (q^d - 1) / prod_divs (q^d - 1)
        # is num / prod_phis Phi_d; whole binomials q^m - 1 first, largest
        # m first, then single Phi_l (Phi_1 alone is the binomial m = 1)
        trials = [(_divisors(m), (), (m,)) for m in sorted(exps, reverse=True)]
        trials += [((l,), *_phi_recipe(l)) for l in sorted(exps) if l > 1]
        for phis, mults, divs in trials:
            while all(exps.get(d) for d in phis):
                t = num
                for d in mults:
                    t = t.shift_u(2 * d) - t
                try:
                    for d in divs:
                        t = t.divexact(_q_power_minus_one(d))
                except ExactDivisionError:
                    break
                num = t
                for d in phis:
                    exps[d] -= 1
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
        if self.den == other.den and self.num == other.num:
            return True
        if self.num and other.num and (self.num.min_exp() - other.num.min_exp()) % 2:
            return False  # u^odd Q(q) meets Q(q) only in 0
        diff = self - other
        return diff.num.is_zero()

    def __repr__(self):
        return f"QFrac({self.num!r} / {self.den!r})"
