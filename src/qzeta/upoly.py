"""Exact Laurent-polynomial arithmetic in the half-power variable u.

Everything downstream works over the field Q(q^(1/2)).  We represent it
concretely as Laurent polynomials in a variable u with u^2 = q, so a
monomial q^(e/2) is stored as the u-exponent e.

Every value the pipeline builds is one power of u times a q-polynomial:
its u-exponents all have one parity.  A UPoly holds such a value as a
dense integer polynomial over one denominator, in three fields:

- ``lo``, the lowest u-exponent;
- ``v``, the list of int coefficients of u^lo, u^(lo+2), u^(lo+4), ...;
- ``den``, the common denominator, a positive int.

The value is sum_i v[i] * u^(lo + 2i) / den.  The form is canonical, so
equal values have equal fields: both ends of ``v`` are nonzero and ``den``
is coprime to the content of ``v``.  Zero is ``v == []`` with lo = 0,
den = 1.  Building a UPoly with u-exponents of both parities, or adding
two of opposite parity, raises ValueError.

A product whose shorter operand has one term (the unit, +-q^m, c u^k/d)
is a shift of the other operand plus at most one scalar pass over its
list, and a product by 1 u^k over den 1 shares that list.  Every other
product is one integer convolution: a row update for small or sparse
operands, such as 1 - q^m, which adds the other operand unscaled where
a coefficient is 1; Kronecker substitution (one big-int multiply, with
linear-time packing) above a fixed size.

Exact division takes only a divisor u^k (q^g - 1), g >= 1, the one
the package needs: every cyclotomic polynomial is a quotient of such
binomials.  It is one pass of running sums over the integer list, and a
nonzero remainder raises ExactDivisionError, which makes a trial
division the package's one test of whether a factor divides a value.

UPoly is immutable: no method mutates the receiver or a list it shares,
and the fields must not be touched from outside.  That makes every
function in the package safe to call from concurrent code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, neg, sub

__all__ = [
    "ExactArithError",
    "ExactDivisionError",
    "PoleError",
    "UPoly",
    "format_rat",
    "parse_rat",
]


class ExactArithError(Exception):
    """Base class for exact-arithmetic failures."""


class PoleError(ExactArithError):
    """Evaluation at a pole (e.g. q0 = 0 with negative exponents)."""


class ExactDivisionError(ExactArithError):
    """Polynomial division left a nonzero remainder."""


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p': optional sign, ASCII digits, nonzero '/digits'."""
    if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", text.strip()):
        raise ValueError(f"expected an exact rational like '1/3', got {text!r}")
    return Fraction(text.strip())


def format_rat(x) -> str:
    fr = Fraction(x)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


# ----------------------------------------------------------------------
# Integer convolution.

# Kronecker substitution turns a convolution into one integer multiply,
# which CPython does subquadratically; below this many products of a
# nonzero coefficient by a coefficient the row update is faster.
_KRONECKER_CUTOFF = 1024


def _biased_slots(n: int, w: int) -> int:
    """The integer whose n slots of w bytes each hold 2^(8w-1)."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(a: list, w: int, half: int) -> int:
    """sum_i a[i] * 2^(8w*i), through one bytes.join of biased slots."""
    data = b"".join(map(int.to_bytes, map(half.__add__, a), repeat(w), repeat("little")))
    return int.from_bytes(data, "little") - _biased_slots(len(a), w)


def _kronecker_mul(a: list, b: list) -> list:
    """Product of two int lists by Kronecker substitution.

    Each list is packed into one integer with slots of w bytes.  A product
    coefficient is a sum of at most min(len(a), len(b)) products, so the
    slot width below bounds it by half = 2^(8w-1) in absolute value; after
    adding half to every slot all digits are nonnegative and the product
    is read back by one to_bytes and one slice pass.
    """
    n = len(a) + len(b) - 1
    bits = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
            + min(len(a), len(b)).bit_length() + 1)
    w = (bits + 7) // 8
    half = 1 << (8 * w - 1)
    prod = _pack(a, w, half) * _pack(b, w, half) + _biased_slots(n, w)
    try:
        data = prod.to_bytes(n * w, "little")
    except OverflowError:
        raise ExactArithError("kronecker decode failed") from None
    return [int.from_bytes(data[i:i + w], "little") - half
            for i in range(0, n * w, w)]


def _conv(a: list, b: list) -> list:
    """Product of two nonempty int lists.  The row update costs one pass
    over b per nonzero entry of a, so a sparse a, such as 1 - q^m, takes
    it at any length; the first row is copied, not added, and a row for
    a coefficient 1 is b itself."""
    if len(a) > len(b):
        a, b = b, a
    if (len(a) - a.count(0)) * len(b) >= _KRONECKER_CUTOFF:
        return _kronecker_mul(a, b)
    lb = len(b)
    x = a[0]
    out = (b if x == 1 else list(map(x.__mul__, b))) + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        x = a[i]
        if x:
            out[i:i + lb] = map(add, out[i:i + lb], b if x == 1 else map(x.__mul__, b))
    return out


# ----------------------------------------------------------------------

def _canon(p: "UPoly", lo: int, v: list, den: int) -> "UPoly":
    """Fill p with the canonical form of sum_i v[i] u^(lo+2i) / den.

    v is an int list the caller hands over; den > 0.
    """
    if not any(v):
        lo, v, den = 0, [], 1
    else:
        i, j = 0, len(v)
        while not v[i]:
            i += 1
        while not v[j - 1]:
            j -= 1
        if i or j < len(v):
            v = v[i:j]
            lo += 2 * i
        if den != 1:
            g = gcd(den, *v)
            if g != 1:
                v = [x // g for x in v]
                den //= g
    p.lo, p.v, p.den = lo, v, den
    return p


def _norm(lo: int, v: list, den: int = 1) -> "UPoly":
    return _canon(UPoly.__new__(UPoly), lo, v, den)


class UPoly:
    """Laurent polynomial in u (u^2 = q) with exact rational coefficients,
    its u-exponents all of one parity."""

    __slots__ = ("lo", "v", "den")

    def __init__(self, coeffs=None):
        """Build from a dict {u_exp: coefficient}; coefficients are anything
        Fraction() accepts exactly.  Exponents of both parities raise
        ValueError."""
        terms = {int(e): Fraction(c) for e, c in (coeffs or {}).items() if c}
        if not terms:
            _canon(self, 0, [], 1)
            return
        lo = min(terms)
        if any((e - lo) % 2 for e in terms):
            raise ValueError(f"u-exponents of both parities: {sorted(terms)}")
        den = lcm(*(c.denominator for c in terms.values()))
        v = [0] * ((max(terms) - lo) // 2 + 1)
        for e, c in terms.items():
            v[(e - lo) // 2] = c.numerator * (den // c.denominator)
        _canon(self, lo, v, den)

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UPoly":
        return _norm(0, [])

    @classmethod
    def one(cls) -> "UPoly":
        return _norm(0, [1])

    @classmethod
    def const(cls, v) -> "UPoly":
        v = Fraction(v)
        return _norm(0, [v.numerator], v.denominator)

    @classmethod
    def q_power(cls, e: int) -> "UPoly":
        """The monomial q^e as a UPoly (u-exponent 2e)."""
        return _norm(2 * e, [1])

    # --- predicates and shape ------------------------------------------

    def is_zero(self) -> bool:
        return not self.v

    def __bool__(self) -> bool:
        return bool(self.v)

    def min_exp(self) -> int:
        if not self.v:
            raise ValueError("zero polynomial has no exponents")
        return self.lo

    def max_exp(self) -> int:
        if not self.v:
            raise ValueError("zero polynomial has no exponents")
        return self.lo + 2 * (len(self.v) - 1)

    def only_even_exponents(self) -> bool:
        return not self.v or self.lo % 2 == 0

    def coefficients_integral(self) -> bool:
        return self.den == 1

    def coeff(self, e: int) -> Fraction:
        k, r = divmod(e - self.lo, 2)
        if r or not 0 <= k < len(self.v):
            return Fraction(0)
        return Fraction(self.v[k], self.den)

    def terms(self) -> list:
        """The nonzero terms as (u_exp, Fraction) pairs, ascending in u_exp."""
        lo, den = self.lo, self.den
        return [(lo + 2 * i, Fraction(x, den)) for i, x in enumerate(self.v) if x]

    # --- ring operations ------------------------------------------------

    def _combine(self, other: "UPoly", op) -> "UPoly":
        """self op other for op in (add, sub), both nonzero."""
        if (self.lo - other.lo) % 2:
            raise ValueError("cannot add u-exponents of opposite parity")
        va, vb = self.v, other.v
        den = self.den
        if den != other.den:
            g = gcd(den, other.den)
            va = list(map((other.den // g).__mul__, va))
            vb = list(map((den // g).__mul__, vb))
            den = den // g * other.den
        lo = min(self.lo, other.lo)
        ia, ib = (self.lo - lo) // 2, (other.lo - lo) // 2
        out = [0] * max(ia + len(va), ib + len(vb))
        out[ia:ia + len(va)] = va
        out[ib:ib + len(vb)] = map(op, out[ib:ib + len(vb)], vb)
        return _norm(lo, out, den)

    def __add__(self, other):
        if type(other) is not UPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UPoly.const(other)
        if not other.v:
            return self
        if not self.v:
            return other
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _norm(self.lo, [-x for x in self.v], self.den)

    def __sub__(self, other):
        if type(other) is not UPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UPoly.const(other)
        if not other.v:
            return self
        if not self.v:
            return -other
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not UPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 1:
                return self
            return _norm(self.lo, list(map(other.numerator.__mul__, self.v)),
                         self.den * other.denominator)
        a, b = (self, other) if len(self.v) <= len(other.v) else (other, self)
        va, vb = a.v, b.v
        if not va:
            return a
        lo, den = a.lo + b.lo, a.den * b.den
        if len(va) == 1:
            c = va[0]
            if c == 1 and a.den == 1:
                return b.shift_u(a.lo)
            return _norm(lo, vb if c == 1 else list(map(c.__mul__, vb)), den)
        return _norm(lo, _conv(va, vb), den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a general UPoly are not defined")
        result = UPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not UPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UPoly.const(other)
        return self.lo == other.lo and self.den == other.den and self.v == other.v

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        if self.lo == 0 and len(self.v) <= 1:
            return hash(Fraction(self.v[0], self.den) if self.v else 0)
        return hash((self.lo, self.den, tuple(self.v)))

    # --- substitutions and evaluation ------------------------------------

    def shift_u(self, k: int) -> "UPoly":
        """Multiply by u^k.  A shifted canonical form is canonical, so the
        result shares self's list."""
        if not self.v or not k:
            return self
        p = UPoly.__new__(UPoly)
        p.lo, p.v, p.den = self.lo + k, self.v, self.den
        return p

    def subst_inv(self) -> "UPoly":
        """Substitute u -> 1/u (hence q -> 1/q)."""
        if not self.v:
            return self
        return _norm(-self.max_exp(), self.v[::-1], self.den)

    def eval_fraction(self, q0: Fraction) -> Fraction:
        """Exact evaluation at q = q0.  Requires only even u-exponents."""
        if not self.only_even_exponents():
            raise ValueError("polynomial has half-integer q-powers; use eval_pair")
        a, _ = self.eval_pair(q0)
        return a

    def eval_pair(self, q0: Fraction):
        """Exact evaluation at q = q0 as (a, b) meaning a + b*sqrt(q0); the
        value is u^lo times a polynomial in q, so one of a, b is zero."""
        q0 = Fraction(q0)
        if q0 == 0 and self.v and self.lo < 0:
            raise PoleError("evaluation at q0 = 0 with negative exponents")
        val = Fraction(0)
        for c in reversed(self.v):
            val = val * q0 + c
        half, odd = divmod(self.lo, 2)
        val = val * q0 ** half / self.den
        return (Fraction(0), val) if odd else (val, Fraction(0))

    # --- division ---------------------------------------------------------

    def divexact(self, other: "UPoly") -> "UPoly":
        """Exact division by u^k (q^g - 1), g >= 1; any other divisor
        raises ValueError, a nonzero remainder ExactDivisionError.

        The quotient obeys quot[i] = quot[i-g] - v[i]: minus the running
        sums of v along each residue class mod g, which
        itertools.accumulate computes without a Python-level loop.
        Carried on through the top g entries of v, the same sums are minus
        the remainder, so one pass both divides and tests exactness."""
        d = other.v
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        g = len(d) - 1
        if other.den != 1 or d != [-1] + [0] * (g - 1) + [1]:
            raise ValueError(f"divexact divides only by u^k (q^g - 1), got {other!r}")
        v = self.v
        qlen = max(len(v) - g, 0)
        quot = [0] * len(v)
        for r in range(g):
            quot[r::g] = accumulate(map(neg, v[r::g]))
        if any(quot[qlen:]):
            raise ExactDivisionError("nonzero remainder")
        del quot[qlen:]
        return _norm(self.lo - other.lo, quot, self.den)

    def __repr__(self):
        if not self.v:
            return "UPoly(0)"
        bits = []
        for e, v in self.terms():
            if e == 0:
                bits.append(f"{v}")
            elif e % 2 == 0:
                bits.append(f"{v}*q^{e // 2}")
            else:
                bits.append(f"{v}*u^{e}")
        return "UPoly(" + " + ".join(bits) + ")"
