"""Exact Laurent-polynomial arithmetic in the half-power variable u.

Everything downstream works over the field Q(q^(1/2)).  We represent it
concretely as Laurent polynomials in a variable u with u^2 = q, so a
monomial q^(e/2) is stored as the u-exponent e.  Coefficients are exact
rationals (Python int or fractions.Fraction; integers are kept as int so
that the common all-integer case stays fast).

UPoly is immutable in spirit: no method mutates the receiver, and the
coefficient dict must not be touched from outside.  That makes every
function in the package safe to call from concurrent code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class ExactArithError(Exception):
    """Base class for exact-arithmetic failures."""


class PoleError(ExactArithError):
    """Evaluation at a pole (e.g. q0 = 0 with negative exponents)."""


class ExactDivisionError(ExactArithError):
    """Polynomial division left a nonzero remainder."""


def parse_rat(text: str) -> Fraction:
    """Parse an exact rational string 'p/q' or 'p'.  Decimals are rejected."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"expected an exact rational like '1/3', got {text!r}")
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rat(x) -> str:
    fr = Fraction(x)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _norm_coeff(c):
    # keep exact ints as int; Fractions with denominator 1 collapse to int
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# Kronecker substitution: packing a dense integer-coefficient polynomial
# into one big int turns convolution into a single integer multiply, which
# CPython does subquadratically.  Worth it once the naive dict convolution
# would exceed a few thousand coefficient multiplies.
_KRONECKER_CUTOFF = 4096


def _kronecker_mul(a: list, b: list) -> list:
    bits_a = max(abs(x).bit_length() for x in a if x)
    bits_b = max(abs(x).bit_length() for x in b if x)
    width = bits_a + bits_b + min(len(a), len(b)).bit_length() + 2
    pa = 0
    for i, x in enumerate(a):
        if x:
            pa += x << (i * width)
    pb = 0
    for i, x in enumerate(b):
        if x:
            pb += x << (i * width)
    prod = pa * pb
    out = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    for _ in range(len(a) + len(b) - 1):
        digit = prod & mask
        if digit >= half:
            digit -= 1 << width
        prod = (prod - digit) >> width
        out.append(digit)
    assert prod == 0, "kronecker decode failed"
    return out


class UPoly:
    """Laurent polynomial in u (u^2 = q) with exact rational coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _norm_coeff(v)
                if v:
                    d[int(e)] = v
        self.c = d

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UPoly":
        return cls()

    @classmethod
    def one(cls) -> "UPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, v) -> "UPoly":
        return cls({0: Fraction(v)})

    @classmethod
    def q_power(cls, e: int) -> "UPoly":
        """The monomial q^e as a UPoly (u-exponent 2e)."""
        return cls({2 * e: 1})

    @classmethod
    def u_power(cls, e: int) -> "UPoly":
        return cls({e: 1})

    # --- predicates and shape ------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def min_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no exponents")
        return min(self.c)

    def max_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no exponents")
        return max(self.c)

    def only_even_exponents(self) -> bool:
        return all(e % 2 == 0 for e in self.c)

    def coefficients_integral(self) -> bool:
        return all(isinstance(v, int) or v.denominator == 1 for v in self.c.values())

    def num_terms(self) -> int:
        return len(self.c)

    def coeff(self, e: int):
        return Fraction(self.c.get(e, 0))

    # --- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly({0: other})
        if not isinstance(other, UPoly):
            return NotImplemented
        out = dict(self.c)
        for e, v in other.c.items():
            s = out.get(e, 0) + v
            s = _norm_coeff(s)
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = UPoly.__new__(UPoly)
        res.c = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = UPoly.__new__(UPoly)
        res.c = {e: -v for e, v in self.c.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly({0: other})
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _norm_coeff(other)
            if not other:
                return UPoly()
            res = UPoly.__new__(UPoly)
            res.c = {e: _norm_coeff(v * other) for e, v in self.c.items()}
            return res
        if not isinstance(other, UPoly):
            return NotImplemented
        if not self.c or not other.c:
            return UPoly()
        if len(self.c) * len(other.c) >= _KRONECKER_CUTOFF:
            return self._mul_kronecker(other)
        out = {}
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                s = out.get(e, 0) + va * vb
                out[e] = s
        res = UPoly.__new__(UPoly)
        res.c = {e: _norm_coeff(v) for e, v in out.items() if v}
        return res

    __rmul__ = __mul__

    def _mul_kronecker(self, other: "UPoly") -> "UPoly":
        lo_a, lo_b = self.min_exp(), other.min_exp()
        da = [0] * (self.max_exp() - lo_a + 1)
        scale_a = 1
        for v in self.c.values():
            if isinstance(v, Fraction):
                scale_a = lcm(scale_a, v.denominator)
        for e, v in self.c.items():
            da[e - lo_a] = int(v * scale_a) if isinstance(v, Fraction) else v * scale_a
        db = [0] * (other.max_exp() - lo_b + 1)
        scale_b = 1
        for v in other.c.values():
            if isinstance(v, Fraction):
                scale_b = lcm(scale_b, v.denominator)
        for e, v in other.c.items():
            db[e - lo_b] = int(v * scale_b) if isinstance(v, Fraction) else v * scale_b
        dense = _kronecker_mul(da, db)
        scale = scale_a * scale_b
        lo = lo_a + lo_b
        out = {}
        for i, v in enumerate(dense):
            if v:
                out[lo + i] = _norm_coeff(Fraction(v, scale)) if scale != 1 else v
        res = UPoly.__new__(UPoly)
        res.c = out
        return res

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
        if isinstance(other, (int, Fraction)):
            other = UPoly({0: other})
        if not isinstance(other, UPoly):
            return NotImplemented
        if len(self.c) != len(other.c):
            return False
        for e, v in self.c.items():
            if e not in other.c or other.c[e] != v:
                return False
        return True

    def __hash__(self):
        return hash(frozenset((e, Fraction(v)) for e, v in self.c.items()))

    # --- substitutions and evaluation ------------------------------------

    def shift_u(self, k: int) -> "UPoly":
        """Multiply by u^k."""
        res = UPoly.__new__(UPoly)
        res.c = {e + k: v for e, v in self.c.items()}
        return res

    def subst_inv(self) -> "UPoly":
        """Substitute u -> 1/u (hence q -> 1/q)."""
        res = UPoly.__new__(UPoly)
        res.c = {-e: v for e, v in self.c.items()}
        return res

    def even_odd_parts(self):
        """Split into (even, odd) with self = even + u * odd, both in q only."""
        ev, od = {}, {}
        for e, v in self.c.items():
            if e % 2 == 0:
                ev[e] = v
            else:
                od[e - 1] = v
        pe = UPoly.__new__(UPoly)
        pe.c = ev
        po = UPoly.__new__(UPoly)
        po.c = od
        return pe, po

    def eval_fraction(self, q0: Fraction) -> Fraction:
        """Exact evaluation at q = q0.  Requires only even u-exponents."""
        if not self.only_even_exponents():
            raise ValueError("polynomial has half-integer q-powers; use eval_pair")
        a, _ = self.eval_pair(q0)
        return a

    def eval_pair(self, q0: Fraction):
        """Exact evaluation at q = q0 as (a, b) meaning a + b*sqrt(q0)."""
        q0 = Fraction(q0)
        if q0 == 0 and self.c and self.min_exp() < 0:
            raise PoleError("evaluation at q0 = 0 with negative exponents")
        a = Fraction(0)
        b = Fraction(0)
        for e, v in self.c.items():
            half, rem = divmod(e, 2)
            if rem == 0:
                a += v * q0 ** half
            else:
                b += v * q0 ** half
        return a, b

    def eval_mp(self, q0: Fraction, u0):
        """Float evaluation with an explicit square root u0 of q0.

        The split into exact even/odd parts happens first, so the only
        rounding is the final a + b*u0 at u0's working precision.
        """
        a, b = self.eval_pair(Fraction(q0))
        total = u0 * 0
        if a:
            total += (u0 * 0 + a.numerator) / a.denominator
        if b:
            total += (u0 * b.numerator) / b.denominator
        return total

    # --- division ---------------------------------------------------------

    def divexact(self, other: "UPoly") -> "UPoly":
        """Exact division; raises ExactDivisionError on nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return UPoly()
        lo_s, lo_o = self.min_exp(), other.min_exp()
        hi_s, hi_o = self.max_exp(), other.max_exp()
        if hi_s - lo_s < hi_o - lo_o:
            raise ExactDivisionError("degree too small for exact division")
        # When both operands live on a parity lattice (all exponent offsets
        # even), an exact quotient lives on the lattice too, so divide with
        # stride 2: half-length arrays, identical exactness semantics.
        step = 1 if (any((e - lo_s) % 2 for e in self.c)
                     or any((e - lo_o) % 2 for e in other.c)) else 2
        den = [other.c.get(lo_o + step * i, 0)
               for i in range((hi_o - lo_o) // step + 1)]
        num = [self.c.get(lo_s + step * i, 0)
               for i in range((hi_s - lo_s) // step + 1)]
        qlen = len(num) - len(den) + 1
        lead = den[0]
        lo = lo_s - lo_o
        if (lead in (1, -1)
                and all(type(v) is int for v in num)
                and all(type(v) is int for v in den)):
            # ascending synthetic division stays in the integers
            nz = [(k, dk) for k, dk in enumerate(den) if dk and k]
            quot = [0] * qlen
            for i in range(qlen):
                cur = num[i]
                if cur:
                    f = cur if lead == 1 else -cur
                    quot[i] = f
                    num[i] = 0
                    for k, dk in nz:
                        num[i + k] -= f * dk
            if any(num):
                raise ExactDivisionError("nonzero remainder")
            return UPoly({lo + step * i: v for i, v in enumerate(quot) if v})
        den = [Fraction(v) for v in den]
        num = [Fraction(v) for v in num]
        nz = [(k, dk) for k, dk in enumerate(den) if dk and k]
        lead = den[0]
        quot = [Fraction(0)] * qlen
        for i in range(qlen):
            cur = num[i]
            if cur:
                f = cur / lead
                quot[i] = f
                num[i] = 0
                for k, dk in nz:
                    num[i + k] -= f * dk
        if any(num):
            raise ExactDivisionError("nonzero remainder")
        return UPoly({lo + step * i: v for i, v in enumerate(quot) if v})

    # --- serialization ------------------------------------------------------

    def to_json(self) -> list:
        return [
            {"u_exp": e, "coeff": format_rat(self.c[e])} for e in sorted(self.c)
        ]

    @classmethod
    def from_json(cls, records) -> "UPoly":
        return cls({int(r["u_exp"]): parse_rat(r["coeff"]) for r in records})

    def __repr__(self):
        if not self.c:
            return "UPoly(0)"
        bits = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                bits.append(f"{v}")
            elif e % 2 == 0:
                bits.append(f"{v}*q^{e // 2}")
            else:
                bits.append(f"{v}*u^{e}")
        return "UPoly(" + " + ".join(bits) + ")"

