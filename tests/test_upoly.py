"""Laurent-polynomial ring in u (u^2 = q): axioms, exact division,
multiplication strategies, substitutions and serialization."""

import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from qzeta.upoly import (
    _KRONECKER_CUTOFF,
    ExactDivisionError,
    UPoly,
    _conv,
    _kronecker_mul,
    _norm,
    format_rat,
    parse_rat,
)

coeffs = st.integers(min_value=-30, max_value=30)
# q-exponents; a UPoly's u-exponents are 2e + p for one parity p
exps = st.integers(min_value=-4, max_value=4)
parities = st.sampled_from((0, 1))


@st.composite
def upolys(draw, max_terms=6, fractions=False, parity=None):
    par = draw(parities) if parity is None else parity
    n = draw(st.integers(min_value=0, max_value=max_terms))
    d = {}
    for _ in range(n):
        e = 2 * draw(exps) + par
        if fractions:
            num = draw(coeffs)
            den = draw(st.integers(min_value=1, max_value=12))
            d[e] = Fraction(num, den)
        else:
            d[e] = draw(coeffs)
    return UPoly(d)


def same_parity(count, **kw):
    """count UPolys whose u-exponents share one drawn parity, so that
    they can be added."""
    return parities.flatmap(
        lambda par: st.tuples(*(upolys(parity=par, **kw) for _ in range(count))))


@st.composite
def divisors(draw):
    """u^k (q^g - 1), k of either parity, g in 1..12: the divisors
    divexact takes."""
    k = draw(st.integers(-9, 9))
    g = draw(st.integers(1, 12))
    return UPoly({k: -1, k + 2 * g: 1})


def naive_mul(a: UPoly, b: UPoly) -> UPoly:
    out = {}
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return UPoly(out)


def naive_conv(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fields(p: UPoly) -> tuple:
    return (p.lo, p.den, p.v)


def assert_canonical(p: UPoly):
    """The invariants the representation promises (see the upoly docstring)."""
    assert all(type(x) is int for x in p.v)
    assert type(p.den) is int and p.den > 0
    if not p.v:
        assert fields(p) == (0, 1, [])
        return
    assert p.v[0] and p.v[-1]
    assert gcd(p.den, *p.v) == 1


@settings(max_examples=60, deadline=None)
@given(same_parity(3))
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * UPoly.one() == a
    assert (a * UPoly.zero()).is_zero()
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(upolys(max_terms=10), upolys(max_terms=10))
def test_mul_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


@settings(max_examples=80, deadline=None)
@given(same_parity(2, fractions=True),
       st.fractions(min_value=-5, max_value=5).filter(bool))
def test_equal_values_have_equal_fields_and_hashes(ab, k):
    a, b = ab
    built = [
        (a * b, naive_mul(a, b)),
        ((a + b) - b, a),
        (a * k * (1 / k), a),
        (a * k, UPoly({e: c * k for e, c in a.terms()})),
    ]
    for x, y in built:
        assert_canonical(x)
        assert_canonical(y)
        assert fields(x) == fields(y)
        assert x == y and hash(x) == hash(y)


@st.composite
def over_den(draw):
    """A nonzero UPoly of either u-parity, signed integer coefficients over
    a denominator other than 1."""
    lo = 2 * draw(exps) + draw(parities)
    v = draw(st.lists(coeffs, min_size=1, max_size=12).filter(any))
    den = draw(st.integers(min_value=2, max_value=12))
    p = UPoly({lo + 2 * i: Fraction(c, den) for i, c in enumerate(v)})
    assume(p.den != 1)
    return p


@st.composite
def short_operands(draw):
    """One-term operands (the unit, +-q^m, c u^k/d) and two-term ones
    (1 - q^m, q^a - q^b, 2 + 3u^2/5, u^(2a+1) - 3u^(2b+1)), of either
    u-parity."""
    m = draw(st.integers(min_value=-6, max_value=6))
    a, b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    assume(a != b)
    k = draw(st.integers(min_value=-9, max_value=9))
    c = draw(coeffs.filter(bool))
    d = draw(st.integers(min_value=1, max_value=12))
    return draw(st.sampled_from([
        UPoly.one(), UPoly.q_power(m), -UPoly.q_power(m), UPoly({k: Fraction(c, d)}),
        UPoly.one() - UPoly.q_power(m or 1), UPoly.q_power(a) - UPoly.q_power(b),
        UPoly({0: 2, 2: Fraction(3, 5)}), UPoly({2 * a + 1: 1, 2 * b + 1: -3}),
    ]))


@settings(max_examples=300, deadline=None)
@given(over_den(), short_operands(), st.integers(min_value=-7, max_value=7))
def test_short_products_and_shift_match_convolution(p, t, k):
    want = _norm(p.lo + t.lo, naive_conv(p.v, t.v), p.den * t.den)
    for got in (p * t, t * p):
        assert_canonical(got)
        assert fields(got) == fields(want)
    assert fields(p.shift_u(k)) == fields(_norm(p.lo + k, list(p.v), p.den))


def test_product_by_unit_is_the_other_operand():
    p = UPoly({-3: Fraction(-2, 7), 1: 5})
    assert p * UPoly.one() == p and UPoly.one() * p == p
    assert fields(p * UPoly.one()) == fields(p)


qpolys = upolys(parity=0)


def test_both_parities_rejected():
    u = UPoly({1: 1})
    with pytest.raises(ValueError):
        UPoly({0: 1, 1: 1})
    with pytest.raises(ValueError):
        UPoly.one() + u
    with pytest.raises(ValueError):
        UPoly.one() - u


def int_lists(max_len):
    entries = st.integers(min_value=-(1 << 300), max_value=1 << 300)
    body = st.lists(entries, min_size=1, max_size=max_len)
    pad = st.integers(min_value=0, max_value=2)
    return st.builds(lambda z0, v, z1: [0] * z0 + v + [0] * z1, pad, body, pad)


@settings(max_examples=60, deadline=None)
@given(int_lists(64), int_lists(64))
def test_kronecker_mul_matches_naive_convolution(a, b):
    # sizes reach both sides of the cutoff between row update and packing
    assert _kronecker_mul(a, b) == naive_conv(a, b)
    assert _conv(a, b) == naive_conv(a, b)


def test_convolution_on_both_sides_of_cutoff():
    m = isqrt(_KRONECKER_CUTOFF)
    for la, lb in ((1, 1), (1, 300), (m - 1, m), (m, m), (m + 1, 2 * m)):
        a = [(-1) ** i * (i + 1) << 299 for i in range(la)]
        b = [(-1) ** (i // 3) * (7 * i - 5) for i in range(lb)]
        assert _conv(a, b) == naive_conv(a, b)
        assert _kronecker_mul(a, b) == naive_conv(a, b)
    # a binomial 1 - q^m takes the row update at any length
    for m in (1, 40, 300):
        a = [1] + [0] * (m - 1) + [-1]
        b = [(-1) ** (i // 3) * (7 * i - 5) << 99 for i in range(300)]
        assert _conv(a, b) == _conv(b, a) == naive_conv(a, b)


def test_constant_hashes_as_its_value():
    for c in (3, Fraction(-2, 7), 0):
        assert UPoly.const(c) == c
        assert hash(UPoly.const(c)) == hash(c)
        assert c in {UPoly.const(c)}
        assert UPoly.const(c) in {c}
    assert UPoly({2: 1}) != 1


def test_terms_ascending_with_fraction_values():
    p = UPoly({5: 2, -3: Fraction(2, 3), 0: 0, 1: -1})
    assert p.terms() == [(-3, Fraction(2, 3)), (1, Fraction(-1)), (5, Fraction(2))]
    assert all(type(c) is Fraction for _, c in p.terms())
    assert UPoly.zero().terms() == []


def test_kronecker_path_on_large_operands():
    # force the Kronecker route: dense high-degree operands
    a = UPoly({e: e % 7 - 3 for e in range(0, 600, 2)})
    b = UPoly({e: (e * e) % 11 - 5 for e in range(-9, 590, 2)})
    assert a * b == naive_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(qpolys, qpolys,
       st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10)))
def test_eval_is_ring_homomorphism(a, b, q0):
    if q0 == 0:
        q0 = Fraction(1, 2)
    assert (a * b).eval_fraction(q0) == a.eval_fraction(q0) * b.eval_fraction(q0)
    assert (a + b).eval_fraction(q0) == a.eval_fraction(q0) + b.eval_fraction(q0)


@settings(max_examples=80, deadline=None)
@given(upolys(), divisors())
def test_divexact_roundtrip(a, b):
    assert (a * b).divexact(b) == a


@settings(max_examples=40, deadline=None)
@given(upolys(fractions=True), divisors())
def test_divexact_roundtrip_fraction_coeffs(a, b):
    assert (a * b).divexact(b) == a


def test_divexact_hand_computed_quotients():
    assert UPoly({6: 1, 0: -1}).divexact(UPoly({2: 1, 0: -1})) == \
        UPoly({0: 1, 2: 1, 4: 1})                      # (q^3 - 1)/(q - 1)
    # (q^6 - 1) / u^3 (q^2 - 1) = u^-3 (1 + q^2 + q^4)
    assert UPoly({12: 1, 0: -1}).divexact(UPoly({7: 1, 3: -1})) == \
        UPoly({-3: 1, 1: 1, 5: 1})
    # (q^2 - 1)/2 / (q - 1) = (q + 1)/2
    assert UPoly({4: Fraction(1, 2), 0: Fraction(-1, 2)}).divexact(
        UPoly({2: 1, 0: -1})) == UPoly({2: Fraction(1, 2), 0: Fraction(1, 2)})
    assert UPoly.zero().divexact(UPoly({9: 1, 1: -1})) == UPoly.zero()


@settings(max_examples=60, deadline=None)
@given(upolys(fractions=True), divisors(), st.integers(-12, 12),
       st.fractions(min_value=-5, max_value=5).filter(bool))
def test_divexact_by_unit_binomial(a, d, e, c):
    # a remainder c u^(2e + parity) anywhere in, below or above a * d
    p = a * d
    assert p.divexact(d) == a
    with pytest.raises(ExactDivisionError):
        (p + UPoly({2 * e + (a.lo + d.lo) % 2: c})).divexact(d)


def test_divexact_rejects_non_divisor():
    a = UPoly({0: 1, 2: 1})          # 1 + q
    b = UPoly({0: -1, 2: 1})         # q - 1
    with pytest.raises(ExactDivisionError):
        a.divexact(b)
    with pytest.raises(ExactDivisionError):
        a.divexact(UPoly({6: 1, 0: -1}))  # shorter than q^3 - 1
    with pytest.raises(ZeroDivisionError):
        a.divexact(UPoly.zero())


def test_divexact_rejects_other_divisors():
    a = UPoly({0: 2, 2: 1}) * UPoly({0: -1, 6: 1})
    for b in (UPoly({0: 1, 2: 1, 4: 1}),                # Phi_3
              UPoly({0: 1, 2: 1}),                      # q + 1
              UPoly({0: 1, 6: -1}),                     # 1 - q^3
              UPoly({0: -2, 2: 2}),                     # 2 (q - 1)
              UPoly({0: Fraction(-1, 2), 2: Fraction(1, 2)}),  # (q - 1)/2
              UPoly({0: 2, 2: 1}),                      # 2 + q
              UPoly({0: 1, 2: Fraction(3, 2)}),         # 1 + (3/2) q
              UPoly.const(Fraction(1, 2)),
              UPoly.const(-1)):
        with pytest.raises(ValueError, match=re.escape(repr(b))):
            a.divexact(b)


def test_divexact_remainder_in_low_terms_rejected():
    # the quotient's length fits, but the remainder sits in the lowest terms
    d = UPoly({0: -1, 6: 1})         # q^3 - 1
    a = UPoly({0: 1, 2: 1, 10: 1}) * d
    for r in (UPoly({0: 1}), UPoly({2: -2}), UPoly({0: 1, 4: 1})):
        with pytest.raises(ExactDivisionError):
            (a + r).divexact(d)


@settings(max_examples=50, deadline=None)
@given(upolys())
def test_subst_inv_is_involution(p):
    assert p.subst_inv().subst_inv() == p


@settings(max_examples=50, deadline=None)
@given(upolys(), upolys())
def test_subst_inv_is_multiplicative(a, b):
    assert (a * b).subst_inv() == a.subst_inv() * b.subst_inv()


def test_parse_and_format_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-7") == Fraction(-7)
    assert parse_rat(" 1/3 ") == Fraction(1, 3)
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(5)) == "5"
    assert parse_rat("+2/6") == Fraction(1, 3)
    assert parse_rat("-0") == 0
    for bad in ("0.5", "1e-3", "2.", ".3", "1/0", "1/00", "abc", "1/3/4", "",
                "1_0/3", "1/-3", "- 1", "\u0661/\u0663", "1//3", "/3", "3/"):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_q_power_and_shift_u():
    assert UPoly.q_power(3) == UPoly({6: 1})
    assert UPoly.q_power(-2).min_exp() == -4
    p = UPoly({2: 5})
    assert p.shift_u(-2) == UPoly({0: 5})
