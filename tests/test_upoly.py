"""Laurent-polynomial ring in u (u^2 = q): axioms, exact division,
multiplication strategies, substitutions and serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qzeta.upoly import ExactDivisionError, UPoly, format_rat, parse_rat

coeffs = st.integers(min_value=-30, max_value=30)
exps = st.integers(min_value=-8, max_value=8)


@st.composite
def upolys(draw, max_terms=6, allow_zero=True, fractions=False):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=max_terms))
    d = {}
    for _ in range(n):
        e = draw(exps)
        if fractions:
            num = draw(coeffs)
            den = draw(st.integers(min_value=1, max_value=12))
            d[e] = Fraction(num, den)
        else:
            d[e] = draw(coeffs)
    p = UPoly(d)
    if not allow_zero and p.is_zero():
        p = p + UPoly.one()
    return p


def naive_mul(a: UPoly, b: UPoly) -> UPoly:
    out = {}
    for e1, c1 in a.c.items():
        for e2, c2 in b.c.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return UPoly(out)


@settings(max_examples=60, deadline=None)
@given(upolys(), upolys(), upolys())
def test_ring_axioms(a, b, c):
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


def test_kronecker_path_on_large_operands():
    # force the Kronecker route: dense high-degree operands
    a = UPoly({e: e % 7 - 3 for e in range(0, 300)})
    b = UPoly({e: (e * e) % 11 - 5 for e in range(-10, 290)})
    assert a * b == naive_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(upolys(), upolys(),
       st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10)))
def test_eval_is_ring_homomorphism(a, b, q0):
    if q0 == 0:
        q0 = Fraction(1, 2)
    ae = a.even_odd_parts()[0]
    be = b.even_odd_parts()[0]
    assert (ae * be).eval_fraction(q0) == ae.eval_fraction(q0) * be.eval_fraction(q0)
    assert (ae + be).eval_fraction(q0) == ae.eval_fraction(q0) + be.eval_fraction(q0)


@settings(max_examples=80, deadline=None)
@given(upolys(), upolys(allow_zero=False))
def test_divexact_roundtrip(a, b):
    assert (a * b).divexact(b) == a


@settings(max_examples=40, deadline=None)
@given(upolys(fractions=True), upolys(allow_zero=False, fractions=True))
def test_divexact_roundtrip_fraction_coeffs(a, b):
    assert (a * b).divexact(b) == a


def test_divexact_int_fast_path_even_stride():
    # both operands on the even (q-power) lattice with unit lead: int path
    a = UPoly({0: 1, 2: -3, 6: 5})
    b = UPoly({0: 1, 4: 1})
    assert (a * b).divexact(b) == a
    # mixed parity falls back to stride 1
    c = UPoly({1: 2, 2: 1})
    assert (a * c).divexact(c) == a


def test_divexact_rejects_non_divisor():
    a = UPoly({0: 1, 2: 1})          # 1 + q
    b = UPoly({0: -1, 2: 1})         # q - 1
    with pytest.raises(ExactDivisionError):
        a.divexact(b)
    with pytest.raises(ZeroDivisionError):
        a.divexact(UPoly.zero())


def test_divexact_remainder_in_low_terms_rejected():
    # quotient exists degree-wise but remainder is nonzero
    a = UPoly({0: 1, 1: 1, 2: 1})
    b = UPoly({0: 1, 1: 1})
    with pytest.raises(ExactDivisionError):
        a.divexact(b)


@settings(max_examples=50, deadline=None)
@given(upolys())
def test_subst_inv_is_involution(p):
    assert p.subst_inv().subst_inv() == p


@settings(max_examples=50, deadline=None)
@given(upolys(), upolys())
def test_subst_inv_is_multiplicative(a, b):
    assert (a * b).subst_inv() == a.subst_inv() * b.subst_inv()


def test_even_odd_split():
    # self = even + u * odd, both parts living on the even lattice
    p = UPoly({0: 1, 1: 2, 2: 3, 5: -1})
    ev, od = p.even_odd_parts()
    assert ev == UPoly({0: 1, 2: 3})
    assert od == UPoly({0: 2, 4: -1})
    assert ev + UPoly.u_power(1) * od == p


def test_parse_and_format_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-7") == Fraction(-7)
    assert parse_rat(" 1/3 ") == Fraction(1, 3)
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(5)) == "5"
    for bad in ("0.5", "1e-3", "2.", ".3"):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_q_power_and_u_power():
    assert UPoly.q_power(3) == UPoly({6: 1})
    assert UPoly.u_power(3) == UPoly({3: 1})
    assert UPoly.q_power(-2).min_exp() == -4
    p = UPoly({2: 5})
    assert p.shift_u(-2) == UPoly({0: 5})


def test_json_roundtrip():
    p = UPoly({-3: Fraction(2, 3), 0: 1, 4: -7})
    assert UPoly.from_json(p.to_json()) == p
