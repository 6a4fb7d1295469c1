"""q-combinatorics: cyclotomic polynomials, Pochhammer products,
Stirling/Bernoulli tables, and the Phi-product fraction field."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qzeta
from qzeta.qcomb import (
    PhiProduct,
    QFrac,
    _divisors,
    _mobius,
    alpha_weight,
    bernoulli,
    cyclotomic,
    divisor_power_sum,
    qpoch,
    stirling_first,
    totient,
)
from qzeta.upoly import UPoly


def test_cyclotomic_product_is_q_power_minus_one():
    # multiplication only: Phi_n is pinned by induction on n
    for n in range(1, 201):
        prod = UPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == UPoly.q_power(n) - UPoly.one(), n


def test_cyclotomic_known_values():
    assert cyclotomic(1) == UPoly({2: 1, 0: -1})                      # q - 1
    assert cyclotomic(2) == UPoly({2: 1, 0: 1})                       # q + 1
    assert cyclotomic(3) == UPoly({4: 1, 2: 1, 0: 1})                 # q^2+q+1
    assert cyclotomic(6) == UPoly({4: 1, 2: -1, 0: 1})                # q^2-q+1
    # first index with a coefficient outside {0, +-1}: -2 at q^7 and q^41
    assert [(e, v) for e, v in cyclotomic(105).terms() if abs(v) > 1] == [(14, -2), (82, -2)]


def test_mobius_values():
    assert [_mobius(n) for n in (1, 2, 4, 6, 12, 30, 105)] == [1, -1, 0, 1, 0, -1, -1]


def test_import_leaves_mobius_and_cyclotomic_caches_empty():
    src = str(Path(qzeta.__file__).resolve().parents[1])
    code = ("import qzeta.cli, qzeta.qcomb as q; print(q._mobius.cache_info().currsize,"
            " q.cyclotomic.cache_info().currsize, q._phi_recipe.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


def test_cyclotomic_palindromic_above_one():
    for l in range(2, 40):
        p = cyclotomic(l)
        lo, hi = p.min_exp(), p.max_exp()
        for e, v in p.terms():
            assert p.coeff(lo + hi - e) == v, l


def test_d_poly_is_cyclotomic_product():
    # d_n = prod_{l<=n} Phi_l, as the denominator checks expand it
    for n in range(0, 20):
        expect = UPoly.one()
        for l in range(1, n + 1):
            expect = expect * cyclotomic(l)
        d_n = PhiProduct(dict.fromkeys(range(1, n + 1), 1)).expand()
        assert d_n == expect
        assert d_n.max_exp() == 2 * sum(totient(l) for l in range(1, n + 1))


def test_qpoch_both_bases():
    a = UPoly.q_power(1)
    # (q; q)_2 = (1 - q)(1 - q^2)
    assert qpoch(a, 2) == (UPoly.one() - UPoly.q_power(1)) * (UPoly.one() - UPoly.q_power(2))
    # base 1/q through base q: (1/q; 1/q)_2 = (q^-2; q)_2 = (1 - q^-1)(1 - q^-2)
    assert qpoch(UPoly.q_power(-2), 2) == ((UPoly.one() - UPoly.q_power(-1))
                                          * (UPoly.one() - UPoly.q_power(-2)))
    assert qpoch(a, 0) == UPoly.one()
    with pytest.raises(ValueError):
        qpoch(a, -1)


def _c(n, j):
    # signless Stirling with c(n, j) = 0 outside 1 <= j <= n
    if j < 1 or j > n:
        return 0
    return stirling_first(n, j)


def test_stirling_first_table():
    # signless first kind: c(4, 2) = 11, c(5, 3) = 35, row sums are n!
    assert stirling_first(4, 2) == 11
    assert stirling_first(5, 3) == 35
    for n in range(1, 9):
        assert sum(stirling_first(n, j) for j in range(1, n + 1)) == math.factorial(n)
    # recurrence c(n, j) = c(n-1, j-1) + (n-1) c(n-1, j)
    for n in range(2, 10):
        for j in range(1, n + 1):
            assert stirling_first(n, j) == _c(n - 1, j - 1) + (n - 1) * _c(n - 1, j)


def test_bernoulli_table():
    expect = {
        0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
        3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
        8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730),
        14: Fraction(7, 6),
    }
    for m, v in expect.items():
        assert bernoulli(m) == v, m


def test_divisor_power_sum():
    assert divisor_power_sum(6, 1) == 12
    assert divisor_power_sum(2, 3) == 9
    assert divisor_power_sum(12, 0) == 6
    for k in range(1, 60):
        assert divisor_power_sum(k, 2) == sum(d ** 2 for d in range(1, k + 1)
                                              if k % d == 0)


def test_alpha_weight_values():
    # alpha(s, j) = 2 c(s-1, j-1)/(s-1)!
    assert alpha_weight(2, 2) == Fraction(2)
    assert alpha_weight(3, 2) == Fraction(2, 2) * 1       # 2*c(2,1)/2! = 1
    assert alpha_weight(3, 3) == Fraction(1)
    assert alpha_weight(4, 2) == Fraction(2 * 2, 6)
    with pytest.raises(ValueError):
        alpha_weight(2, 3)
    with pytest.raises(ValueError):
        alpha_weight(1, 1)


phi_exps = st.dictionaries(st.integers(min_value=1, max_value=8),
                           st.integers(min_value=1, max_value=3), max_size=4)


@settings(max_examples=40, deadline=None)
@given(phi_exps, phi_exps)
def test_phiproduct_lcm_cofactor(e1, e2):
    p1, p2 = PhiProduct(e1), PhiProduct(e2)
    l = p1.lcm(p2)
    # lcm is divisible by both; cofactor * part == lcm as polynomials
    for part in (p1, p2):
        cof = l.cofactor(part)
        assert cof.expand() * part.expand() == l.expand()


@settings(max_examples=40, deadline=None)
@given(phi_exps, st.fractions(min_value=Fraction(1, 9), max_value=Fraction(9, 10)))
def test_phiproduct_eval_matches_expand(e, q0):
    p = PhiProduct(e)
    assert p.eval_fraction(q0) == p.expand().eval_fraction(q0)


def _small_qfrac(seed_poly, mshift, l, p):
    return QFrac(seed_poly).shift_u(2 * mshift).div_one_minus_qpow(l, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7)))
def test_qfrac_ops_match_fraction_arithmetic(mshift, l, p, q0):
    x = _small_qfrac(UPoly({0: 2, 2: -1}), mshift, l, p)
    y = _small_qfrac(UPoly({2: 3}), -mshift, l + 1, 1)
    fx = x.eval_fraction(q0)
    fy = y.eval_fraction(q0)
    assert (x + y).eval_fraction(q0) == fx + fy
    assert (x * y).eval_fraction(q0) == fx * fy
    assert (x - y).eval_fraction(q0) == fx - fy
    assert x.reduced().eval_fraction(q0) == fx


def test_qfrac_reduced_cancels():
    # (1 - q^2) / (1 - q) reduces to the polynomial 1 + q
    x = QFrac(UPoly.one() - UPoly.q_power(2)).div_one_minus_qpow(1, 1)
    r = x.reduced()
    assert r.den.is_one()
    assert r.num == UPoly({0: 1, 2: 1})


def test_phiproduct_rejects_negative_exponent():
    # a ValueError, not an assert, so that python -O checks it too
    with pytest.raises(ValueError, match="Phi_3 has exponent -1"):
        PhiProduct({3: -1})


def test_div_one_minus_qpow_needs_positive_m():
    for m in (-1, 0):
        with pytest.raises(ValueError):
            QFrac.one().div_one_minus_qpow(m)


def test_qfrac_opposite_parities_are_unequal():
    # u times a q-fraction never equals a q-fraction unless both are 0
    assert (QFrac(UPoly({1: 1})) == QFrac(UPoly.one())) is False
    assert QFrac(UPoly({1: 1})) != 1


def test_qfrac_subst_inv_consistent_with_values():
    q0 = Fraction(2, 5)
    x = QFrac(UPoly({0: 1, 2: 3})).div_one_minus_qpow(2, 2).shift_u(-2)
    assert x.subst_inv().eval_fraction(q0) == x.eval_fraction(1 / q0)


def test_totient_values():
    assert [totient(l) for l in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert totient(0) == totient(-3) == 0
    # the count of units mod l, independent of the Moebius recipe, and the
    # degree of the Phi_l that recipe builds
    for l in range(1, 301):
        units = sum(1 for k in range(1, l + 1) if math.gcd(k, l) == 1)
        assert totient(l) == units == cyclotomic(l).max_exp() // 2, l


# ----------------------------------------------------------------------
# QFrac.reduced against the oracles' own long division.

def long_divide(f: UPoly, d: UPoly):
    """f / d by schoolbook long division over Fraction, from the top term
    down, or None if it leaves a remainder: the oracles' own division,
    independent of UPoly.divexact."""
    if f.is_zero():
        return f
    a = [f.coeff(e) for e in range(f.min_exp(), f.max_exp() + 1, 2)]
    b = [d.coeff(e) for e in range(d.min_exp(), d.max_exp() + 1, 2)]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = a[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            a[i + j] -= quot[i] * y
    if any(a):
        return None
    return UPoly({f.min_exp() - d.min_exp() + 2 * i: c for i, c in enumerate(quot)})


def trial_reduced(x: QFrac) -> QFrac:
    """The reduction by trial exact division, one Phi_l at a time, kept
    as the oracle for QFrac.reduced."""
    if x.num.is_zero():
        return QFrac.zero()
    num = x.num
    exps = dict(x.den.e)
    for l in sorted(exps):
        phi = cyclotomic(l)
        while exps[l] > 0:
            quot = long_divide(num, phi)
            if quot is None:
                break
            num = quot
            exps[l] -= 1
        if not exps[l]:
            del exps[l]
    return QFrac(num, PhiProduct(exps))


def divides(f: UPoly, d: UPoly) -> bool:
    return long_divide(f, d) is not None


@st.composite
def numerators(draw):
    """A UPoly of either u-parity, with integer or Fraction coefficients."""
    par = draw(st.sampled_from((0, 1)))
    fractions = draw(st.booleans())
    d = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)) if fractions else 1)
        d[2 * draw(st.integers(-3, 3)) + par] = c
    return UPoly(d)


# exponents of Phi_l, l <= 12: a_l multiplied into the numerator, b_l the
# denominator's; ms are binomials q^m - 1 put into both
cyclo_exps = st.dictionaries(st.integers(min_value=1, max_value=12),
                             st.integers(min_value=0, max_value=3), max_size=5)
binomials = st.lists(st.integers(min_value=1, max_value=12), max_size=3)


@settings(max_examples=150, deadline=None)
@given(numerators(), cyclo_exps, cyclo_exps, binomials)
# Phi_2 Phi_4 without Phi_1: q^4 - 1 is not in the denominator
@example(UPoly({0: 1, 2: 5}), {2: 1, 4: 2}, {2: 1, 4: 1}, [])
# a denominator exponent above the numerator's multiplicity
@example(UPoly({1: Fraction(1, 3)}), {3: 1, 1: 1}, {3: 3, 1: 2}, [6])
# a zero numerator
@example(UPoly(), {}, {5: 2}, [4])
# a Phi_l in the numerator that the denominator lacks
@example(UPoly({0: -2}), {5: 2, 7: 1}, {1: 1}, [2])
# 1 + q - q^2: its even-power coefficients sum to 0, yet q^2 - 1 does not divide it
@example(UPoly({0: 1, 2: 1, 4: -1}), {}, {1: 1, 2: 1}, [])
# a leftover Phi_30, whose recipe multiplies by four binomials q^d - 1
# (d = 1, 6, 10, 15) and divides by four; it cancels twice, then fails
@example(UPoly({0: 1, 2: 5}), {30: 2}, {30: 3, 6: 1}, [])
# a leftover Phi_12: mu(12) = mu(4) = 0 drops q - 1 and q^3 - 1 from it
@example(UPoly({1: Fraction(2, 3), 3: -1}), {12: 1, 4: 1}, {12: 2, 4: 1, 2: 1}, [])
# the binomials q^3 - 1 and q^2 - 1 cancel, then 2 + q leaves Phi_1 over once
@example(UPoly({0: 2, 2: 1}), {1: 1, 2: 1}, {1: 2, 2: 1}, [3])
def test_reduced_matches_trial_division(g, a, b, ms):
    a, b = dict(a), dict(b)
    for m in ms:
        for d in _divisors(m):
            a[d] = a.get(d, 0) + 1
            b[d] = b.get(d, 0) + 1
    x = QFrac(g * PhiProduct(a).expand(), PhiProduct(b))
    got, want = x.reduced(), trial_reduced(x)
    assert (got.num.lo, got.num.v, got.num.den) == (want.num.lo, want.num.v, want.num.den)
    assert got.den.e == want.den.e
    for l in got.den.e:
        assert not divides(got.num, cyclotomic(l)), l


def fold_first_reduced(x: QFrac) -> QFrac:
    """QFrac.reduced with each division by q^m - 1 and by Phi_l proved
    exact beforehand by the oracles' long division, and q^m - 1 built anew
    for each division: the reference of the one trial loop, which tries
    each division and stops at the first remainder."""
    if x.num.is_zero():
        return QFrac.zero()
    num = x.num
    exps = dict(x.den.e)
    for m in sorted(exps, reverse=True):
        divs = _divisors(m)
        while all(exps.get(d) for d in divs) and divides(num, UPoly.q_power(m) - 1):
            num = long_divide(num, UPoly.q_power(m) - 1)
            for d in divs:
                exps[d] -= 1
    for l in sorted(exps):
        while exps[l] and divides(num, cyclotomic(l)):
            num = long_divide(num, cyclotomic(l))
            exps[l] -= 1
    return QFrac(num, PhiProduct(exps))


@st.composite
def phi_fractions(draw):
    """N prod Phi_d^(a_d) / prod Phi_d^(b_d), d <= 12, where the numerator's
    exponents cancel all of the denominator, part of it, or none of it,
    and whole binomials q^m - 1 sit in the denominator (and, unless
    nothing cancels, in the numerator too)."""
    g = draw(numerators())
    b = dict(draw(cyclo_exps))
    ms = draw(binomials)
    for m in ms:
        for d in _divisors(m):
            b[d] = b.get(d, 0) + 1
    cancel = draw(st.sampled_from(("full", "partial", "none")))
    if cancel == "full":
        a = {d: e + draw(st.integers(0, 1)) for d, e in b.items()}
    elif cancel == "partial":
        a = {d: draw(st.integers(0, e)) for d, e in b.items()}
    else:
        a = {}
    return QFrac(g * PhiProduct(a).expand(), PhiProduct(b))


@settings(max_examples=200, deadline=None)
@given(phi_fractions())
# (q^4 - 1)(1 + q) / Phi_1^2 Phi_2^2 Phi_4^2: q^4 - 1 divides once, then
# ends on a failed division, q^2 - 1 fails at once, Phi_2 divides
@example(QFrac(UPoly({10: 1, 8: 1, 2: -1, 0: -1}), PhiProduct({1: 2, 2: 2, 4: 2})))
# odd u-parity, nothing cancels
@example(QFrac(UPoly({1: Fraction(2, 3), 3: 1}), PhiProduct({1: 1, 3: 2, 6: 1})))
def test_one_pass_reduction_matches_fold_first(x):
    got, want = x.reduced(), fold_first_reduced(x)
    assert (got.num.lo, got.num.v, got.num.den) == (want.num.lo, want.num.v, want.num.den)
    assert got.den.e == want.den.e


def test_qfrac_eq_cases(monkeypatch):
    n = UPoly({0: 3, 2: -1, 6: Fraction(1, 2)})
    x = QFrac(n, PhiProduct({1: 1, 3: 2}))
    same = QFrac(UPoly({0: 3, 2: -1, 6: Fraction(1, 2)}), PhiProduct({3: 2, 1: 1}))
    unreduced = QFrac(n * cyclotomic(1), PhiProduct({1: 1}))
    odd = QFrac(n.shift_u(1), PhiProduct({1: 1, 3: 2}))
    # equal values in unreduced form take the subtraction
    assert unreduced == QFrac(n)
    assert QFrac(n) == unreduced
    assert (odd == x) is False and (x == odd) is False
    assert QFrac.zero() == QFrac(UPoly(), PhiProduct({2: 1}))

    def no_subtraction(*args):
        raise AssertionError("equal fields were compared by subtracting")

    # equal fields, and zero against zero, answer without subtracting
    monkeypatch.setattr(QFrac, "__add__", no_subtraction)
    monkeypatch.setattr(QFrac, "__sub__", no_subtraction)
    assert x == same and same == x
    assert QFrac.zero() == QFrac.zero()
    assert QFrac.zero() == 0
