"""Kernel partial fractions, linear-form coefficients, symmetrized
series, and the exact denominator machinery."""

import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qzeta.linform import (
    D_exponent,
    D_n,
    P_eps,
    P_eps_hat,
    P_eps_values_hat,
    P_z,
    Params,
    S_eps_hat_numeric,
    S_eps_numeric,
    S_tilde_numeric,
    _hat_numerator,
    d_symmetry_check,
    denominator_check,
    identity_residual,
    kernel_symmetry_check,
    linear_form_report,
    p1_at_one_check,
    p_reciprocity_check,
    partial_fractions,
    reconstruction_check,
    transform_check,
    zeta_q,
)
from qzeta.qcomb import PhiProduct, QFrac, divisor_power_sum
from qzeta.series import UPolyRing, working_prec
from qzeta.upoly import UPoly

SMALL = [(4, 1, 0), (4, 1, 1), (4, 1, 3), (6, 1, 2), (6, 2, 2), (2, 1, 2)]


def test_params_validation():
    with pytest.raises(ValueError):
        Params(3, 1, 1)
    with pytest.raises(ValueError):
        Params(4, 3, 1)
    with pytest.raises(ValueError):
        Params(4, 0, 1)
    with pytest.raises(ValueError):
        Params(4, 1, -1)
    with pytest.raises(ValueError):
        Params(4, 1, 1, eps=2)
    assert Params(4, 2, 3).prefactor_u == 0


def test_n0_partial_fractions_are_trivial():
    # kernel at n = 0 is 1/(1-T)^A: single pole, top coefficient 1
    for A, r in ((4, 1), (6, 2)):
        table = partial_fractions(Params(A, r, 0))
        assert table.dhat[0][A] == QFrac(UPoly.one())
        for s in range(1, A):
            assert table.dhat[0][s].is_zero()


def test_kernel_matches_direct_evaluation():
    # the hat numerator matches the defining product at a point; A != 2r,
    # so the (q;q)_n^(A-2r) factor and the T-shift are exercised
    q0, t0 = Fraction(1, 3), Fraction(5, 7)
    for A, r, n in ((4, 1, 2), (6, 1, 3), (6, 2, 1)):
        coeffs = _hat_numerator(A, r, n, UPolyRing)
        assert len(coeffs) - 1 == (A - 2 * r) * n // 2 + 2 * r * n
        got = sum(c.eval_fraction(q0) * t0 ** i for i, c in enumerate(coeffs))
        want = t0 ** ((A - 2 * r) * n // 2)
        for i in range(1, n + 1):
            want *= (1 - q0 ** i) ** (A - 2 * r)
        for i in range(r * n):
            want *= (1 - q0 ** (-r * n + i) * t0) * (1 - q0 ** (n + 1 + i) * t0)
        assert got == want, (A, r, n)


@pytest.mark.parametrize("A,r,n", SMALL)
def test_reconstruction_small(A, r, n):
    assert reconstruction_check(Params(A, r, n))


@pytest.mark.parametrize("A,r,n", SMALL)
def test_kernel_symmetry_small(A, r, n):
    assert kernel_symmetry_check(Params(A, r, n))


@pytest.mark.parametrize("A,r,n", SMALL)
def test_d_symmetry_small(A, r, n):
    assert d_symmetry_check(Params(A, r, n))


@pytest.mark.parametrize("A,r,n", [(4, 1, 1), (4, 1, 2), (6, 2, 2)])
def test_p_reciprocity_small(A, r, n):
    p = Params(A, r, n)
    for s in range(1, A + 1):
        assert p_reciprocity_check(p, s), s


def test_p1_vanishes_at_one():
    for n in range(0, 6):
        assert p1_at_one_check(Params(4, 1, n))
    assert p1_at_one_check(Params(6, 2, 3))


def test_symbolic_and_specialized_coefficients_agree():
    # the QFrac pipeline evaluated at q0 must equal the Fraction pipeline
    for q0 in (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)):
        for A, r, n in ((4, 1, 2), (6, 2, 2)):
            for eps in (0, 1):
                p = Params(A, r, n, eps)
                forms = P_eps_hat(p)
                p0, ps = P_eps_values_hat(A, r, n, eps, q0)
                assert forms[0].eval_fraction(q0) == p0
                for s, v in ps:
                    assert forms[s].eval_fraction(q0) == v, s


def test_parity_structure_of_forms():
    # eps = 1: only odd zeta indices >= 3; eps = 0: only even >= 2
    for A, r, n in ((4, 1, 3), (6, 1, 2), (6, 2, 2)):
        for eps in (0, 1):
            forms = P_eps_hat(Params(A, r, n, eps))
            szs = sorted(s for s in forms if s != 0)
            assert all(s % 2 == eps % 2 for s in szs), (eps, szs)
            assert all(s >= 2 for s in szs)
            assert 1 not in forms
            expected = [s for s in range(2, A + 1) if s % 2 == eps]
            assert szs == expected


def test_hat_and_plain_forms_differ_by_monomial():
    p = Params(4, 1, 2)          # prefactor q^(-n/2) = u^-2
    hat = P_eps_hat(p)
    plain = P_eps(p)
    for s, v in hat.items():
        assert plain[s].num == v.num.shift_u(p.prefactor_u)
        assert plain[s].den == v.den


def test_zeta_q_matches_divisor_series():
    # zeta_q(s) = sum sigma_{s-1}(k) q^k, partial sums as exact Fractions
    q0 = Fraction(1, 3)
    for s in (2, 3, 5):
        approx = sum(divisor_power_sum(k, s - 1) * q0 ** k for k in range(1, 60))
        with mp.workprec(working_prec(128)):
            val = zeta_q(s, q0, 128)
            qv = mpf(q0.numerator) / q0.denominator
            tail = mpf(60) ** (s - 1) * qv ** 60 / (1 - qv) ** 2 * 4
            assert abs(val - mpf(approx.numerator) / approx.denominator) < tail


def test_zeta_q_negative_base():
    q0 = Fraction(-1, 2)
    approx = sum(divisor_power_sum(k, 2) * q0 ** k for k in range(1, 120))
    with mp.workprec(working_prec(128)):
        val = zeta_q(3, q0, 128)
        assert abs(val - mpf(approx.numerator) / approx.denominator) < mpf(2) ** -60


@pytest.mark.parametrize("eps", (0, 1))
def test_identity_residual_small(eps):
    for q0 in (Fraction(1, 2), Fraction(-1, 2)):
        res = identity_residual(Params(4, 1, 2, eps), q0, 256)
        assert res["residual"] < mpf(10) ** -40


def test_s_numeric_normalizations():
    # plain = q0^(-(A-2r)n/4) * hat for integer exponent
    p = Params(4, 1, 2)          # exponent (A-2r)n/4 = 1
    q0 = Fraction(1, 2)
    with mp.workprec(working_prec(128)):
        hat = S_eps_hat_numeric(p, q0, 128)
        plain = S_eps_numeric(p, q0, 128)
        assert abs(plain - 2 * hat) < abs(hat) * mpf(2) ** -100


def test_s_numeric_rejects_fractional_monomial_at_negative_q():
    p = Params(4, 1, 1)          # exponent 1/2: genuine square root
    with pytest.raises(ValueError):
        S_eps_numeric(p, Fraction(-1, 2), 96)
    # hat version is fine at negative q0
    S_eps_hat_numeric(p, Fraction(-1, 2), 96)


def test_s_tilde_equals_hat_series():
    # the very-well-poised rearrangement agrees with the defining series
    q0 = Fraction(1, 3)
    with mp.workprec(working_prec(160)):
        for n in range(0, 4):
            p = Params(4, 1, n, 1)
            a = S_eps_hat_numeric(p, q0, 160)
            b = S_tilde_numeric(p, q0, 160)
            assert abs(a - b) < mpf(2) ** -120, n


def test_series_reject_q0_zero():
    with pytest.raises(ValueError, match="0 < \\|q0\\| < 1"):
        S_tilde_numeric(Params(4, 1, 1), Fraction(0))
    with pytest.raises(ValueError, match="0 < \\|q0\\| < 1"):
        identity_residual(Params(4, 1, 1), Fraction(0))
    assert zeta_q(3, Fraction(0)) == 0


def test_transform_check_small():
    q0 = Fraction(1, 3)
    for A, r, n in ((4, 1, 1), (4, 1, 2)):
        res = transform_check(Params(A, r, n), q0, 160)
        assert res < mpf(2) ** -120


def test_d_exponent_and_clearing_polynomial():
    # D_n = (A-1)! u^(2E) d_n(1/q)^A: u-monomial times an integral part
    from math import factorial
    from qzeta.qcomb import d_poly
    for A, r, n in ((4, 1, 3), (6, 1, 2), (6, 2, 4)):
        ex = D_exponent(A, r, n)
        assert (2 * ex).denominator == 1
        poly = D_n(Params(A, r, n))
        core = poly.shift_u(-int(2 * ex))
        assert core.only_even_exponents()
        assert core.coefficients_integral()
        assert core == UPoly.const(factorial(A - 1)) * d_poly(n).subst_inv() ** A


@pytest.mark.parametrize("A,r,n", [(4, 1, 1), (4, 1, 3), (6, 2, 2)])
def test_denominator_check_small(A, r, n):
    for eps in (0, 1):
        res = denominator_check(Params(A, r, n, eps))
        assert res["pass"], res
        for s, row in res["per_s"].items():
            assert row["ok"], (s, row)


def test_linear_form_report_json():
    p = Params(4, 1, 2, 1)
    rep = linear_form_report(p, Fraction(1, 3), 128)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["denom_pass"] is True
    forms = P_eps(p)
    assert sorted(e["s"] for e in data["P"]) == sorted(forms)
    for entry in data["P"]:
        den = PhiProduct({int(l): m for l, m in entry["den"].items()})
        got = QFrac(UPoly.from_json(entry["num"]), den)
        assert got.num == forms[entry["s"]].num and got.den == forms[entry["s"]].den
