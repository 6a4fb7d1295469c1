"""Tests for Eisenstein q-expansions and the even-weight q-zeta bridge."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qzeta.eisenstein import (
    InconsistentSystemError,
    QExpansion,
    classical_limit_check,
    eisenstein_expansion,
    eisenstein_value,
    express_in_E4_E6,
    monomial_basis,
    zetaq_even_consistency,
    zetaq_even_in_basis,
)
from qzeta.linform import zeta_q


def _sigma(k: int, e: int) -> int:
    return sum(d ** e for d in range(1, k + 1) if k % d == 0)


# ----------------------------------------------------------------------
# expansions

def test_expansion_matches_brute_force_divisor_sums():
    for s, c in ((1, -24), (2, 240), (3, -504)):
        exp = eisenstein_expansion(s, 20)
        assert exp.weight == 2 * s
        assert exp.order == 20
        assert exp.coeff(0) == 1
        for k in range(1, 21):
            assert exp.coeff(k) == c * _sigma(k, 2 * s - 1), (s, k)


def test_expansion_known_leading_coefficients():
    e4 = eisenstein_expansion(2, 3)
    assert [e4.coeff(k) for k in range(4)] == [1, 240, 2160, 6720]
    e6 = eisenstein_expansion(3, 3)
    assert [e6.coeff(k) for k in range(4)] == [1, -504, -16632, -122976]
    e2 = eisenstein_expansion(1, 2)
    assert [e2.coeff(k) for k in range(3)] == [1, -24, -72]


def test_expansion_validation():
    with pytest.raises(ValueError):
        eisenstein_expansion(0, 5)
    with pytest.raises(ValueError):
        eisenstein_expansion(2, 0)


# ----------------------------------------------------------------------
# QExpansion arithmetic

def test_expansion_arithmetic():
    x = QExpansion(4, (1, 2, 3))
    y = QExpansion(6, (1, -1, 0, 7))
    p = x * y
    assert p.weight == 10
    assert p.order == 2  # truncated to the shorter operand
    assert [p.coeff(k) for k in range(3)] == [1, 1, 1]
    sq = x ** 2
    assert sq.weight == 8
    assert [sq.coeff(k) for k in range(3)] == [1, 4, 10]
    assert x ** 0 == QExpansion(0, (1, 0, 0))
    with pytest.raises(ValueError):
        x ** -1


# ----------------------------------------------------------------------
# monomial basis and exact decompositions

def test_monomial_basis():
    assert monomial_basis(8) == ((2, 0),)
    assert monomial_basis(10) == ((1, 1),)
    assert monomial_basis(12) == ((3, 0), (0, 2))
    assert monomial_basis(14) == ((2, 1),)
    assert monomial_basis(2) == ()
    assert monomial_basis(0) == ((0, 0),)
    with pytest.raises(ValueError):
        monomial_basis(7)
    with pytest.raises(ValueError):
        monomial_basis(-4)


def _coeff_map(expr):
    return {(row["a"], row["b"]): row["c"] for row in expr["basis"]}


def test_weight_8_and_10_identities_on_sixty_coefficients():
    for s, key in ((4, (2, 0)), (5, (1, 1))):
        target = eisenstein_expansion(s, 60)
        expr = express_in_E4_E6(2 * s, target, n_solve=20, n_verify=60)
        assert _coeff_map(expr) == {key: Fraction(1)}
        assert expr["verified_to"] == 60


def test_weight_12_minimal_system_with_extra_verification():
    target = eisenstein_expansion(6, 42)
    expr = express_in_E4_E6(12, target)  # minimal solve, +40 verify
    assert expr["solved_on"] == 2
    assert expr["verified_to"] == 42
    assert _coeff_map(expr) == {(3, 0): Fraction(441, 691),
                                (0, 2): Fraction(250, 691)}


def test_weight_14_identity():
    target = eisenstein_expansion(7, 45)
    expr = express_in_E4_E6(14, target, n_solve=4, n_verify=45)
    assert _coeff_map(expr) == {(2, 1): Fraction(1)}


def _perturb(exp: QExpansion, k: int) -> QExpansion:
    coeffs = list(exp.coeffs)
    coeffs[k] += 1
    return QExpansion(exp.weight, tuple(coeffs))


def test_perturbation_inside_solve_window_raises():
    target = _perturb(eisenstein_expansion(4, 50), 1)
    with pytest.raises(InconsistentSystemError):
        express_in_E4_E6(8, target, n_solve=3, n_verify=50)


def test_perturbation_in_verify_window_raises():
    # solved system is fine; the extra verified coefficients catch it
    target = _perturb(eisenstein_expansion(4, 50), 30)
    with pytest.raises(InconsistentSystemError):
        express_in_E4_E6(8, target, n_solve=3, n_verify=50)


def test_express_input_validation():
    e8 = eisenstein_expansion(4, 50)
    with pytest.raises(ValueError):
        express_in_E4_E6(10, e8, n_solve=3, n_verify=50)  # weight mismatch
    with pytest.raises(ValueError):
        express_in_E4_E6(2, QExpansion(2, (0,) * 51))  # empty basis
    with pytest.raises(ValueError):
        express_in_E4_E6(8, e8, n_solve=3, n_verify=80)  # target too short
    with pytest.raises(ValueError):
        express_in_E4_E6(8, e8, n_solve=10, n_verify=10)  # verify <= solve


# ----------------------------------------------------------------------
# even-weight q-zeta values

def test_zetaq_even_in_basis_small_weights():
    z4 = zetaq_even_in_basis(4)
    assert z4["const"] == Fraction(-1, 240)
    assert _coeff_map(z4) == {(1, 0): Fraction(1, 240)}
    z6 = zetaq_even_in_basis(6)
    assert z6["const"] == Fraction(1, 504)
    assert _coeff_map(z6) == {(0, 1): Fraction(-1, 504)}
    z8 = zetaq_even_in_basis(8)
    assert z8["const"] == Fraction(-1, 480)
    assert _coeff_map(z8) == {(2, 0): Fraction(1, 480)}
    with pytest.raises(ValueError):
        zetaq_even_in_basis(3)
    with pytest.raises(ValueError):
        zetaq_even_in_basis(2)


def test_zetaq_even_expansion_matches_direct_divisor_series():
    # coefficientwise: zeta_q(s) = sum_k sigma_{s-1}(k) q^k
    for s in (4, 6, 8):
        expr = zetaq_even_in_basis(s, n_solve=6, n_verify=20)
        c = expr["const"]
        total = [c] + [Fraction(0)] * 20
        for row in expr["basis"]:
            mono = (eisenstein_expansion(2, 20) ** row["a"]
                    * eisenstein_expansion(3, 20) ** row["b"])
            for k in range(21):
                total[k] += row["c"] * mono.coeff(k)
        assert total[0] == 0
        for k in range(1, 21):
            assert total[k] == _sigma(k, s - 1), (s, k)


def test_eisenstein_value_matches_plain_partial_sum():
    q0 = Fraction(1, 3)
    with mp.workprec(200):
        q = mpf(1) / 3
        brute = 1 + 240 * mp.fsum(_sigma(k, 3) * q ** k
                                  for k in range(1, 220))
        assert abs(eisenstein_value(2, q0, 120) - brute) < mpf(2) ** -110


def _e4_e6_lambert(q0, prec):
    """E_4 and E_6 at q0 by the other route, E_2s = 1 - (4s/B_2s) zeta_q(2s)."""
    return 1 + 240 * zeta_q(4, q0, prec), 1 - 504 * zeta_q(6, q0, prec)


@pytest.mark.parametrize("s,q0", [(6, Fraction(9, 10)), (6, Fraction(-9, 10)),
                                  (8, Fraction(-9, 10)), (4, Fraction(95, 100)),
                                  (4, Fraction(97, 100)), (4, Fraction(99, 100)),
                                  (4, Fraction(999, 1000))])
def test_eisenstein_value_near_one_matches_e4_e6(s, q0):
    # E_2s with s = 4, 6, 8 near |q| = 1: each bound limit is below 1
    val = eisenstein_value(s, q0)
    with mp.workprec(288):
        e4, e6 = _e4_e6_lambert(q0, 256)
        if s == 4:
            ref = e4 ** 2
        elif s == 6:
            ref = (441 * e4 ** 3 + 250 * e6 ** 2) / 691
        else:
            expr = express_in_E4_E6(16, eisenstein_expansion(8, 42))
            ref = mp.fsum(mpf(row["c"].numerator) / row["c"].denominator
                          * e4 ** row["a"] * e6 ** row["b"]
                          for row in expr["basis"])
        assert abs(val - ref) < abs(ref) * mpf(10) ** -40


@pytest.mark.parametrize("s,q0", [(2, Fraction(9, 10)), (2, Fraction(-9, 10)),
                                  (3, Fraction(97, 100))])
def test_eisenstein_value_where_the_divisor_bound_diverged(s, q0):
    # |q0| zeta(2s-1) >= 1 here, where a bound sigma_e(k) <= zeta(e) k^e
    # cannot certify; check E_4^2 = E_8 and E_4 E_6 = E_10
    with mp.workprec(288):
        e4 = eisenstein_value(2, q0)
        if s == 2:
            val, ref = e4 ** 2, eisenstein_value(4, q0)
        else:
            val, ref = e4 * eisenstein_value(3, q0), eisenstein_value(5, q0)
        assert abs(val - ref) < abs(ref) * mpf(10) ** -40


def test_eisenstein_value_validation():
    for bad in (0, 1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            eisenstein_value(2, bad)
    with pytest.raises(ValueError):
        eisenstein_value(0, Fraction(1, 3))
    for prec in (0, -50):  # named before the tolerance shifts by prec + 1
        with pytest.raises(ValueError, match=f"need prec >= 1, got {prec}"):
            eisenstein_value(2, Fraction(1, 2), prec)


@pytest.mark.parametrize("s", (4, 6))
def test_dual_route_consistency(s):
    out = zetaq_even_consistency(s=s, q0=Fraction(1, 3), prec=160)
    assert out["residual"] < mpf(10) ** -40


def test_classical_limit_check():
    out = classical_limit_check()
    assert out["s"] == 2
    with mp.workprec(96):
        assert abs(out["target"] - mp.pi ** 2 / 6) < mpf(2) ** -80
    assert out["monotone_decreasing"]
    # convergence is linear in (1 - q): ~1.3% at q = 99/100
    assert out["rows"][-1]["rel_error"] < 2e-2
    with pytest.raises(ValueError):
        classical_limit_check(s=1)
    with pytest.raises(ValueError):
        classical_limit_check(q0_list=(Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(ValueError):
        classical_limit_check(q0_list=(Fraction(9, 10), Fraction(1, 2)))
    # one more step toward 1: ~0.13% at q = 999/1000
    grid = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))
    out = classical_limit_check(2, grid, 96)
    assert out["monotone_decreasing"]
    assert out["rows"][-1]["rel_error"] < 2e-3
    # and to q = 9999/10000, beyond the direct series' term cap: ~0.013%
    grid = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100), Fraction(9999, 10000))
    out = classical_limit_check(2, grid, 96)
    assert out["monotone_decreasing"]
    assert out["rows"][-1]["rel_error"] < 2e-4
