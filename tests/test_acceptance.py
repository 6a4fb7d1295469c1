"""End-to-end verification battery.

One test per advertised guarantee, each at its stated tolerance and
budget, so a verbose run reads as a pass/fail checklist of everything
the toolkit promises.
"""

import time
from fractions import Fraction

from mpmath import mp, mpf

from qzeta.asymptotics import (
    delta,
    delta_asymptotic_constant,
    delta_constant_grid_max,
    slope_D,
    slope_P,
    slope_S,
)
from qzeta.eisenstein import (
    classical_limit_check,
    eisenstein_expansion,
    express_in_E4_E6,
)
from qzeta.linform import (
    P_eps_hat,
    Params,
    d_symmetry_check,
    denominator_check,
    identity_residual,
    kernel_symmetry_check,
    p1_at_one_check,
    p_reciprocity_check,
    reconstruction_check,
)
from qzeta.zeta3 import (
    dbar_probe,
    qball_numeric,
    qbgn_numeric,
    zeta3_form,
    zeta3_identity_residual,
    zeta3_partial_fractions,
)

PAIRS = ((4, 1), (6, 1), (6, 2))
TOL40 = mpf(10) ** -40


def test_01_dimension_bound_value_and_speed():
    t0 = time.perf_counter()
    v = delta(12, 2)
    elapsed = time.perf_counter() - t0
    assert abs(v - mpf("1.080059")) < 1e-6
    assert v > 1
    assert elapsed < 1.0


def test_02_asymptotic_constant_closed_form_vs_grid():
    const, _ = delta_asymptotic_constant()
    assert abs(const - mpf("0.335892")) < 1e-6
    with mp.workprec(120):
        assert abs(const - mp.pi / (2 * mp.sqrt(mp.pi ** 2 + 12))) < 1e-15
    assert abs(const - delta_constant_grid_max()) < 1e-8


def test_03_linear_form_identity_grid():
    t0 = time.perf_counter()
    worst = mpf(0)
    for A, r in PAIRS:
        for n in range(9):
            for eps in (0, 1):
                for q0 in (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2)):
                    out = identity_residual(Params(A, r, n, eps), q0, 256)
                    worst = max(worst, out["residual"])
    elapsed = time.perf_counter() - t0
    assert worst < TOL40, worst
    assert elapsed < 300.0


def test_04_integrality_grid_zero_failures():
    failures = []
    for A, r in PAIRS:
        for n in range(9):
            for eps in (0, 1):
                out = denominator_check(Params(A, r, n, eps))
                if not out["pass"]:
                    failures.append((A, r, n, eps))
    assert failures == []


def test_05_exact_structural_identities():
    for A, r in PAIRS:
        for n in range(9):
            p = Params(A, r, n)
            assert reconstruction_check(p), (A, r, n)
            assert kernel_symmetry_check(p), (A, r, n)
            assert d_symmetry_check(p), (A, r, n)
            for s in range(1, A + 1):
                assert p_reciprocity_check(p, s), (A, r, n, s)
    for n in range(13):
        assert p1_at_one_check(Params(4, 1, n)), n
        assert zeta3_partial_fractions(n).residue_sum().is_zero(), n


def test_06_growth_slopes():
    q0 = Fraction(1, 2)
    with mp.workprec(80):
        log2 = mp.log(2)
        est_s = slope_S(4, 1, 1, q0, range(2, 41))
        assert abs(est_s.target + log2) < 1e-15
        assert est_s.rel_gap < 0.05, est_s.rel_gap

        est_d = slope_D(4, 1, q0, range(2, 61))
        assert abs(est_d.target - (12 / mp.pi ** 2 + 1) * log2) < 1e-15
        last_gap = abs(est_d.last - est_d.target) / est_d.target
        assert last_gap < 0.03, last_gap

        for eps in (0, 1):
            est_p = slope_P(4, 1, eps, q0, range(36, 41), margin=0.02)
            assert abs(est_p.target - log2) < 1e-15
            assert est_p.extras["violations"] == [], eps


def test_07_series_pair_agreement():
    for q0 in (Fraction(1, 3), Fraction(1, 2)):
        for n in range(9):
            ball = qball_numeric(n, q0, 160)
            bgn = qbgn_numeric(n, q0, 160)
            assert abs(ball - bgn) < TOL40, (n, q0)
    # the weight-3 forms are those of (4, 1, eps = 1), exactly:
    # (q^(n(n+1)) A_n, -q^(n(n+1)) B_n) = (P_3^[1], P_0^[1]), u = q^(1/2)
    for n in range(9):
        a_n, b_n = zeta3_form(n)
        ps = P_eps_hat(Params(4, 1, n, 1))
        assert set(ps) == {0, 3}, n
        shift = 2 * n * (n + 1)
        assert a_n.shift_u(shift) == ps[3], n
        assert -b_n.shift_u(shift) == ps[0], n


def test_08_weight3_decomposition_and_clearing():
    for n in range(9):
        out = zeta3_identity_residual(n, Fraction(1, 3), 160)
        assert out["residual"] < TOL40, n
    probe = dbar_probe(range(1, 11))
    assert probe["all_m"] == [3]


def test_09_eisenstein_ring_identities():
    e8 = express_in_E4_E6(8, eisenstein_expansion(4, 60),
                          n_solve=19, n_verify=60)
    assert [(b["a"], b["b"], b["c"]) for b in e8["basis"]] == [(2, 0, 1)]
    e10 = express_in_E4_E6(10, eisenstein_expansion(5, 60),
                           n_solve=19, n_verify=60)
    assert [(b["a"], b["b"], b["c"]) for b in e10["basis"]] == [(1, 1, 1)]
    e12 = express_in_E4_E6(12, eisenstein_expansion(6, 42))
    assert e12["solved_on"] == 2
    assert e12["verified_to"] == 42  # 40 coefficients beyond the solve
    assert {(b["a"], b["b"]): b["c"] for b in e12["basis"]} == {
        (3, 0): Fraction(441, 691), (0, 2): Fraction(250, 691)}


def test_10_classical_degeneration_monotone():
    out = classical_limit_check(
        s=2, q0_list=(Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)))
    assert out["monotone_decreasing"]
