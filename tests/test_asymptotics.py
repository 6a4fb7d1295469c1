"""Tests for slope estimators and the dimension bound delta(A, r)."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qzeta import asymptotics
from qzeta.asymptotics import (
    SlopeEstimate,
    _first_argmax,
    delta,
    delta_asymptotic_constant,
    delta_best_r,
    delta_constant_grid_max,
    delta_exact_pair,
    fit_limit,
    log_abs_fraction,
    slope_D,
    slope_P,
    slope_S,
    verify_delta_recombination,
)
from qzeta.linform import D_n, P_eps_values_hat, Params
from qzeta.series import working_prec


# ----------------------------------------------------------------------
# delta(A, r)

def test_delta_12_2_reference_value():
    assert abs(delta(12, 2) - mpf("1.080059")) < 1e-6


def test_delta_2_1_below_one():
    # the smallest admissible pair gives a bound weaker than 1
    v = delta(2, 1)
    assert abs(v - mpf("0.3558")) < 1e-4
    assert v < 1


def test_delta_exact_pair_matches_numeric():
    with mp.workprec(120):
        x = 1 / mp.pi**2
        for A in (2, 4, 12, 20):
            for r in range(1, A // 2 + 1):
                (a0, a1), (b0, b1) = delta_exact_pair(A, r)
                v = (mpf(a0.numerator) / a0.denominator + a1 * x) / (
                    mpf(b0.numerator) / b0.denominator
                    + mpf(b1.numerator) / b1.denominator * x)
                assert abs(v - delta(A, r, prec=120)) < mpf(2) ** -100


@pytest.mark.parametrize("A,r", [(3, 1), (0, 1), (-2, 1), (4, 0), (4, 3)])
def test_delta_rejects_bad_parameters(A, r):
    with pytest.raises(ValueError):
        delta(A, r)


@pytest.mark.parametrize("A", [0, -4])
def test_delta_best_r_rejects_bad_A(A):
    with pytest.raises(ValueError, match="A must be an even integer"):
        delta_best_r(A)


def _scan_best_r(A):
    """The first maximum of delta(A, r) over every r in 1..A/2."""
    best = None
    for r in range(1, A // 2 + 1):
        v = delta(A, r)
        if best is None or v > best[1]:
            best = (r, v)
    return best


def test_delta_best_r_matches_exhaustive_scan():
    for A in [*range(2, 400, 2), 1000, 2000]:
        assert delta_best_r(A) == _scan_best_r(A), A
    assert delta_best_r(12)[0] == 2


@pytest.mark.parametrize("A", [10**5, 10**8, 2 * 10**30])
def test_delta_best_r_large_A_is_a_local_maximum(A):
    """At sizes no scan reaches, the chosen r beats both neighbours (delta
    is unimodal in r)."""
    r, v = delta_best_r(A)
    assert v == delta(A, r)
    assert delta(A, r - 1) < v and delta(A, r + 1) < v


def test_delta_recombination_identity_grid():
    # zero-tolerance: slope targets recombine into delta over Q[1/pi^2]
    for A in range(4, 22, 2):
        for r in range(1, A // 2 + 1):
            assert verify_delta_recombination(A, r), (A, r)


def test_delta_asymptotic_constant_closed_form_vs_grid():
    const, u_star = delta_asymptotic_constant()
    grid = delta_constant_grid_max()
    assert abs(const - grid) < 1e-30
    with mp.workprec(120):
        # closed form pi / (2 sqrt(pi^2 + 12)) and the maximizing ratio
        assert abs(const - mp.pi / (2 * mp.sqrt(mp.pi**2 + 12))) < 1e-15
        c = 24 / mp.pi**2 + 2
        assert abs(u_star - mp.sqrt(c / 8)) < 1e-15
        # stationarity: f(u*) equals the constant
        f = 4 * u_star / (c + 8 * u_star**2)
        assert abs(f - const) < 1e-15


def _scan_grid_max(prec):
    """delta_constant_grid_max with its grid point found by the full
    4001-point scan: (scan index, _first_argmax's index, value)."""
    with mp.workprec(working_prec(prec)):
        c = 24 / mp.pi**2 + 2

        def f(u):
            return 4 * u / (c + 8 * u * u)

        lo_m = mpf(0.05)
        step = (mpf(4) - lo_m) / 4000
        on_grid = lambda i: f(lo_m + i * step)  # noqa: E731
        best_i = max(range(4001), key=on_grid)
        a = lo_m + max(best_i - 1, 0) * step
        b = lo_m + min(best_i + 1, 4000) * step
        invphi = (mp.sqrt(5) - 1) / 2
        c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = f(c1), f(c2)
        for _ in range(200):
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + invphi * (b - a)
                f2 = f(c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - invphi * (b - a)
                f1 = f(c1)
            if b - a < mpf(2) ** (-max(prec, 53) // 2):
                break
        return best_i, _first_argmax(on_grid, 4000), f((a + b) / 2)


@pytest.mark.parametrize("prec", (16, 53, 96, 256, 1024))
def test_grid_max_search_matches_the_full_scan(prec):
    scan_i, search_i, value = _scan_grid_max(prec)
    assert search_i == scan_i
    assert delta_constant_grid_max(prec)._mpf_ == value._mpf_


def test_first_argmax_on_small_unimodal_lists():
    """Every peak position of every length up to 12, with and without a
    tie at the top: the first index of the largest value."""
    for size in range(1, 13):
        for top in range(size):
            rise_fall = [-abs(i - top) for i in range(size)]
            lists = [rise_fall]
            if top + 1 < size:
                lists.append(rise_fall[:top + 1] + [0] + rise_fall[top + 1:-1])
            for vals in lists:
                assert _first_argmax(vals.__getitem__, size - 1) == top, vals


# ----------------------------------------------------------------------
# fitting helpers

def test_fit_limit_recovers_synthetic_model():
    c0, c1, c2 = -0.6931, 0.8, -2.5
    pts = [(n, c0 + c1 / n + c2 * math.log(n) / n**2)
           for n in range(5, 41)]
    assert abs(fit_limit(pts) - c0) < 1e-9


def test_fit_limit_requires_three_points():
    with pytest.raises(ValueError):
        fit_limit([(1, 0.0), (2, 0.0)])


def test_short_slope_ranges_are_rejected_before_any_work(monkeypatch):
    """A range of two n is refused before any series or table is built."""
    def no_work(*args):
        raise AssertionError("a short range did work")

    monkeypatch.setattr(asymptotics, "P_eps_values_hat", no_work)
    monkeypatch.setattr(asymptotics, "S_eps_hat_numeric", no_work)
    for call in (lambda ns: slope_S(4, 1, 1, Fraction(1, 2), ns),
                 lambda ns: slope_P(4, 1, 0, Fraction(1, 2), ns),
                 lambda ns: slope_D(4, 1, Fraction(1, 2), ns)):
        with pytest.raises(ValueError, match="need at least 3 points to fit"):
            call(range(39, 41))


def test_log_abs_fraction():
    with mp.workprec(80):
        x = Fraction(-3, 7)
        assert abs(log_abs_fraction(x) - mp.log(mpf(3) / 7)) < mpf(2) ** -70
    with pytest.raises(ValueError):
        log_abs_fraction(Fraction(0))


def test_slope_estimate_requires_increasing_n():
    with pytest.raises(ValueError):
        SlopeEstimate("bad", ((2, 0.0), (2, 0.1)), 0.0, 0.0, 0.1, None)
    est = SlopeEstimate("ok", ((1, 0.5), (2, 0.25)), 0.0, 0.0, 0.25, None)
    rows = list(est.to_csv_rows())
    assert rows[0] == ("n", "value", "target", "gap")
    assert len(rows) == 3
    js = est.to_json()
    assert js["label"] == "ok" and len(js["points"]) == 2


# ----------------------------------------------------------------------
# slope estimators (short ranges; the long-range checks live in the
# acceptance suite)

def test_slope_S_short_range_approaches_target():
    est = slope_S(4, 1, 1, Fraction(1, 2), range(2, 15))
    with mp.workprec(80):
        assert abs(est.target + mp.log(2)) < 1e-15
    assert est.rel_gap < 0.05


def test_slope_S_rejects_degenerate_target():
    with pytest.raises(ValueError):
        slope_S(4, 2, 1, Fraction(1, 2), range(2, 6))


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-1, 3)])
def test_slope_P_rejects_the_vanishing_form(q0):
    """At A = 2, eps = 1 every P_s^[1] is 0 (P_0 vanishes, and no odd s
    lies in 2..A), so slope_P says so instead of finding too few points."""
    assert all(P_eps_values_hat(2, 1, n, 1, q0) == (0, ()) for n in range(1, 11))
    with pytest.raises(ValueError, match="A = 2, eps = 1 excluded: every P_s"):
        slope_P(2, 1, 1, q0, range(1, 5))
    assert slope_P(2, 1, 0, q0, range(1, 5)).points


def test_slope_S_takes_odd_n_at_negative_q():
    """log |S_n| = log |S_hat_n| - ((A-2r)n/4) log |q0| needs no root of
    q0 < 0: odd n give points at q0 = -1/2, and the even-n points keep the
    17-digit strings they had when S_n was the monomial times the hat value
    and only even n were accepted."""
    est = slope_S(4, 1, 1, Fraction(-1, 2), range(2, 9))
    assert [n for n, _ in est.points] == list(range(2, 9))
    assert {n: mp.nstr(v, 17) for n, v in est.points if n % 2 == 0} == {
        2: "-1.4242950594131168", 4: "-0.97107071744504862",
        6: "-0.87091302203119928", 8: "-0.82514216949185177"}


def test_slope_P_mechanics():
    est = slope_P(4, 1, 1, Fraction(1, 2), range(3, 9), margin=1.0)
    assert est.extras["violations"] == []
    assert est.extras["margin"] == 1.0
    # parity family for eps = 1, A = 4 is s in {3}; s = 0 always tracked
    ss = {s for (_, s) in est.extras["samples"]}
    assert ss == {0, 3}
    with mp.workprec(80):
        assert abs(est.target - mp.log(2)) < 1e-15


def test_slope_D_points_match_polynomial_evaluation():
    # factored-log route vs brute-force evaluation of the actual D_n
    q0 = Fraction(1, 4)  # its square root u0 = 1/2 is rational
    est = slope_D(4, 1, q0, range(1, 7))
    with mp.workprec(120):
        for n, v in est.points:
            a, b = D_n(Params(4, 1, n)).eval_pair(q0)  # D_n(q0) = a + b u0
            assert abs(v - log_abs_fraction(a + b / 2) / n**2) < mpf(2) ** -100


def test_slope_D_target():
    est = slope_D(6, 2, Fraction(1, 2), range(2, 12))
    with mp.workprec(80):
        assert abs(est.target - (18 / mp.pi**2 + mpf(6) / 8 + 2) * mp.log(2)) \
            < 1e-15
