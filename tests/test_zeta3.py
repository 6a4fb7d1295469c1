"""Tests for the weight-3 series pair and its exact decomposition."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from qzeta import linform, zeta3
from qzeta.linform import P_eps_hat, Params, S_eps_hat_numeric, zeta_q
from qzeta.zeta3 import (
    classical_ball,
    dbar_probe,
    qball_numeric,
    qbgn_numeric,
    zeta3_form,
    zeta3_form_values,
    zeta3_identity_residual,
    zeta3_partial_fractions,
    zeta3_reconstruction_check,
    zeta3_report,
)
from qzeta.series import PrecisionError, from_mpf, to_mpf, working_prec
from qzeta.zeta3 import _bgn_terms, _bracket_factor, _w_log_deriv_bracket
import point_oracle
from series_replay import NEAR_ONE, q0s, replayed, window_sizes
from test_exact_digest import _fields
from test_linform import _ref_terms


# ----------------------------------------------------------------------
# exact structure

def test_n0_kernel_is_trivial():
    # W_0(T) = 1/(1-T)^2: double-pole coefficient 1, simple-pole 0
    ker = zeta3_partial_fractions(0)
    assert len(ker.rows) == 1
    assert ker.rows[0][2].eval_fraction(Fraction(1, 3)) == 1
    assert ker.rows[0][1].is_zero()
    a0, b0 = zeta3_form(0)
    assert a0.eval_fraction(Fraction(1, 5)) == 1
    assert b0.is_zero()


@pytest.mark.parametrize("n", range(7))
def test_partial_fraction_reconstruction(n):
    assert zeta3_reconstruction_check(n)


@pytest.mark.parametrize("n", range(11))
def test_residue_sum_vanishes(n):
    assert zeta3_partial_fractions(n).residue_sum().is_zero()


@pytest.mark.parametrize("n", (0, 1, 2, 4, 6))
@pytest.mark.parametrize("q0", (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5),
                                Fraction(3, 2)))
def test_form_symbolic_matches_specialized(n, q0):
    a_sym, b_sym = zeta3_form(n)
    a_val, b_val = zeta3_form_values(n, q0)
    assert a_sym.eval_fraction(q0) == a_val
    assert b_sym.eval_fraction(q0) == b_val


@pytest.mark.parametrize("q0", (Fraction(0), Fraction(1), Fraction(-1)), ids=str)
def test_form_values_reject_poles(q0):
    for n in (0, 3):
        with pytest.raises(ValueError, match=f"got {q0}$"):
            zeta3_form_values(n, q0)


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("q0", (Fraction(1, 3), Fraction(-222, 499)), ids=str)
def test_form_values_match_fraction_reference(n, q0):
    assert zeta3_form_values(n, q0) == point_oracle.zeta3_form_values(n, q0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), q0s())
def test_form_values_match_fraction_reference_anywhere(n, q0):
    assert zeta3_form_values(n, q0) == point_oracle.zeta3_form_values(n, q0)


def test_weight3_form_is_the_a4_symmetrized_form():
    """A_n = q^(-n(n+1)) P_3^[1](4,1,n) and B_n = -q^(-n(n+1)) P_0^[1](4,1,n),
    exactly: the weight-3 forms are those of (4, 1, eps = 1) without
    their q^(n(n+1)) monomial."""
    for n in range(11):
        ps = P_eps_hat(Params(4, 1, n, 1))
        assert set(ps) == {0, 3}
        shift = -2 * n * (n + 1)    # u = q^(1/2)
        a_n, b_n = zeta3_form(n)
        assert _fields(a_n) == _fields(ps[3].shift_u(shift)), n
        assert _fields(b_n) == _fields(-ps[0].shift_u(shift)), n


# ----------------------------------------------------------------------
# the two series and their coincidence

@pytest.mark.parametrize("q0", (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 3)))
def test_ball_equals_derivative_series(q0):
    prec = 128
    tol = mpf(2) ** (-100)
    for n in range(5):
        ball = qball_numeric(n, q0, prec)
        bgn = qbgn_numeric(n, q0, prec)
        assert abs(ball - bgn) < tol, (n, q0)


def test_series_at_n0_equal_zeta_q3():
    # at n = 0 both series reduce termwise to the weight-3 q-zeta sum
    for q0 in (Fraction(1, 3), Fraction(1, 2)):
        z3 = zeta_q(3, q0, 160)
        assert abs(qball_numeric(0, q0, 160) - z3) < mpf(2) ** -150
        assert abs(qbgn_numeric(0, q0, 160) - z3) < mpf(2) ** -150


def _ref_ball_terms(n, q):
    """The ball-type summand per k, without its (q;q)_n^2."""
    k = n + 1
    while True:
        t = (1 - q ** (2 * k + n)) * q ** (k * (n + 1))
        for i in range(n):
            t *= (1 - q ** (k - n + i)) * (1 - q ** (1 + k + n + i))
        den = mpf(1)
        for i in range(n + 1):
            den *= 1 - q ** (k + i)
        yield t / den ** 4
        k += 1


@pytest.mark.parametrize("n", range(5))
def test_ball_matches_symmetrized_series(n):
    """qball_numeric is the (4, 1, eps = 1) kernel series bit for bit, and
    that sum matches the ball-type summand of the module docstring, summed
    directly over 300 terms (their ratio tends to q^(n+1))."""
    for q0 in (Fraction(1, 2), Fraction(-1, 3)):
        ball = qball_numeric(n, q0, 128)
        assert ball._mpf_ == S_eps_hat_numeric(Params(4, 1, n, 1), q0, 128)._mpf_
        with mp.workprec(256):
            q = mpf(q0.numerator) / q0.denominator
            terms = _ref_ball_terms(n, q)
            direct = mp.fprod(1 - q ** i for i in range(1, n + 1)) ** 2 * mp.fsum(
                next(terms) for _ in range(300))
            assert abs(ball - direct) < mpf(2) ** -100, (n, q0)


@pytest.mark.parametrize("n", range(5))
def test_identity_residual_small(n):
    out = zeta3_identity_residual(n, Fraction(1, 3), 160)
    assert out["residual"] < mpf(10) ** (-40)


def test_log_derivative_bracket_finite_difference():
    # independent oracle: central difference of W itself
    n, k = 3, 5
    with mp.workprec(260):
        q = mpf(1) / 3

        def w_at(t):
            num = mpf(1)
            for i in range(n):
                num *= (1 - q ** (i - n) * t) ** 2
            den = mpf(1)
            for i in range(n + 1):
                den *= (1 - q ** i * t) ** 2
            return num / den

        t0 = q ** k
        window = [_bracket_factor(from_mpf(q), m, mp.prec) for m in range(k - n, k + n + 1)]
        w, br = map(to_mpf, _w_log_deriv_bracket(n, window, mp.prec))
        assert abs(w - w_at(t0)) < mpf(2) ** -230
        h = mpf(2) ** -60
        wp = (w_at(t0 * (1 + h)) - w_at(t0 * (1 - h))) / (2 * h * t0)
        fd = 1 + t0 * wp / w
        assert abs(br - fd) < mpf(2) ** -100


# ----------------------------------------------------------------------
# The memoized derivative-type summands against the per-term products
# they replace.

def _ref_bracket(n, q, k):
    w = mpf(1)
    s = mpf(0)
    for i in range(n):
        f = 1 - q ** (k - n + i)
        w *= f * f
        s -= 2 * q ** (k - n + i) / f
    for i in range(n + 1):
        f = 1 - q ** (k + i)
        w /= f * f
        s += 2 * q ** (k + i) / f
    return w, 1 + s


def _ref_bgn_terms(n, q):
    k = n + 1
    while True:
        w, br = _ref_bracket(n, q, k)
        yield q ** k * w * br
        k += 1


def _ref_bgn_at(n, q0):
    return _ref_bgn_terms(n, mpf(q0.numerator) / q0.denominator)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), q0s(), st.sampled_from((64, 128)))
@example(0, NEAR_ONE[0], 128)
@example(6, NEAR_ONE[1], 64)
def test_memoized_series_terms_are_bit_identical(n, q0, prec):
    got, want = replayed(zeta3, lambda: qbgn_numeric(n, q0, prec),
                         lambda: _ref_bgn_at(n, q0))
    assert got == want


def test_series_memos_stay_a_window_near_one():
    """Past 300 terms, every list the derivative-type term generator holds
    has at most 2n + 2 entries: the factor windows slide with k."""
    n, q0 = 4, NEAR_ONE[1]
    got, want = replayed(zeta3, lambda: qbgn_numeric(n, q0, 64), lambda: _ref_bgn_at(n, q0))
    assert got == want
    assert got[1] > 300  # terms taken
    with mp.workprec(working_prec(64, 4 * n)):
        terms = _bgn_terms(n, from_mpf(mpf(q0.numerator) / q0.denominator), mp.prec)
        for _ in range(got[1]):
            next(terms)
    sizes = window_sizes(terms)
    assert sizes and sizes[-1] <= 2 * n + 2


# The _mpf_ and terms taken of both series past the n <= 2 of the numeric
# digest.  The bgn rows were recorded before its factor windows became
# sliding lists, the ball rows from S_eps_hat_numeric(Params(4, 1, n, 1)):
# each kind replays through the module that sums it, over its per-term
# reference.
WEIGHT3_PINS = [
    ("ball", 4, Fraction(9816, 10007), 64,
     (0, 41365444400480984669397505247, -101, 96), 282),
    ("bgn", 4, Fraction(9816, 10007), 64,
     (0, 1355462882114960904142481426713205, -116, 111), 2539),
    ("ball", 8, Fraction(1, 3), 256,
     (0, 268434724375002078787247906717841146592860081679846576660417714213387610419840579224177,
      -418, 288), 10),
    ("bgn", 8, Fraction(1, 3), 256,
     (0, 144114795287675996040405637649698303042434514206429807864447968129730517155823822421032119041889,
      -447, 317), 154),
    ("ball", 6, Fraction(-1, 3), 160,
     (1, 3568377686693877439908988124205052336053243239383487523757, -268, 192), 9),
    ("bgn", 6, Fraction(-1, 3), 160,
     (1, 29933721609621753843440057050589983215358274262968894408293253477, -291, 215), 95),
]
SERIES = {"ball": (qball_numeric, linform, lambda n, q0: _ref_terms(4, 1, n, 1, q0)),
          "bgn": (qbgn_numeric, zeta3, _ref_bgn_at)}


@pytest.mark.parametrize("kind,n,q0,prec,mpf_,taken", WEIGHT3_PINS)
def test_weight3_values_and_terms_taken_are_pinned(kind, n, q0, prec, mpf_, taken):
    fn, module, ref = SERIES[kind]
    vals = []
    got, want = replayed(module, lambda: vals.append(fn(n, q0, prec)), lambda: ref(n, q0))
    assert (vals[0]._mpf_, got[1]) == (mpf_, taken)
    assert got == want


# ----------------------------------------------------------------------
# degenerations and growth

def test_classical_series_at_n0_is_two_zeta3():
    # n = 0 terms decay like k^-3, so keep the certified tolerance modest
    with mp.workprec(96):
        assert abs(classical_ball(0, 24) - 2 * mp.zeta(3)) < mpf(2) ** -22


@pytest.mark.parametrize("n,prec,mpf_", [
    (0, 24, (0, 10827165908118463, -52, 54)),
    (2, 64, (0, 24976676012969140597753900001, -106, 95))])
def test_classical_ball_values_are_unchanged_by_the_term_cap(n, prec, mpf_):
    assert classical_ball(n, prec)._mpf_ == mpf_


def test_classical_ball_raises_at_once_past_the_term_cap():
    # n = 0 needs about 2^(prec/2) terms: some 4 * 10^9 at prec 64
    t0 = time.perf_counter()
    with pytest.raises(PrecisionError):
        classical_ball(0, 64)
    with pytest.raises(PrecisionError):
        classical_ball(1, 400)
    assert time.perf_counter() - t0 < 1


def test_classical_degeneration_error_decreases():
    n = 2
    cb = classical_ball(n, 64)
    errs = []
    for q0 in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10),
               Fraction(99, 100)):
        qb = qball_numeric(n, q0, 64)
        scaled = (1 - mpf(q0.numerator) / q0.denominator) ** 3 * qb
        errs.append(abs(scaled - cb))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < mpf("1e-3")


def test_dbar_probe_reports_cubic_clearing():
    probe = dbar_probe(range(1, 7))
    assert probe["all_m"] == [3]
    for row in probe["rows"]:
        assert row["m"] == 3
        assert row["e"] == 0
        assert row["slope"] is not None


def test_dbar_probe_exponents_pinned():
    # recorded with d_n(1/q)^m expanded and each product reduced
    rows = dbar_probe(range(9))["rows"]
    assert [(row["n"], row["m"], row["e"]) for row in rows] == (
        [(0, 0, 0)] + [(n, 3, 0) for n in range(1, 9)])


@pytest.mark.parametrize("q0", (0, 1, -1, 2))
def test_dbar_probe_rejects_q0_outside_unit_disc(q0):
    with pytest.raises(ValueError, match=rf"^need 0 < \|q0\| < 1, got {q0}$"):
        dbar_probe(range(1, 3), q0)


# ----------------------------------------------------------------------
# input validation and reporting

@pytest.mark.parametrize("q0", (0, 1, -1, Fraction(3, 2)))
def test_series_reject_bad_q(q0):
    with pytest.raises(ValueError):
        qball_numeric(1, q0)
    with pytest.raises(ValueError):
        qbgn_numeric(1, q0)


@pytest.mark.parametrize("call", [
    lambda: zeta3_form(-1),
    lambda: zeta3_form_values(-1, Fraction(1, 3)),
    lambda: dbar_probe([-1]),
    lambda: zeta3_partial_fractions(-1),
    lambda: zeta3_reconstruction_check(-1),
], ids=["form", "form_values", "dbar_probe", "partial_fractions", "reconstruction_check"])
def test_weight3_entry_points_reject_negative_n(call):
    # unchecked, the first three raised IndexError, the partial fractions
    # came out empty and the reconstruction check reported a failed proof
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        call()


@pytest.mark.parametrize("prec", (0, -50))
def test_series_reject_invalid_prec(prec, monkeypatch):
    """prec < 1 raises before any term is taken: at prec = -50 the
    tolerance would be 2^49, and the series came out as 0.0078 and 0.031."""
    def no_sum(*args, **kwargs):
        raise AssertionError("a sum was started")

    monkeypatch.setattr(zeta3, "sum_with_tail", no_sum)
    for fn in (qball_numeric, qbgn_numeric):
        with pytest.raises(ValueError, match=f"need prec >= 1, got {prec}"):
            fn(1, Fraction(1, 2), prec)


def test_report_schema():
    rep = zeta3_report(2, Fraction(1, 3), 96)
    for key in ("n", "q", "ball", "bgn", "diff", "A_num", "A_den",
                "B_num", "B_den", "residual", "dbar_m", "dbar_slope"):
        assert key in rep
    assert rep["dbar_m"] == 3
    assert all(isinstance(rep[key], mpf) for key in ("ball", "bgn", "diff", "residual"))
    neg = zeta3_report(2, Fraction(-1, 3), 96)
    assert "residual" not in neg and "diff" in neg
