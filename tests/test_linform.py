"""Kernel partial fractions, linear-form coefficients, symmetrized
series, and the exact denominator machinery."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from qzeta import linform
from qzeta.cli import _jsonable, main
from qzeta.linform import (
    D_exponent,
    D_n,
    P_eps,
    P_eps_hat,
    P_eps_values_hat,
    Params,
    S_eps_hat_numeric,
    _hat_kernel,
    _zeta_q_series,
    d_symmetry_check,
    denominator_check,
    denominator_probe,
    identity_residual,
    kernel_symmetry_check,
    linear_form_report,
    p1_at_one_check,
    p_reciprocity_check,
    partial_fractions,
    reconstruction_check,
    zeta_q,
)
from qzeta.qcomb import PhiProduct, QFrac, divisor_power_sum
from qzeta.series import (
    DEFAULT_PREC,
    PONE,
    DivergenceError,
    FractionRing,
    PrecisionError,
    UPolyRing,
    from_mpf,
    pdiv,
    pmul,
    pmul_int,
    psub,
    working_prec,
)
from qzeta.upoly import UPoly
import point_oracle
import series_oracle
from series_replay import NEAR_ONE, q0s, replayed, window_sizes

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
        rows = partial_fractions(Params(A, r, 0))
        assert rows[0][A] == QFrac(UPoly.one())
        for s in range(1, A):
            assert rows[0][s].is_zero()


def test_kernel_matches_direct_evaluation():
    # the hat kernel's dense numerator matches the defining product at a
    # point; A != 2r, so the (q;q)_n^(A-2r) factor and the T-shift are
    # exercised
    q0, t0 = Fraction(1, 3), Fraction(5, 7)
    for A, r, n in ((4, 1, 2), (6, 1, 3), (6, 2, 1)):
        coeffs = _hat_kernel(A, r, n).dense()
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


def _z_coefficients(params, s):
    """The z-coefficients c_j = d_{s,j} q^(-j) of P_s(z), monomial included,
    from the rows the tests below may monkeypatch into linform."""
    rows = linform.partial_fractions(params)
    return [rows[j][s].shift_u(params.prefactor_u - 2 * j) for j in range(params.n + 1)]


def _reciprocity_by_subst_inv(params, s):
    """p_reciprocity_check as q -> 1/q substitution and QFrac equality."""
    coeffs = _z_coefficients(params, s)
    n = params.n
    return all(coeffs[n - i].subst_inv().shift_u(-2 * n) == coeffs[i] for i in range(n + 1))


@pytest.mark.parametrize("s", [0, 5])
def test_p_reciprocity_rejects_s_outside_1_to_A(s, monkeypatch):
    """s outside 1..A raises before any partial-fraction row is read."""
    def no_rows(params):
        raise AssertionError("partial_fractions was read")

    monkeypatch.setattr(linform, "partial_fractions", no_rows)
    with pytest.raises(ValueError, match=f"s must be in 1..4, got {s}"):
        p_reciprocity_check(Params(4, 1, 2), s)


def test_p_reciprocity_fields_match_subst_inv():
    """The verdict read off the canonical fields is the substitution's, on
    every table with n <= 3 of seven (A, r) pairs, and on the n = 4 tables
    of the exact-grid bench; some of their denominators carry an odd power
    of Phi_1, whose sign rule the fields must follow."""
    cases = [(A, r, n) for A, r in ((2, 1), (4, 1), (4, 2), (6, 1), (6, 2), (6, 3), (8, 2))
             for n in range(4)] + [(4, 1, 4), (6, 1, 4), (6, 2, 4)]
    t0 = time.perf_counter()
    odd_phi1 = 0
    for A, r, n in cases:
        p = Params(A, r, n)
        for s in range(1, A + 1):
            assert p_reciprocity_check(p, s) == _reciprocity_by_subst_inv(p, s), (A, r, n, s)
            odd_phi1 += sum(c.den.e.get(1, 0) % 2 for c in _z_coefficients(p, s))
    assert odd_phi1 > 0
    assert time.perf_counter() - t0 < 3.0


PERTURBATIONS = {
    "times q": lambda d: d.shift_u(2),
    "negated": lambda d: -d,
    "Phi_2 exponent raised": lambda d: QFrac(d.num, d.den.mul(PhiProduct({2: 1}))).reduced(),
    "scaled by 1/7": lambda d: d * Fraction(1, 7),
    "zero": lambda d: QFrac.zero(),
}


@pytest.mark.parametrize("A,r,n,j", [(4, 1, 2, 0), (6, 2, 3, 2)])
def test_symmetry_checks_catch_a_perturbed_entry(monkeypatch, A, r, n, j):
    """d_{A,j} multiplied by q, negated, divided by Phi_2, scaled by 1/7
    or set to zero breaks the pole symmetry at s = A only: the
    z-reciprocity of P_A fails, that of every other P_s holds, and so
    d_symmetry_check fails.  The substitution agrees.  Scaling by 1/7
    changes only the numerator's denominator."""
    p = Params(A, r, n)
    table = partial_fractions(p)
    entry = table[j][A]
    assert not entry.is_zero() and entry.num.den == 1
    assert (entry * Fraction(1, 7)).num.v == entry.num.v
    for how, perturb in PERTURBATIONS.items():
        rows = [dict(row) for row in table]
        rows[j][A] = perturb(entry)
        assert rows[j][A] != entry, how
        monkeypatch.setattr(linform, "partial_fractions", lambda params: rows)
        want = [True] * (A - 1) + [False]
        assert [p_reciprocity_check(p, s) for s in range(1, A + 1)] == want, how
        assert [_reciprocity_by_subst_inv(p, s) for s in range(1, A + 1)] == want, how
        assert not d_symmetry_check(p), how


def test_p_reciprocity_reads_the_denominator(monkeypatch):
    """d_{2,0} of (4, 1, 2) over Phi_1^4 in place of Phi_1^2 Phi_2^2:
    the denominator's degree, its Phi_1 parity and the numerator all stay,
    so only the comparison of the denominators' exponents sees the change."""
    p = Params(4, 1, 2)
    rows = [dict(row) for row in partial_fractions(p)]
    entry = rows[0][2]
    assert entry.den == PhiProduct({1: 2, 2: 2})
    moved = QFrac(entry.num, PhiProduct({1: 4}))
    assert moved.reduced().den == moved.den
    rows[0][2] = moved
    monkeypatch.setattr(linform, "partial_fractions", lambda params: rows)
    want = [s != 2 for s in range(1, 5)]
    assert [p_reciprocity_check(p, s) for s in range(1, 5)] == want
    assert [_reciprocity_by_subst_inv(p, s) for s in range(1, 5)] == want


def test_kernel_symmetry_check_catches_a_moved_factor(monkeypatch):
    """The kernel with its last linear factor 1 - q^(n+rn) T moved to
    1 - q^(n+rn+1) T is not symmetric under q -> 1/q, T -> q^n T."""
    real = linform._hat_kernel

    def moved(A, r, n):
        k = real(A, r, n)
        return type(k)(k.scalar, k.shift, k.exps[:-1] + (k.exps[-1] + 1,))

    p = Params(4, 1, 2)
    assert kernel_symmetry_check(p)
    monkeypatch.setattr(linform, "_hat_kernel", moved)
    assert not kernel_symmetry_check(p)


def test_p1_vanishes_at_one():
    for n in range(0, 6):
        assert p1_at_one_check(Params(4, 1, n))
    assert p1_at_one_check(Params(6, 2, 3))


def test_p1_at_one_reads_the_assembled_sums(monkeypatch):
    # denominator_check sums the table once for its forms; P_1(1) is then
    # read from that memo, with no second pole-sum pass
    def no_pass(*args, **kwargs):
        raise AssertionError("a pole-sum pass was started")

    linform._pf_table.cache_clear()
    linform._p_eps_hat.cache_clear()
    for n in (1, 3):
        params = Params(4, 1, n)
        assert denominator_check(params)["pass"]
        with monkeypatch.context() as m:
            m.setattr(UPolyRing, "pole_sums", staticmethod(no_pass))
            assert p1_at_one_check(params)


def test_symbolic_and_specialized_coefficients_agree():
    # the QFrac pipeline evaluated at q0 must equal the Fraction pipeline
    for q0 in (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 2)):
        for A, r, n in ((4, 1, 2), (6, 2, 2)):
            for eps in (0, 1):
                p = Params(A, r, n, eps)
                forms = P_eps_hat(p)
                p0, ps = P_eps_values_hat(A, r, n, eps, q0)
                assert forms[0].eval_fraction(q0) == p0
                for s, v in ps:
                    assert forms[s].eval_fraction(q0) == v, s


@pytest.mark.parametrize("q0", (Fraction(0), Fraction(1), Fraction(-1)), ids=str)
def test_point_values_reject_poles(q0):
    for n in (0, 3):
        with pytest.raises(ValueError, match=f"got {q0}$"):
            P_eps_values_hat(4, 1, n, 1, q0)


# The integer point path against the Fraction-per-operation reference.
POINT_GRID = (
    [(4, 1, n, Fraction(1, 2)) for n in (*range(7), 20, 40)]
    + [(6, r, n, q0) for r in (1, 2) for n in range(5)
       for q0 in (Fraction(-224, 499), Fraction(147, 499), Fraction(2, 3),
                  Fraction(-9, 10), Fraction(9668, 10007))]
    + [(12, 2, n, Fraction(1, 2)) for n in (0, 3, 12)]
    # a large (q;q)_n^(A-2r) scalar in div_pole_base
    + [(A, 2, n, q0) for A, top in ((8, 3), (12, 2)) for n in range(top + 1)
       for q0 in (Fraction(-224, 499), Fraction(2, 3))])


def _check_point_path(A, r, n, q0):
    assert linform._pf_values(A, r, n, q0) == point_oracle.pf_values(A, r, n, q0)
    for eps in (0, 1):
        assert (P_eps_values_hat(A, r, n, eps, q0)
                == point_oracle.p_eps_values_hat(A, r, n, eps, q0)), eps


@pytest.mark.parametrize("A,r,n,q0", POINT_GRID, ids=str)
def test_point_values_match_fraction_reference(A, r, n, q0):
    _check_point_path(A, r, n, q0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(4, 1), (6, 1), (6, 2)]), st.integers(0, 3), q0s())
def test_point_values_match_fraction_reference_anywhere(ar, n, q0):
    _check_point_path(*ar, n, q0)


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


def _ref_zeta_q_terms(s, qm):
    """The terms of _zeta_q_series by the kernel operations, with q^k."""
    p = mp.prec
    q = from_mpf(qm)
    qk = PONE
    k = 1
    while True:
        qk = pmul(qk, q, p)
        yield pdiv(pmul_int(qk, k ** (s - 1), p), psub(PONE, qk, p), p), qk
        k += 1


@pytest.mark.parametrize("prec", (64, 256, 411))
@pytest.mark.parametrize("q0", [sign * q for q in (Fraction(1, 3), Fraction(222, 499),
                                                   Fraction(1, 2), Fraction(1, 10 ** 20))
                                for sign in (1, -1)], ids=str)
def test_fused_zeta_q_terms_are_bit_identical(q0, prec):
    """Term by term, the same pair as pdiv(pmul_int(q^k, k^(s-1)),
    psub(1, q^k)), past the stop of any sum at prec.  At |q0| = 10^-20
    q^k falls below 2^-(p+1) from k = 2 or 7 on, where padd replaces it
    by a sticky bit."""
    qm = mpf(q0.numerator) / q0.denominator
    with mp.workprec(prec):
        for s in range(1, 7):
            terms, _, _ = _zeta_q_series(s, qm)
            sticky = False
            for got, (want, (qkm, qke)) in zip(terms, _ref_zeta_q_terms(s, qm)):
                assert got == want, (s, qkm, qke)
                sticky |= qke + qkm.bit_length() <= -prec - 1 and -qke > prec + 4
                if want[1] + want[0].bit_length() < -prec - 16:
                    break
            assert sticky or abs(q0) > Fraction(1, 10 ** 20)


def _divisor_sums(e: int, size: int) -> list:
    """sigma_e(m) for m <= size, by a sieve."""
    sig = [0] * (size + 1)
    for d in range(1, size + 1):
        de = d ** e
        for m in range(d, size + 1, d):
            sig[m] += de
    return sig


def _lambert_zeta_q(s: int, q0: Fraction):
    """sum_m sigma_{s-1}(m) q0^m, summed until a majorant tail is below
    2^-220 of the sum: sigma_{s-1}(m) <= d(m) m^(s-1) <= 2 m^s, d(m) the
    number of divisors of m, and the majorant's term ratio
    |q0| ((m+1)/m)^s falls with m."""
    q = mpf(q0.numerator) / q0.denominator
    aq = abs(q)
    sig = [0]
    total, qm, m = mpf(0), mpf(1), 0
    while True:
        m += 1
        if m >= len(sig):
            sig = _divisor_sums(s - 1, 2 * len(sig) + 1024)
        qm *= q
        total += sig[m] * qm
        if m % 64:
            continue    # the stop test, on every 64th term only
        rho = aq * (mpf(m + 1) / m) ** s
        if rho < 1 and 2 * mpf(m) ** s * aq ** m * rho / (1 - rho) < abs(total) * mpf(2) ** -220:
            return total


_LAMBERT_FIRST = ([(4, Fraction(97, 100)), (3, Fraction(99, 100)), (4, Fraction(99, 100))]
                  + [(s, q0) for s in (1, 5, 6) for q0 in (Fraction(-9, 10), Fraction(99, 100))])


# the full grid s = 1..6 x q0 in {9/10, -9/10, 97/100, 99/100}; the first
# nine cases keep their place, and so their test ids
@pytest.mark.parametrize("s,q0", _LAMBERT_FIRST + [
    (s, q0) for s in range(1, 7)
    for q0 in (Fraction(9, 10), Fraction(-9, 10), Fraction(97, 100), Fraction(99, 100))
    if (s, q0) not in _LAMBERT_FIRST])
def test_zeta_q_near_one_matches_lambert_route(s, q0):
    # converging sums near q = 1 certify: no DivergenceError
    val = zeta_q(s, q0)
    with mp.workprec(working_prec(256)):
        ref = _lambert_zeta_q(s, q0)
        assert abs(val - ref) < abs(ref) * mpf(10) ** -40


def test_zeta_q_q_999_certifies_at_default_precision():
    q0 = Fraction(999, 1000)
    val = zeta_q(2, q0)
    low = zeta_q(2, q0, 64)
    assert abs(val - low) < abs(val) * mpf(2) ** -60


@pytest.mark.parametrize("eps", (0, 1))
def test_identity_residual_small(eps):
    for q0 in (Fraction(1, 2), Fraction(-1, 2)):
        res = identity_residual(Params(4, 1, 2, eps), q0, 256)
        assert res["residual"] < mpf(10) ** -40


@pytest.mark.parametrize("n", range(4))
def test_identity_residual_near_one(n):
    res = identity_residual(Params(4, 1, n, n % 2), Fraction(99, 100), 256)
    assert res["residual"] < mpf(10) ** -40


# ----------------------------------------------------------------------
# The memoized kernel summands against the per-term products they replace.

def _ref_rho_hat(A, r, n, k, qp):
    """q^k R_hat(q^k) with every factor rebuilt for this k."""
    val = qp.get(k * ((A - 2 * r) * n // 2 + 1))
    for i in range(1, n + 1):
        val *= (1 - qp.get(i)) ** (A - 2 * r)
    for i in range(r * n):
        val *= (1 - qp.get(k - r * n + i)) * (1 - qp.get(k + n + 1 + i))
    pole = mpf(1)
    for i in range(n + 1):
        pole *= 1 - qp.get(k + i)
    return val / pole ** A


def _ref_terms(A, r, n, eps, qv):
    """The per-term generator of S_eps_hat_numeric."""
    qm = mpf(qv.numerator) / qv.denominator
    qp = series_oracle.QPowers(qm)
    k = r * n + 1
    while True:
        br = 1 + (-1) ** eps * qp.get((A // 2 - 1) * (n + 2 * k))
        yield _ref_rho_hat(A, r, n, k, qp) * br
        k += 1


MEMO_PARAMS = ([(4, 1, n) for n in range(4)] + [(6, 1, n) for n in range(2)]
               + [(6, 2, n) for n in range(2)] + [(2, 1, n) for n in range(4)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MEMO_PARAMS), st.sampled_from((0, 1)), q0s(),
       st.sampled_from((64, 160)))
@example((4, 1, 3), 1, NEAR_ONE[1], 160)
@example((4, 1, 3), 1, NEAR_ONE[1], 288)   # pole powers past 1000 bits: ppow
@example((6, 2, 1), 0, Fraction(-1, 3), 411)  # truncates, then rounds once
@example((2, 1, 3), 0, NEAR_ONE[1], 64)
@example((2, 1, 1), 1, Fraction(1, 3), 64)
@example((4, 1, 6), 1, NEAR_ONE[0], 128)  # the ball-type series
@example((4, 1, 1), 1, NEAR_ONE[1], 64)
def test_memoized_kernel_terms_are_bit_identical(akn, eps, q0, prec):
    A, r, n = akn
    p = Params(A, r, n, eps)
    call = lambda: S_eps_hat_numeric(p, q0, prec)
    runs = replayed(linform, call, lambda: _ref_terms(A, r, n, eps, q0))
    if A == 2 and eps == 1:  # the bracket 1 - q^0: no sum is taken
        assert runs == [] and call() == 0
    else:
        got, ref = runs
        assert got == ref


def test_kernel_memos_stay_a_window_near_one():
    """The 1 - q^m and numerator-pair storage of the kernel terms slides
    with k: past 1000 terms, every container the generator holds but the
    largest, the power chain, has at most n + rn + 2 entries."""
    A, r, n, q0 = 4, 1, 3, NEAR_ONE[1]
    got, ref = replayed(
        linform, lambda: S_eps_hat_numeric(Params(A, r, n, 0), q0),
        lambda: _ref_terms(A, r, n, 0, q0))
    assert got == ref
    assert got[1] > 1000  # terms taken
    with mp.workprec(working_prec(DEFAULT_PREC)):
        q = from_mpf(mpf(q0.numerator) / q0.denominator)
        terms = linform._kernel_terms(A, r, n, 0, q, mp.prec)
        for _ in range(got[1]):
            next(terms)
    sizes = window_sizes(terms)
    assert sizes[-1] > got[1]  # q^e up to e = 4k
    assert sizes[-2] <= n + r * n + 2


def test_series_reject_q0_zero():
    with pytest.raises(ValueError, match="0 < \\|q0\\| < 1"):
        S_eps_hat_numeric(Params(4, 1, 1), Fraction(0))
    with pytest.raises(ValueError, match="0 < \\|q0\\| < 1"):
        identity_residual(Params(4, 1, 1), Fraction(0))
    assert zeta_q(3, Fraction(0)) == 0


@pytest.mark.parametrize("prec", (0, -50))
def test_series_reject_invalid_prec(prec, monkeypatch):
    """prec < 1 raises before any term is taken: at prec = -50 the
    tolerance would be 2^42, and zeta_q(3, 1/2) came out as 4.0."""
    def no_sum(*args, **kwargs):
        raise AssertionError("a sum was started")

    monkeypatch.setattr(linform, "sum_with_tail", no_sum)
    half = Fraction(1, 2)
    calls = [lambda: zeta_q(3, half, prec), lambda: zeta_q(3, Fraction(0), prec),
             lambda: S_eps_hat_numeric(Params(4, 1, 1), half, prec),
             lambda: S_eps_hat_numeric(Params(2, 1, 1, 1), half, prec)]
    for call in calls:
        with pytest.raises(ValueError, match=f"need prec >= 1, got {prec}"):
            call()


@pytest.mark.parametrize("args,message", [
    # unchecked, a float s fails on int.bit_length inside the first term
    ((2.5, Fraction(1, 2)), "need an integer s >= 1, got 2.5"),
    ((0, Fraction(1, 2)), "need an integer s >= 1, got 0"),
    # unchecked, tol = 0 runs 10^6 terms into PrecisionError
    ((3, Fraction(1, 2), 64, 0), "need tol > 0, got 0"),
    ((3, Fraction(9, 10), 64, -1), "need tol > 0, got -1"),
], ids=["float-s", "zero-s", "zero-tol", "negative-tol"])
def test_zeta_q_rejects_bad_s_and_tol(args, message, monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("a sum was started")

    monkeypatch.setattr(linform, "sum_with_tail", no_sum)
    with pytest.raises(ValueError, match=f"^{message}$"):
        zeta_q(*args)


def test_zeta_q_refuses_q0_that_rounds_to_one(monkeypatch):
    # 1 - 10^-100 is 1 at the working precision of prec 256; unchecked,
    # the first term divided by 1 - q = 0 (a bare ZeroDivisionError)
    def no_sum(*args, **kwargs):
        raise AssertionError("a sum was started")

    near = 1 - Fraction(1, 10 ** 100)
    with monkeypatch.context() as m:
        m.setattr(linform, "sum_with_tail", no_sum)
        for q0 in (near, -near):
            with pytest.raises(PrecisionError, match=f"^q0 = {q0} rounds to "):
                zeta_q(2, q0, 256)
    # the hat series refuses the same q0 through its ratio bound
    with pytest.raises(DivergenceError):
        S_eps_hat_numeric(Params(4, 1, 1), near, 256)
    # a q0 that the working precision separates from 1 still certifies,
    # bit for bit
    assert zeta_q(3, Fraction(9999, 10000), 256)._mpf_ == (
        0, 33976514293129139421094360374440943780865027982966592016066038344284981466071239029781,
        -243, 285)


@pytest.mark.parametrize("sign", (1, -1))
def test_identity_residual_refuses_in_bounded_time(sign, capsys):
    # at the raised working precision q0 no longer rounds to +-1, so the
    # kernel series starts; its first term predicts about 10^101 terms
    q0 = sign * (1 - Fraction(1, 10 ** 100))
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="within 1000000 terms: .* about [0-9.]+e\\+10"):
        identity_residual(Params(4, 1, 1, 1), q0)
    assert main(["linform", "--A", "4", "--r", "1", "--n", "1", f"--q={q0}"]) == 3
    assert time.perf_counter() - start < 1
    assert "within 1000000 terms" in capsys.readouterr().err


def test_kernel_series_refuses_in_bounded_time():
    # the first term predicts about 1.07 10^7 terms; a quarter of that is
    # past the cap, so the sum is refused before its second term instead
    # of running about 30 s to the cap
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="within 1000000 terms: .* about 2\\.67e\\+06"):
        S_eps_hat_numeric(Params(4, 1, 1, 1), 1 - Fraction(1, 10 ** 5))
    assert time.perf_counter() - start < 1


def test_d_exponent_and_clearing_polynomial():
    # D_n = (A-1)! u^(2E) d_n(1/q)^A: u-monomial times an integral part
    from math import factorial
    for A, r, n in ((4, 1, 3), (6, 1, 2), (6, 2, 4)):
        ex = D_exponent(A, r, n)
        assert (2 * ex).denominator == 1
        poly = D_n(Params(A, r, n))
        core = poly.shift_u(-int(2 * ex))
        assert core.only_even_exponents()
        assert core.coefficients_integral()
        d_n = PhiProduct(dict.fromkeys(range(1, n + 1), 1)).expand()
        assert core == UPoly.const(factorial(A - 1)) * d_n.subst_inv() ** A


@pytest.mark.parametrize("A,r,n", [(4, 1, 1), (4, 1, 3), (6, 2, 2)])
def test_denominator_check_small(A, r, n):
    for eps in (0, 1):
        res = denominator_check(Params(A, r, n, eps))
        assert res["pass"], res
        for s, row in res["per_s"].items():
            assert row["ok"], (s, row)


def test_clearing_check_failure_reasons():
    # with clearer 1 each form is its own witness; u^1 has two faults
    forms = {1: QFrac(UPoly({-1: 1})),
             2: QFrac(UPoly.const(Fraction(1, 2))),
             3: QFrac(UPoly.q_power(2)),
             4: QFrac(UPoly({1: 1}))}
    got = linform._clearing_check((1, 0, PhiProduct()), forms)
    assert {s: v["reason"] for s, v in got.items()} == {
        1: "odd u-powers",
        2: "non-integer coefficients",
        3: "positive q-power up to u^4",
        4: "odd u-powers, positive q-power up to u^1"}
    assert all(not v["ok"] and v["witness"] == forms[s].num for s, v in got.items())


phi_exps = st.dictionaries(st.integers(1, 8), st.integers(0, 3), max_size=4)


@st.composite
def reduced_forms(draw):
    """A reduced QFrac over Phi_l, l <= 8: a numerator of either u-parity
    with integer or Fraction coefficients, times some Phi_l, over others."""
    par = draw(st.sampled_from((0, 1)))
    den = draw(st.integers(1, 6)) if draw(st.booleans()) else 1
    num = UPoly({2 * draw(st.integers(-3, 3)) + par: Fraction(draw(st.integers(-9, 9)), den)
                 for _ in range(draw(st.integers(0, 4)))})
    return QFrac(num * PhiProduct(draw(phi_exps)).expand(), PhiProduct(draw(phi_exps))).reduced()


@settings(max_examples=150, deadline=None)
@given(reduced_forms(), st.integers(-30, 30).filter(bool), st.integers(-9, 9), phi_exps)
# Phi_3^2 over a clearer with one Phi_3
@example(QFrac(UPoly.one(), PhiProduct({3: 2})), 2, 0, {3: 1, 1: 4})
# an odd-u numerator with rational content, Phi_1 and Phi_2 both covered
@example(QFrac(UPoly({1: Fraction(1, 3), 3: 1}), PhiProduct({1: 1, 2: 2})).reduced(),
         -6, -3, {1: 1, 2: 3})
# a denominator the clearer lacks entirely
@example(QFrac(UPoly({0: 5}), PhiProduct({7: 1})), 1, 0, {})
# a zero form
@example(QFrac.zero(), 3, 2, {4: 1})
def test_cleared_matches_reduced_product(form, scalar, shift, exps):
    want = (form * (scalar * PhiProduct(exps).expand()).shift_u(shift)).reduced()
    got = linform._cleared(form, (scalar, shift, PhiProduct(exps)))
    if not want.den.is_one():
        assert got is None
    else:
        assert (got.lo, got.v, got.den) == (want.num.lo, want.num.v, want.num.den)


def _probe_rows(ns):
    rows = []
    for n in ns:
        rows += [{"n": n, "eps": 0, "exact_pass": True,
                  "sharpness_all_pass": False, "sharpness_failing_s": [0]},
                 {"n": n, "eps": 1, "exact_pass": True,
                  "sharpness_all_pass": True, "sharpness_failing_s": []},
                 {"n": n, "eps": "both", "conjecture_all_pass": False,
                  "conjecture_failing": {0: [0], 1: []}}]
    return rows


@pytest.mark.parametrize("A,r,ns", [(6, 2, range(1, 6)), (6, 1, range(1, 6)),
                                    (8, 2, range(1, 5))])
def test_denominator_probe_rows_at_other_pairs(A, r, ns):
    # recorded with each clearer expanded and each product reduced
    assert denominator_probe(A, r, ns) == _probe_rows(ns)


def test_pole_sums_built_once_for_both_eps(monkeypatch):
    builds = []
    sym, point = UPolyRing.pole_sums, FractionRing.pole_sums
    monkeypatch.setattr(UPolyRing, "pole_sums", staticmethod(
        lambda rows, n, top: builds.append("symbolic") or sym(rows, n, top)))
    monkeypatch.setattr(FractionRing, "pole_sums", lambda self, rows, n, top:
                        builds.append("point") or point(self, rows, n, top))
    for table in (linform._pf_table, linform._pf_values, linform._p_eps_hat,
                  linform.P_eps_values_hat):
        table.cache_clear()
    for eps in (0, 1):
        denominator_check(Params(6, 2, 3, eps))
    assert builds == ["symbolic"]
    for eps in (0, 1):
        P_eps_values_hat(6, 2, 3, eps, Fraction(1, 3))
    assert builds == ["symbolic", "point"]


def test_linear_form_report_json(capsys):
    """`qzeta linform` prints the library report plus its verdict fields."""
    q0 = Fraction(1, 3)
    rep = linear_form_report(Params(4, 1, 2, 1), q0, 256)
    assert main(["linform", "--A", "4", "--r", "1", "--n", "2", "--q", "1/3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {**_jsonable(rep), "command": "linform",
                       "tol_exponent": 40, "residual_pass": True}
    assert isinstance(rep["residual"], mpf) and rep["q"] == q0
    p0, ps = P_eps_values_hat(4, 1, 2, 1, q0)
    assert rep["P0"] == p0
    assert rep["P"] == dict(ps)
