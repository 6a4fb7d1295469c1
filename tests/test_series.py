"""Certified series summation and its integer kernel against mpf, the
T-polynomial helpers, and the partial-fraction extractor against an
independent Taylor-shift oracle."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import inspect
import time

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

import qzeta
from qzeta import linform, series
from qzeta.linform import Params, _hat_kernel, _zeta_q_clausen, _zeta_q_series, zeta_q
from qzeta.qcomb import QFrac
from qzeta.series import (
    DivergenceError,
    FractionRing,
    Kernel,
    PrecisionError,
    UPolyRing,
    from_mpf,
    padd,
    pdiv,
    pf_extract,
    pf_reconstruct,
    pmul,
    pmul_int,
    ppow,
    psub,
    sum_with_tail,
    tmul,
    to_mpf,
    working_prec,
)
from qzeta.upoly import UPoly
from qzeta.eisenstein import eisenstein_value
from qzeta.zeta3 import _w_kernel, qball_numeric, qbgn_numeric
import series_oracle
from series_replay import NEAR_ONE, q0s

ERDOS_BORWEIN = "1.6066951524152917637833015231909245804805796715057564357"


def test_geometric_sum_certified():
    with mp.workprec(working_prec(128)):
        q = mpf(1) / 3
        val = sum_with_tail((from_mpf(q ** k) for k in range(1, 10 ** 6)),
                            lambda k: float(q), mpf(2) ** -120, limit=float(q))
        assert abs(val - q / (1 - q)) < mpf(2) ** -118


def test_erdos_borwein_constant():
    # sum_{k>=1} 1/(2^k - 1); term ratio < (2^k - 1)/(2^(k+1) - 1) < 1/2 + eps
    with mp.workprec(working_prec(200)):
        val = sum_with_tail((from_mpf(1 / (mpf(2) ** k - 1)) for k in range(1, 10 ** 6)),
                            lambda k: 0.51, mpf(2) ** -196, limit=0.51)
        assert abs(val - mpf(ERDOS_BORWEIN)) < mpf(10) ** -55


def test_callable_ratio_bound():
    with mp.workprec(working_prec(96)):
        # sum k / 2^k = 2; ratio (k+1)/(2k) decreasing, valid for the tail
        val = sum_with_tail((from_mpf(mpf(k) / mpf(2) ** k) for k in range(1, 10 ** 6)),
                            lambda idx: (idx + 2) / (2 * (idx + 1)),
                            mpf(2) ** -90, limit=0.5)
        assert abs(val - 2) < mpf(2) ** -88


def test_divergence_detected():
    taken = []

    def ones():
        while True:
            taken.append(1)
            yield (1, 0)

    with mp.workprec(working_prec(64)):
        with pytest.raises(DivergenceError):
            sum_with_tail(ones(), lambda k: 1, mpf(2) ** -50, limit=1)
        with pytest.raises(DivergenceError):
            sum_with_tail(ones(), lambda k: 1 + mpf(1) / (k + 1), mpf(2) ** -50,
                          limit=1)
    assert taken == []


def test_callable_ratio_bound_needs_limit():
    with pytest.raises(TypeError, match="limit"):
        sum_with_tail(iter([(1, 0)]), lambda k: 0.5, mpf(2) ** -50)


def test_max_terms_exhaustion(monkeypatch):
    monkeypatch.setattr(series, "MAX_TERMS", 500)
    taken = 0

    def powers(r):
        nonlocal taken
        for k in range(10 ** 6):
            taken += 1
            yield from_mpf(r ** k)

    with mp.workprec(working_prec(64)):
        # decreasing terms with a valid bound r < 1, but certifying the
        # tail to 2^-50 takes about 3.6 * 10^7 terms, a quarter of which
        # is predicted from the first term and refused before the second
        r = 1 - mpf(2) ** -20
        with pytest.raises(PrecisionError, match=r"within 500 terms: .* about 9\.09e\+06"):
            sum_with_tail(powers(r), lambda k: r, mpf(2) ** -50, limit=r)
    assert taken == 1


@pytest.mark.parametrize("predicted", (499, 501))
def test_max_terms_prediction_edge(monkeypatch, predicted):
    """The prediction refuses only past MAX_TERMS quarters: a bound of
    limit l predicting 499 (resp. 501) times 4 terms from the first, on
    terms that fall at l^20, certifies in fewer than 500 terms (resp. is
    refused before its second term)."""
    monkeypatch.setattr(series, "MAX_TERMS", 500)
    taken = 0

    def powers(rho):
        nonlocal taken
        for k in range(10 ** 6):
            taken += 1
            yield from_mpf(rho ** k)

    with mp.workprec(working_prec(64)):
        lim = mpf(2) ** (mpf(-50) / (4 * predicted))    # log2(tol) / log2(lim) = 4 predicted
        if predicted < 500:
            sum_with_tail(powers(lim ** 20), lambda k: lim, mpf(2) ** -50, limit=lim)
            assert 1 < taken < 500
        else:
            with pytest.raises(PrecisionError, match="within 500 terms"):
                sum_with_tail(powers(lim ** 20), lambda k: lim, mpf(2) ** -50, limit=lim)
            assert taken == 1


def test_long_sum_is_refused_at_a_later_term():
    """A sum predicted at 2.2 10^6 terms passes its first term's check (a
    quarter of that is below MAX_TERMS) and is refused at term 2^10, where
    2^10 plus half its remaining length is above it, not at the cap."""
    taken = 0

    def powers(r):
        nonlocal taken
        for k in range(10 ** 7):
            taken += 1
            yield from_mpf(r ** k)

    with mp.workprec(working_prec(64)):
        r = mpf(2) ** (mpf(-50) / 2200000)
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match=r"from term 1024, .* about 1\.1e\+06"):
            sum_with_tail(powers(r), lambda k: r, mpf(2) ** -50, limit=r)
        assert time.perf_counter() - start < 1
    assert taken == 1025


_TINY = Fraction(1, 10 ** 20)
# _mpf_ of sums whose ratio bound's limit is below 1e-16 while their first
# term is above tol, as the sums gave them before the early refusal; qball's
# is that of S_eps_hat_numeric(Params(4, 1, 2, 1), 10^-7), the series it is
_TINY_LIMIT_PINS = {
    "zeta_q(2, 10^-20)": (lambda: zeta_q(2, _TINY), (
        0, 0x179ca10c9242235d5e2fb4012e5953f31985edbd1711562e212e47c6f7b6655d592c582b, -351)),
    "zeta_q(3, -10^-20)": (lambda: zeta_q(3, -_TINY), (
        1, 0x2f394219248446ba76aecf647f5436832b1e471491422aa626f94876be4696ed9be77651, -352)),
    "qball(2, 10^-7)": (lambda: qball_numeric(2, Fraction(1, 10 ** 7)), (
        0, 0x1a53fc11ae5a5b2696035eb2f5974243f7c71b03b1c734018aa5ab4fc59d547132c6d907, -494)),
    "qbgn(2, 10^-20)": (lambda: qbgn_numeric(2, _TINY), (
        0, 0x42646a6fe9631f9d63f948cf623197fa88db7501e067023149e2e9285be050b6a708a44f67, -892)),
    "eisenstein(2, 10^-20)": (lambda: eisenstein_value(2, _TINY), (
        0, 0x200000000000000588b5bef2478049e833339a26d1bca4338bb3dca01bba3361e6779a8d, -285)),
}


@pytest.mark.parametrize("name", sorted(_TINY_LIMIT_PINS))
def test_tiny_limit_sums_pinned(name):
    """A limit near 0 must not trip the prediction: 1 - limit is 1.0 in a
    float there, and the sum still certifies, bit for bit."""
    call, pinned = _TINY_LIMIT_PINS[name]
    assert call()._mpf_[:3] == pinned


def test_max_terms_caps_the_terms_taken(monkeypatch):
    monkeypatch.setattr(series, "MAX_TERMS", 5)
    taken = 0

    def endless():
        nonlocal taken
        while True:
            taken += 1
            yield (1, 0)

    with mp.workprec(working_prec(64)):
        # tol 2^-8 at limit 1/2 predicts 8/4 = 2 terms, so the cap stops it
        with pytest.raises(PrecisionError, match="after 5 terms"):
            sum_with_tail(endless(), lambda k: 0.5, mpf(2) ** -8, limit=0.5)
    assert taken == 5


def _stop_every_term(terms, bound, tol):
    """The stop test of sum_with_tail with the bound evaluated on every
    term and the sum taken in mpf: (sum, terms taken)."""
    total = mpf(0)
    for k, t in enumerate(terms):
        t = to_mpf(t)
        total += t
        r = bound(k)
        if 0 <= r < 1 and abs(t) * r / (1 - r) < tol:
            return total, k + 1
    raise AssertionError("terms ran out")


def _gated_zeta_q_sum(s, q0, prec):
    """sum_with_tail on the zeta_q series: (sum, terms taken, bound calls)."""
    calls = taken = 0
    with mp.workprec(working_prec(prec)):
        terms, bound, limit = _zeta_q_series(s, mpf(q0.numerator) / q0.denominator)

        def counted_terms():
            nonlocal taken
            for t in terms:
                taken += 1
                yield t

        def counted_bound(k):
            nonlocal calls
            calls += 1
            return bound(k)

        val = sum_with_tail(counted_terms(), counted_bound, mpf(2) ** -(prec + 8),
                            limit=limit)
    return val, taken, calls


@settings(max_examples=40, deadline=None)
@given(q0s(), st.integers(min_value=1, max_value=6), st.sampled_from((64, 256)))
def test_gated_stop_matches_bound_on_every_term(q0, s, prec):
    val, taken, _ = _gated_zeta_q_sum(s, q0, prec)
    with mp.workprec(working_prec(prec)):
        terms, bound, _ = _zeta_q_series(s, mpf(q0.numerator) / q0.denominator)
        ref, ref_taken = _stop_every_term(terms, bound, mpf(2) ** -(prec + 8))
    assert (val._mpf_, taken) == (ref._mpf_, ref_taken)


def test_gate_skips_the_bound_near_one():
    _, taken, calls = _gated_zeta_q_sum(2, Fraction(9816, 10007), 256)
    assert calls < taken / 100


def _exact(pair):
    """The Fraction of a kernel pair."""
    return Fraction(pair[0]) * Fraction(2) ** pair[1]


@st.composite
def _stop_tests(draw):
    """(t, r, tol) for one stop test: tol a positive p-bit pair; r zero,
    negative, at least 1, just below 1 or anywhere in (0, 1), a pair or
    its mpf, or an mpf infinity or nan; t zero, anywhere, far above or
    below tol, or within one ulp of the threshold tol (1 - r)/r."""
    p = draw(st.sampled_from((53, 64, 256)))
    tol = (draw(st.integers(1, (1 << p) - 1)), draw(st.integers(-700, 60)))
    kind = draw(st.sampled_from(("zero", "negative", "one_or_more", "below_one",
                                 "inside", "special")))
    if kind == "special":
        return (1, 0), draw(st.sampled_from((mp.inf, -mp.inf, mp.nan))), tol
    b = draw(st.integers(1, 2 * p))
    if kind == "zero":
        r = (0, draw(st.integers(-5, 5)))
    elif kind == "negative":
        r = (-draw(st.integers(1, 1 << p)), -draw(st.integers(0, 2 * p)))
    elif kind == "one_or_more":
        r = ((1 << b) + draw(st.integers(0, 1 << (p + 2))), -b)
    elif kind == "below_one":
        r = ((1 << b) - draw(st.integers(1, 3)), -b)
    else:
        r = (draw(st.integers(1, (1 << p) - 1)), -p - draw(st.integers(0, 3 * p)))
    sign = draw(st.sampled_from((1, -1)))
    where = draw(st.sampled_from(("zero", "any", "far", "threshold")))
    if where == "threshold" and 0 < _exact(r) < 1:
        edge = _exact(tol) * (1 - _exact(r)) / _exact(r)
        e = edge.numerator.bit_length() - edge.denominator.bit_length() - p
        t = (sign * (round(edge / Fraction(2) ** e) + draw(st.integers(-1, 1))), e)
    elif where == "zero":
        t = (0, draw(st.integers(-5, 5)))
    else:
        gap = draw(st.integers(p + 10, 4000)) * draw(st.sampled_from((1, -1)))
        e = tol[1] + (gap if where == "far" else draw(st.integers(-p, p)))
        t = (sign * draw(st.integers(1, (1 << p) - 1)), e)
    if draw(st.booleans()):
        r = to_mpf(r)
    return t, r, tol


@settings(max_examples=400, deadline=None)
@given(_stop_tests())
def test_stop_test_is_exact(case):
    """sum_with_tail stops after t exactly when 0 <= r < 1 and
    |t| r < tol (1 - r), compared in Fraction; the second term, taken only
    when it does not stop, certifies at once."""
    t, r, tol = case
    taken = []

    def terms():
        for x in (t, (0, 0)):
            taken.append(x)
            yield x

    with mp.workprec(256):
        sum_with_tail(terms(), lambda k: (0 if k else r), to_mpf(tol), limit=0)
        finite = mp.isfinite(r) if isinstance(r, mpf) else True
    want = False
    if finite:
        rv = _exact(from_mpf(r) if isinstance(r, mpf) else r)
        want = 0 <= rv < 1 and abs(_exact(t)) * rv < _exact(tol) * (1 - rv)
    assert len(taken) == (1 if want else 2)


# ----------------------------------------------------------------------
# The integer kernel against mpf, operation by operation.

KERNEL_PRECS = (53, 64, 288, 411)


@st.composite
def _kernel_operands(draw):
    """(p, x, y): pairs of at most p bits, y drawn freely or against x:
    at a distance of about p + 4 bits below it (x often a power of two),
    cancelling it to zero or to a shorter result, or half an ulp of x
    away from it (a tie)."""
    p = draw(st.sampled_from(KERNEL_PRECS))

    def sign():
        return draw(st.sampled_from((1, -1)))

    def exponent():
        return draw(st.integers(-2 * p, 2 * p))

    def mantissa():
        shape = draw(st.sampled_from(("any", "any", "pow2", "zero")))
        if shape == "zero":
            return 0
        if shape == "pow2":
            m = (1 << draw(st.integers(1, p - 1))) + draw(st.integers(-1, 1))
        else:
            m = draw(st.integers(1, (1 << p) - 1))
        return sign() * m

    x = (mantissa(), exponent())
    rel = draw(st.sampled_from(("free", "offset", "cancel", "tie")))
    if rel == "free":
        y = (mantissa(), exponent())
    elif rel == "offset":
        if draw(st.booleans()):
            x = (sign() << draw(st.integers(0, p - 1)), x[1])
        ym = mantissa() or 1
        top = x[1] + x[0].bit_length()
        gap = draw(st.integers(p, p + 8) | st.integers(p + 9, 4 * p))
        y = (ym, top - gap - ym.bit_length())
    elif rel == "cancel":
        shift = draw(st.integers(0, 8))
        y = ((-x[0] << shift) + draw(st.integers(-3, 3)), x[1] - shift)
        if y[0].bit_length() > p:
            y = (-x[0], x[1])
    else:  # x an odd p-bit mantissa, so x +- 2^(e_x - 1) is a tie
        x = ((x[0] | 1 | (1 << (p - 1))) & ((1 << p) - 1), x[1])
        y = (sign(), x[1] - 1)
    return p, x, y


@settings(max_examples=600, deadline=None)
@given(_kernel_operands(),
       st.sampled_from((1, -1, 3, -3, 5)) | st.integers(-(1 << 80), 1 << 80))
def test_kernel_ops_match_mpf_bit_for_bit(operands, k):
    p, x, y = operands
    with mp.workprec(p):
        xf, yf = to_mpf(x), to_mpf(y)
        pairs = [(padd(x, y, p), xf + yf), (psub(x, y, p), xf - yf),
                 (pmul(x, y, p), xf * yf), (pmul_int(x, k, p), xf * k)]
        if y[0]:
            pairs.append((pdiv(x, y, p), xf / yf))
        for got, want in pairs:
            assert to_mpf(got)._mpf_ == want._mpf_


def test_kernel_rounds_ties_to_even():
    p, big = 53, 1 << 52
    half = (1, -1)
    # (big + 1) +- 1/2 and (big + 2) +- 1/2 lie halfway between two
    # 53-bit integers and go to the even one
    for x, up, down in ((big + 1, big + 2, big), (big + 2, big + 2, big + 2)):
        assert to_mpf(padd((x, 0), half, p)) == up
        assert to_mpf(psub((x, 0), half, p)) == down
    # 3 (2^52 + 1) = 2^53 + 2^52 + 3 has 54 bits and ends in a one
    assert to_mpf(pmul_int((big + 1, 0), 3, p)) == 2 * big + big + 4


@settings(max_examples=100, deadline=None)
@given(_kernel_operands(), st.integers(-3, 7) | st.sampled_from((8, 12, 33, 64)))
def test_kernel_power_is_mpmaths(operands, k):
    p, x, _ = operands
    if not x[0] and k < 0:
        return
    with mp.workprec(p):
        assert to_mpf(ppow(x, k, p))._mpf_ == (to_mpf(x) ** k)._mpf_


# ----------------------------------------------------------------------
# zeta_q against the sum as it was computed in mpf.

def _zeta_q_and_taken(s, q0, prec):
    """(zeta_q(s, q0, prec)._mpf_, terms its certified sum took)."""
    real, taken = linform.sum_with_tail, 0

    def spy(terms, *args, **kwargs):
        def counted():
            nonlocal taken
            for t in terms:
                taken += 1
                yield t

        return real(counted(), *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linform, "sum_with_tail", spy)
        val = zeta_q(s, q0, prec)
    return val._mpf_, taken


def _assert_near(val, ref, prec):
    """|val - ref| <= 2^-(prec+7) + 2^-prec |ref|, the difference taken
    at twice the working precision."""
    with mp.workprec(2 * working_prec(prec)):
        assert abs(val - ref) <= mpf(2) ** -(prec + 7) + mpf(2) ** -prec * abs(ref)


def _assert_zeta_q_matches_oracle(s, q0, prec):
    """Where zeta_q sums the direct series (-1/2 <= q0 <= 1/2), its value
    and term count are the oracle's bit for bit.  Elsewhere the direct
    series still is the oracle's sum, bit for bit, and zeta_q, which sums
    the Clausen series for q0 > 1/2 and the base change for q0 < -1/2,
    agrees with it within _assert_near."""
    ref, ref_taken = series_oracle.zeta_q(s, q0, prec)
    if abs(q0) <= Fraction(1, 2):
        assert _zeta_q_and_taken(s, q0, prec) == (ref._mpf_, ref_taken)
        return
    val, taken, _ = _gated_zeta_q_sum(s, q0, prec)
    assert (val._mpf_, taken) == (ref._mpf_, ref_taken)
    _assert_near(zeta_q(s, q0, prec), ref, prec)


@pytest.mark.parametrize("prec", (64, 256, 411))
@pytest.mark.parametrize("q0", [Fraction(1, 3), Fraction(9, 10), Fraction(-9, 10),
                                Fraction(97, 100), Fraction(99, 100), *NEAR_ONE], ids=str)
@pytest.mark.parametrize("s", range(1, 7))
def test_zeta_q_matches_mpf_oracle(s, q0, prec):
    _assert_zeta_q_matches_oracle(s, q0, prec)


@settings(max_examples=30, deadline=None)
@given(q0s(), st.integers(1, 6), st.sampled_from((64, 256, 411)))
def test_zeta_q_matches_mpf_oracle_anywhere(q0, s, prec):
    _assert_zeta_q_matches_oracle(s, q0, prec)


# ----------------------------------------------------------------------
# The Clausen series of zeta_q, summed for q0 > 1/2.

@pytest.mark.parametrize("q0", (Fraction(3, 5), Fraction(9, 10), Fraction(99, 100)), ids=str)
@pytest.mark.parametrize("s", (1, 2, 4, 7))
def test_clausen_ratio_bound_holds(s, q0):
    """T_(j+1) <= r_j T_j on the first 60 terms, r_j decreasing; and r_j
    is at least the exact bound ((m+1)/m)^(s-1) q^(m+1), m = j+1, at the
    dyadic q the sum runs on, and within 2^-50 of it.  That bound covers
    the weight ratio of each pair with min m+1 to its image with min m, so
    of the worst pair of each kind: (m+1, m+1) -> (m, m+1) and
    (m+2, m+1) -> (m+2, m).  Every comparison is exact, in Fraction."""
    with mp.workprec(working_prec(256)):
        qm = mpf(q0.numerator) / q0.denominator
        terms, bound, limit = _zeta_q_clausen(s, qm)
        ts = [_exact(t) for _, t in zip(range(61), terms)]
        rs = [_exact(bound(j)) for j in range(60)]
        assert [_exact(bound(j)) for j in (5, 5, 0, 59)] == [rs[5], rs[5], rs[0], rs[59]]
    q = _exact(from_mpf(qm))
    assert limit == 0 and all(t > 0 for t in ts)
    assert all(a > b for a, b in zip(rs, rs[1:]))
    for j, r in enumerate(rs):
        assert ts[j + 1] <= r * ts[j]
        m = j + 1
        exact = Fraction(m + 1, m) ** (s - 1) * q ** (m + 1)
        assert max(exact, q ** (m + 2)) <= r <= exact * (1 + Fraction(1, 2 ** 50))


@settings(max_examples=30, deadline=None)
@example((99, 100), 6, 256)
@given(st.integers(3, 100).flatmap(
           lambda b: st.tuples(st.integers(b // 2 + 1, b - 1), st.just(b))),
       st.integers(1, 6), st.sampled_from((24, 64, 256)))
def test_clausen_route_matches_mpf_oracle(q0, s, prec):
    q0 = Fraction(*q0)
    ref, _ = series_oracle.zeta_q(s, q0, prec)
    _assert_near(zeta_q(s, q0, prec), ref, prec)


def _zeta_q_asymptotic(s, q0):
    """zeta_q(s) = sum_m m^(s-1)/(e^(tm) - 1), t = -log q0, by its
    expansion at t -> 0 from the poles of Gamma(w) zeta(w) zeta(w-s+1)
    t^-w (Zagier's Mellin method): Gamma(s) zeta(s) t^-s + zeta(2-s)/t
    (for s = 1 the double pole gives (gamma - log t)/t) plus
    sum_n (-1)^n/n! zeta(-n) zeta(1-s-n) t^n, whose thirty terms leave
    an error far below 10^-100 relative for t <= 10^-3."""
    t = -mp.log(mpf(q0.numerator) / q0.denominator)
    if s == 1:
        val = (mp.euler - mp.log(t)) / t
    else:
        val = mp.gamma(s) * mp.zeta(s) / t ** s + mp.zeta(2 - s) / t
    for n in range(30):
        val += (-1) ** n / mp.factorial(n) * mp.zeta(-n) * mp.zeta(1 - s - n) * t ** n
    return val


@pytest.mark.parametrize("k", range(3, 7))
@pytest.mark.parametrize("s", range(1, 7))
def test_zeta_q_certifies_up_to_one(s, k):
    # the direct series needs more than 1.8 10^(k+2) terms at prec 256,
    # past its 10^6-term cap from k = 4
    q0 = 1 - Fraction(1, 10 ** k)
    val = zeta_q(s, q0)
    with mp.workprec(2 * working_prec(256)):
        _assert_near(val, _zeta_q_asymptotic(s, q0), 256)


def test_clausen_route_takes_few_terms():
    # the direct series takes 10 664 terms here
    _, taken = _zeta_q_and_taken(3, Fraction(9816, 10007), 256)
    assert taken <= 150


# (s, q0): (mantissa, exponent, terms taken) of zeta_q(s, q0, 256), all
# positive, as the Clausen route gave them with an mpf stop test and an
# mpf ratio bound
_NEAR_ONE_PINS = {
    (1, NEAR_ONE[0]): (0xe3bb203f2cd07f9d010f34129fb07b1bfae5dd05d89980a029f1ff4b813a5f584dbc987f, -281, 73),
    (2, NEAR_ONE[0]): (0xa942bf259541b1a3698ea8568d6e86b144f99cfc7535a4fbe0012c8787c63f1fcdbd8315, -277, 74),
    (3, NEAR_ONE[0]): (0x70aaa51c02b1b35ccf2ee8f1be7a0b2f240fd28d38ddb2d2d713c3ed1173d6754b818025, -271, 74),
    (4, NEAR_ONE[0]): (0x44948c5e730e7a0b950561160fe158e73372ac1ec41bce153d3bd635e4ac3a09093de9d5, -264, 75),
    (5, NEAR_ONE[0]): (0x7671b06428df74df3044fed0a233e9b23e22d1c5b7b8b80019f5e759d202018377f13621, -258, 76),
    (6, NEAR_ONE[0]): (0x82edc43279dd435ad6b67bc1e74561c11f56988fccfde44998dc997c6790eaf95ac0713d, -251, 77),
    (1, NEAR_ONE[1]): (0x759055e59eba8e67c49475a58c3e83ff6c26c42b102fbc6d0b50c0383ef38dfe50b5aad9, -279, 98),
    (2, NEAR_ONE[1]): (0x899b0d157f26f42084d636b233085984b29a1c75a2657954b597047ac8d944d0896fb0bb, -275, 99),
    (3, NEAR_ONE[1]): (0xa40528c05c8d1a63e1d43694c0546b52827703fb43ecd13f8d27ba21d85f1feb7fdb443d, -269, 100),
    (4, NEAR_ONE[1]): (0x59ce825bb09b8cbc03e76d406ee2dcf55b3d6475066ec5b6316bf8577c69133fc75f76d3, -261, 101),
    (5, NEAR_ONE[1]): (0x8b85a2d58b158b3bfc32664c245cf28e5ec45516ec3a5952d348d0e4d964d61456506cb3, -254, 102),
    (6, NEAR_ONE[1]): (0x22af0113ae93e5d83ba02528a8fe60fdeeb21ca33be7c2e50ce3de1f2cb63e333d31fc4f, -244, 104),
}


@pytest.mark.parametrize("key", sorted(_NEAR_ONE_PINS), ids=str)
def test_zeta_q_near_one_pinned(key):
    s, q0 = key
    (sign, man, exp, _), taken = _zeta_q_and_taken(s, q0, 256)
    assert (sign, man, exp, taken) == (0, *_NEAR_ONE_PINS[key])


@pytest.mark.parametrize("prec", (64, 256))
@pytest.mark.parametrize("q0", (Fraction(-9, 10), Fraction(-99, 100)), ids=str)
@pytest.mark.parametrize("s", range(1, 7))
def test_zeta_q_base_change_matches_direct_series(s, q0, prec):
    """The base change route of zeta_q at q0 < -1/2 against the direct
    series at q0 (the kernel, not the oracle): each certifies its tail to
    2^-(prec+8), so they may differ by 2^-(prec+7), plus their rounding,
    which no certificate covers yet and is allowed 2^-prec relative."""
    direct, _, _ = _gated_zeta_q_sum(s, q0, prec)
    val = zeta_q(s, q0, prec)
    with mp.workprec(2 * working_prec(prec)):
        assert abs(val - direct) <= mpf(2) ** -(prec + 7) + mpf(2) ** -prec * abs(direct)


def test_working_prec_adds_guard_and_scale():
    assert working_prec(128) > 128
    assert working_prec(128, 100) >= working_prec(128) + 100


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
# valid arguments other than prec for every public function taking prec
_PREC_CALLS = {
    "working_prec": {},
    "zeta_q": {"s": 3, "q0": _HALF},
    "S_eps_hat_numeric": {"params": Params(4, 1, 1), "q0": _HALF},
    "identity_residual": {"params": Params(4, 1, 2, 1), "q0": _THIRD},
    "linear_form_report": {"params": Params(4, 1, 2, 1), "q0": _THIRD},
    "delta": {"A": 4, "r": 1},
    "delta_best_r": {"A": 4},
    "delta_asymptotic_constant": {},
    "delta_constant_grid_max": {},
    "slope_S": {"A": 4, "r": 1, "eps": 0, "q0": _HALF, "n_range": range(1, 4)},
    "slope_P": {"A": 4, "r": 1, "eps": 0, "q0": _HALF, "n_range": range(1, 4)},
    "slope_D": {"A": 4, "r": 1, "q0": _HALF, "n_range": range(1, 4)},
    "qball_numeric": {"n": 1, "q0": _HALF},
    "qbgn_numeric": {"n": 1, "q0": _HALF},
    "zeta3_identity_residual": {"n": 2, "q0": _THIRD},
    "zeta3_report": {"n": 1, "q0": _THIRD},
    "classical_ball": {"n": 1},
    "eisenstein_value": {"s": 2, "q0": _HALF},
    "zetaq_even_consistency": {},
    "classical_limit_check": {},
}


def test_every_prec_parameter_rejects_prec_below_one():
    """Each public function with a prec parameter names the caller's own
    prec when it is below 1; a new one missing from _PREC_CALLS fails."""
    public = {name: getattr(qzeta, name) for name in qzeta.__all__}
    takes_prec = {name for name, obj in public.items()
                  if callable(obj) and not inspect.isclass(obj)
                  and "prec" in inspect.signature(obj).parameters}
    assert takes_prec == set(_PREC_CALLS)
    for name, kwargs in sorted(_PREC_CALLS.items()):
        for prec in (0, -5, -400):
            with pytest.raises(ValueError, match=f"^need prec >= 1, got {prec}$"):
                getattr(qzeta, name)(**kwargs, prec=prec)


def test_tmul_truncates():
    a = [1, 2, 3]
    b = [4, 5]
    # (1 + 2x + 3x^2)(4 + 5x) = 4 + 13x + 22x^2 + 15x^3, truncated at order 3
    assert tmul(a, b, 3) == [4, 13, 22]
    assert tmul(a, b) == [4, 13, 22, 15]
    # truncation past the full degree pads with zeros
    assert tmul(a, b, 6) == [4, 13, 22, 15, 0, 0]


def test_tmul_linear_and_exact_division_roundtrip():
    c = Fraction(2, 3)
    a = [Fraction(1), Fraction(-5), Fraction(0), Fraction(7, 2)]
    # times the linear factor 1 - cT
    prod = tmul(a, [Fraction(1), -c])
    assert prod == [Fraction(1), Fraction(-17, 3), Fraction(10, 3),
                    Fraction(7, 2), Fraction(-7, 3)]
    # exact division by 1 - cT: times 1/(1 - cT) = sum_k c^k T^k, truncated
    assert tmul(prod, [c ** k for k in range(len(a))], len(a)) == a
    # symbolic coefficients: (1 - qT)(1 + q^2 T) / (1 - qT)
    q = UPoly.q_power(1)
    sym = [UPoly.one(), UPoly.q_power(2)]
    assert tmul(tmul(sym, [UPoly.one(), -q]), [UPoly.one(), q], 2) == sym


def _w1_rows_and_numer():
    """W_1(T) = (1 - q^-1 T)^2 / ((1 - T)(1 - qT))^2 and its order-2 rows."""
    factor = [UPoly.one(), -UPoly.q_power(-1)]
    numer = tmul(factor, factor)
    kernel = Kernel(exps=(-1, -1))
    assert kernel.dense() == numer
    return numer, pf_extract(kernel, 2, 2, UPolyRing)


def test_pf_reconstruct_accepts_extracted_rows():
    numer, rows = _w1_rows_and_numer()
    assert pf_reconstruct(numer, rows, 2, 2)


# (kernel, pole count, order) of real kernels: the linear form's
# integer-power kernel at (A, r, n), with n + 1 poles of order A, and the
# weight-3 kernel W_n, with n + 1 poles of order 2.
_KERNELS = {
    "linform-4-1-2": (_hat_kernel(4, 1, 2), 3, 4),
    "linform-6-2-1": (_hat_kernel(6, 2, 1), 2, 6),
    "zeta3-3": (_w_kernel(3), 4, 2),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_pf_reconstruct_rejects_corrupted_row(kernel):
    kernel, pole_count, order = _KERNELS[kernel]
    numer = kernel.dense()
    rows = pf_extract(kernel, pole_count, order, UPolyRing)
    assert pf_reconstruct(numer, rows, pole_count, order)
    for j in range(pole_count):
        for s in range(1, order + 1):
            bad = [dict(row) for row in rows]
            bad[j][s] = bad[j][s] + QFrac(UPoly.q_power(1))
            assert not pf_reconstruct(numer, bad, pole_count, order), (j, s)


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_pf_reconstruct_rejects_polynomial_part(kernel):
    """The kernel grown by a larger shift to numerator degree top >=
    pole_count * order: it gains a nonzero polynomial part, which no sum
    of principal parts gives, with either the rows of the old kernel or
    the rows extracted anew."""
    kernel, pole_count, order = _KERNELS[kernel]
    rows = pf_extract(kernel, pole_count, order, UPolyRing)
    for top in (pole_count * order, pole_count * order + 1):
        grown = Kernel(kernel.scalar, top - len(kernel.exps), kernel.exps)
        numer = grown.dense()
        assert len(numer) == top + 1
        assert not pf_reconstruct(numer, rows, pole_count, order), top
        grown_rows = pf_extract(grown, pole_count, order, UPolyRing)
        assert not pf_reconstruct(numer, grown_rows, pole_count, order), top


@st.composite
def _small_kernels(draw):
    """(kernel, pole_count, order): a scalar of up to three pairs (m, k),
    exponents e off the poles 0..pole_count-1 and a shift, of numerator
    degree below pole_count * order."""
    pole_count = draw(st.integers(1, 4))
    order = draw(st.integers(1, 4))
    exps = draw(st.lists(st.integers(-3, 7).filter(lambda e: not 0 <= e < pole_count),
                         max_size=pole_count * order - 1))
    scalar = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)), max_size=3))
    shift = draw(st.integers(0, pole_count * order - 1 - len(exps)))
    return Kernel(tuple(scalar), shift, tuple(exps)), pole_count, order


@settings(max_examples=40, deadline=None)
@given(_small_kernels(), st.data())
def test_pf_reconstruct_on_random_kernels(kernel, data):
    """The extracted rows pass, also with zero coefficients padded past
    pole_count * order; one corrupted row entry, one corrupted numerator
    coefficient below that degree and a numerator of that degree or more
    each fail."""
    kernel, pole_count, order = kernel
    numer = kernel.dense()
    size = pole_count * order
    rows = pf_extract(kernel, pole_count, order, UPolyRing)
    assert pf_reconstruct(numer, rows, pole_count, order)
    padded = numer + [UPoly.zero()] * (size + 2 - len(numer))
    assert pf_reconstruct(padded, rows, pole_count, order)

    j = data.draw(st.integers(0, pole_count - 1))
    s = data.draw(st.integers(1, order))
    bad = [dict(row) for row in rows]
    bad[j][s] = bad[j][s] + QFrac(UPoly.q_power(data.draw(st.integers(-3, 3))))
    assert not pf_reconstruct(numer, bad, pole_count, order)

    i = data.draw(st.integers(0, size - 1))
    changed = list(padded[:size])
    changed[i] = changed[i] + UPoly.q_power(data.draw(st.integers(-3, 3)))
    assert not pf_reconstruct(changed, rows, pole_count, order)

    top = data.draw(st.integers(size, size + 2))
    grown = padded[:top] + [UPoly.zero()] * (top - len(padded)) + [UPoly.one()]
    assert not pf_reconstruct(grown, rows, pole_count, order)


def _pf_fraction_oracle(numer, pole_count, order, q0):
    """Independent partial fractions through the Taylor-shift oracle:
    coefficient of 1/(1 - q^j T)^s is the (order-s)-th Taylor coefficient
    of numer(T) * prod_{i != j} (1 - q^i T)^(-order) about T = q^(-j),
    rescaled by (-q^j)^(order - s) ... computed numerically instead via
    exact Fraction arithmetic on the shifted series."""
    # Build num/den coefficient lists over Fractions, shift to T = q^-j + X
    out = []
    for j in range(pole_count):
        # g(X) = numer(T) * prod_{i != j}(1 - q^i T)^(-order) at T = q^-j + X
        # via series division with exact Fractions
        def poly_eval_shift(coeffs, width):
            res = [Fraction(0)] * (width + 1)
            for c in reversed(coeffs):
                new = [Fraction(0)] * (width + 1)
                for t, v in enumerate(res):
                    if v:
                        new[t] += v * q0 ** (-j)
                        if t + 1 <= width:
                            new[t + 1] += v
                new[0] += c
                res = new
            return res
        ns = poly_eval_shift(numer, order - 1)
        dpoly = [Fraction(1)]
        for i in range(pole_count):
            if i == j:
                continue
            for _ in range(order):
                dpoly = ([a for a in dpoly] + [Fraction(0)])
                for t in range(len(dpoly) - 1, 0, -1):
                    dpoly[t] = dpoly[t] - q0 ** i * dpoly[t - 1]
                dpoly[0] = dpoly[0]
        new = [Fraction(0)] * order
        ds = poly_eval_shift(dpoly, order - 1)
        inv0 = 1 / ds[0]
        g = []
        for k in range(order):
            acc = ns[k]
            for t in range(k):
                acc -= g[t] * ds[k - t]
            g.append(acc * inv0)
        row = {}
        for s in range(1, order + 1):
            row[s] = g[order - s] * (-q0 ** (-j)) ** (order - s)
        out.append(row)
    return out


def test_pf_extract_against_shift_oracle():
    q0 = Fraction(1, 2)
    ring = FractionRing(q0)
    # numer(T) = (1 - q) T (1 - q^-1 T)(1 - q^3 T) = T/2 - 17T^2/16 + T^3/8
    # at q = 1/2, poles (1-T)^2 (1-qT)^2 (1-q^2T)^2
    kernel = Kernel(((1, 1),), 1, (-1, 3))
    numer = [Fraction(0), Fraction(1, 2), Fraction(-17, 16), Fraction(1, 8)]
    assert [c.eval_fraction(q0) for c in kernel.dense()] == numer
    rows = pf_extract(kernel, 3, 2, ring)
    oracle = _pf_fraction_oracle(numer, 3, 2, q0)
    for j in range(3):
        for s in (1, 2):
            assert rows[j][s] == oracle[j][s], (j, s)


def _factor_power(ring, m, order):
    """g_m(V) = ((1 - q^m) + q^m V)^order mod V^order, by the binomial
    theorem, with pole_factor's scale."""
    om, qm = ring.pole_factor(m)
    return [comb(order, t) * om ** (order - t) * qm ** t for t in range(order)]


_INVERSE_RINGS = {"upoly": UPolyRing,
                  **{str(q0): FractionRing(q0) for q0 in
                     (Fraction(1, 3), Fraction(-224, 499), Fraction(9816, 10007))}}


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("ring", list(_INVERSE_RINGS))
def test_inverse_prefixes_invert_the_factor_products(ring, order):
    """Entry k of _inverse_prefixes is F with prod_{m < k} 1/g_m =
    sum_i F_i V^i / C^(order+i), C the product of the first k 1 - q^m:
    times P, the product of the g_m built factor by factor, and with
    every F_i put over C^(2 order - 1), it leaves C^(2 order - 1)."""
    ring = _INVERSE_RINGS[ring]
    for offsets in (range(1, 7), range(-1, -7, -1)):
        bases, inverses = series._inverse_prefixes(ring, offsets, order)
        assert len(bases) == len(inverses) == len(offsets) + 1
        P, base = [ring.one] + [ring.zero] * (order - 1), ring.one
        for k, (C, F) in enumerate(zip(bases, inverses)):
            if k:
                P = tmul(P, _factor_power(ring, offsets[k - 1], order), order)
                base = base * ring.pole_factor(offsets[k - 1])[0]
            assert C == base, (offsets, k)
            lifted = [f * C ** (order - 1 - i) for i, f in enumerate(F)]
            expected = [C ** (2 * order - 1)] + [ring.zero] * (order - 1)
            assert tmul(P, lifted, order) == expected, (offsets, k)


# (kernel, pole count, order); 1 - qT sits on the pole T = q^-1, and at
# (8,2) and (12,2) the scalar (q;q)_n^(A-2r) is large: at (12,2,2) it
# leaves Phi_2 over in the numerator of pole 1
_CROSS_RING_KERNELS = {
    "1-qT": (Kernel(exps=(1,)), 2, 3),
    **{f"hat-{A}-{r}-{n}": (_hat_kernel(A, r, n), n + 1, A)
       for A, r, n in [(4, 1, 0), (4, 1, 1), (4, 1, 5), (6, 2, 0), (6, 2, 2),
                       *((8, 2, n) for n in range(4)), *((12, 2, n) for n in range(3))]},
    **{f"w-{n}": (_w_kernel(n), n + 1, 2) for n in (0, 1, 6)},
}


@lru_cache(maxsize=None)
def _symbolic_rows(kernel):
    kernel, poles, order = _CROSS_RING_KERNELS[kernel]
    return pf_extract(kernel, poles, order, UPolyRing)


@pytest.mark.parametrize("q0", [Fraction(1, 3), Fraction(2, 3), Fraction(-222, 499),
                                Fraction(147, 499), Fraction(-9, 10)], ids=str)
@pytest.mark.parametrize("kernel", list(_CROSS_RING_KERNELS))
def test_pf_extract_symbolic_matches_fraction_ring(kernel, q0):
    """FractionRing(q0) rows are the UPolyRing rows evaluated at q0, on both
    kernels and at points whose numerator is not 1 (so every power of it
    that div_pole_base puts back is exercised)."""
    rows_u = _symbolic_rows(kernel)
    kernel, poles, order = _CROSS_RING_KERNELS[kernel]
    ring = FractionRing(q0)
    rows_f = pf_extract(kernel, poles, order, ring)
    for j in range(poles):
        for s in range(1, order + 1):
            assert rows_u[j][s].eval_fraction(q0) == rows_f[j][s], (j, s)
