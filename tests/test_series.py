"""Certified series summation, the T-polynomial helpers, and the
partial-fraction extractor against an independent Taylor-shift oracle."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qzeta.qcomb import QFrac
from qzeta.series import (
    DivergenceError,
    FractionRing,
    PrecisionError,
    UPolyRing,
    pf_extract,
    pf_reconstruct,
    sum_with_tail,
    tdiv_linear,
    tmul,
    tmul_linear,
    tpow,
    working_prec,
)
from qzeta.upoly import ExactDivisionError, UPoly

ERDOS_BORWEIN = "1.6066951524152917637833015231909245804805796715057564357"


def test_geometric_sum_certified():
    with mp.workprec(working_prec(128)):
        q = mpf(1) / 3
        val = sum_with_tail((q ** k for k in range(1, 10 ** 6)),
                            float(q), mpf(2) ** -120)
        assert abs(val - q / (1 - q)) < mpf(2) ** -118


def test_erdos_borwein_constant():
    # sum_{k>=1} 1/(2^k - 1); term ratio < (2^k - 1)/(2^(k+1) - 1) < 1/2 + eps
    with mp.workprec(working_prec(200)):
        val = sum_with_tail((1 / (mpf(2) ** k - 1) for k in range(1, 10 ** 6)),
                            0.51, mpf(2) ** -196)
        assert abs(val - mpf(ERDOS_BORWEIN)) < mpf(10) ** -55


def test_callable_ratio_bound():
    with mp.workprec(working_prec(96)):
        # sum k / 2^k = 2; ratio (k+1)/(2k) decreasing, valid for the tail
        val = sum_with_tail((mpf(k) / mpf(2) ** k for k in range(1, 10 ** 6)),
                            lambda idx: (idx + 2) / (2 * (idx + 1)),
                            mpf(2) ** -90)
        assert abs(val - 2) < mpf(2) ** -88


def test_divergence_detected():
    with mp.workprec(working_prec(64)):
        with pytest.raises(DivergenceError):
            sum_with_tail((mpf(1) for _ in range(10 ** 6)), None, mpf(2) ** -50)


def test_max_terms_exhaustion():
    with mp.workprec(working_prec(64)):
        # decreasing terms but never a usable ratio bound
        with pytest.raises(PrecisionError):
            sum_with_tail((1 / mpf(k) for k in range(1, 10 ** 6)),
                          None, mpf(2) ** -50, max_terms=500)


def test_working_prec_adds_guard_and_scale():
    assert working_prec(128) > 128
    assert working_prec(128, 100) >= working_prec(128) + 100


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
    prod = tmul_linear(a, c)
    assert prod == tmul(a, [Fraction(1), -c])
    assert tdiv_linear(prod, c) == a
    # symbolic coefficients: (1 - qT)(1 + uT) / (1 - qT)
    q = UPoly.q_power(1)
    sym = [UPoly.one(), UPoly.u_power(1)]
    assert tdiv_linear(tmul_linear(sym, q), q) == sym


def test_tdiv_linear_rejects_non_divisor():
    # 1 + T is not divisible by 1 - 2T; neither is a nonzero constant
    with pytest.raises(ExactDivisionError):
        tdiv_linear([Fraction(1), Fraction(1)], Fraction(2))
    with pytest.raises(ExactDivisionError):
        tdiv_linear([Fraction(3)], Fraction(2))
    assert tdiv_linear([Fraction(0)], Fraction(2)) == []


def test_tpow():
    # (1 - 2T)^3 = 1 - 6T + 12T^2 - 8T^3
    assert tpow([1, -2], 3) == [1, -6, 12, -8]
    assert tpow([Fraction(1, 2), 1], 0) == [1]
    a = [UPoly.one(), -UPoly.q_power(1)]
    assert tpow(a, 2) == tmul(a, a)


def _w1_rows_and_numer():
    """W_1(T) = (1 - q^-1 T)^2 / ((1 - T)(1 - qT))^2 and its order-2 rows."""
    numer = tpow([UPoly.one(), -UPoly.q_power(-1)], 2)
    rows, bases = pf_extract(numer, 2, 2, UPolyRing)
    out = []
    for row, offs in zip(rows, bases):
        out.append({s: UPolyRing.div_one_minus_qpow(row[s], offs[0], 4 - s).reduced()
                    for s in (1, 2)})
    return numer, out


def test_pf_reconstruct_accepts_extracted_rows():
    numer, rows = _w1_rows_and_numer()
    assert pf_reconstruct(numer, rows, 2, 2)


def test_pf_reconstruct_rejects_corrupted_row():
    numer, rows = _w1_rows_and_numer()
    for j, s in ((0, 1), (1, 2)):
        bad = [dict(row) for row in rows]
        bad[j][s] = bad[j][s] + QFrac(UPoly.q_power(1))
        assert not pf_reconstruct(numer, bad, 2, 2), (j, s)


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
    # numer(T) = (1 - 3T)(1 + T) = 1 - 2T - 3T^2, poles (1-T)^2 (1-qT)^2 (1-q^2T)^2
    numer = [Fraction(1), Fraction(-2), Fraction(-3)]
    rows, bases = pf_extract(numer, 3, 2, ring)
    oracle = _pf_fraction_oracle(numer, 3, 2, q0)
    for j in range(3):
        base = Fraction(1)
        for m in bases[j]:
            base *= 1 - q0 ** m
        for s in (1, 2):
            got = rows[j][s] / base ** (2 * 2 - s)
            assert got == oracle[j][s], (j, s)


def test_pf_extract_symbolic_matches_fraction_ring():
    q0 = Fraction(1, 3)
    numer_u = [UPoly.one(), UPoly({2: -1})]         # 1 - qT
    numer_f = [Fraction(1), -q0]
    rows_u, bases_u = pf_extract(numer_u, 2, 3, UPolyRing)
    rows_f, bases_f = pf_extract(numer_f, 2, 3, FractionRing(q0))
    assert bases_u == bases_f
    for j in range(2):
        for s in (1, 2, 3):
            assert rows_u[j][s].eval_fraction(q0) == rows_f[j][s], (j, s)
