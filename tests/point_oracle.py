"""The point path as it was computed with one Fraction per operation: a
reference for the integer FractionRing.

This is the earlier FractionRing with the partial-fraction extractor,
the kernel numerators and the coefficient assembly written over it,
kept as they were (the UPoly parts left out), so that the values at a
rational q0 can be compared with an implementation that shares none of
the new integer code.  Each entry point returns what the library
function of the same role returns."""

from fractions import Fraction
from math import comb, lcm

from qzeta.qcomb import alpha_weight


def tmul(a, b, order=None):
    size = len(a) + len(b) - 1 if order is None else order
    out = [a[0] * 0] * size
    for i, ai in enumerate(a):
        if i >= size:
            break
        if not ai:
            continue
        for j in range(min(size - i, len(b))):
            if b[j]:
                out[i + j] = out[i + j] + ai * b[j]
    return out


def tmul_linear(a, c):
    """a(T) * (1 - c T)."""
    return [a[0]] + [a[i] - c * a[i - 1] for i in range(1, len(a))] + [-(c * a[-1])]


class FractionRing:
    def __init__(self, q0):
        self.q0 = Fraction(q0)
        self.one = Fraction(1)
        self.zero = Fraction(0)

    def qpow(self, m):
        return self.q0 ** m

    def div_one_minus_qpow(self, x, m, p):
        return x / (1 - self.q0 ** m) ** p

    def pole_shifts(self, numer_T, pole_count, order):
        """numer(q0^-j (1 - V)) mod V^order for j < pole_count, by a
        homogeneous Horner pass in integers per pole."""
        a, b = self.q0.numerator, self.q0.denominator
        den = lcm(*(c.denominator for c in numer_T))
        nums = [c.numerator * (den // c.denominator) for c in numer_T]
        top = len(nums) - 1
        out = []
        for j in range(pole_count):
            aj, bj = a ** j, b ** j
            h = [0] * order
            apow = 1
            for n_i in reversed(nums):
                for t in range(order - 1, 0, -1):
                    h[t] = (h[t] - h[t - 1]) * bj
                h[0] = h[0] * bj + n_i * apow
                apow *= aj
            scale = den * a ** (j * top)
            out.append([Fraction(x, scale) for x in h])
        return out


def _pole_bases(ring, pole_count):
    below, above = [ring.one], [ring.one]
    for m in range(1, pole_count):
        below.append(below[-1] * (ring.one - ring.qpow(-m)))
        above.append(above[-1] * (ring.one - ring.qpow(m)))
    return [below[j] * above[pole_count - 1 - j] for j in range(pole_count)]


def _pole_factor_prefixes(ring, offsets, order):
    one = ring.one
    out = [[one] + [ring.zero] * (order - 1)]
    for m in offsets:
        qm = ring.qpow(m)
        om = one - qm
        ompows = [one]
        for _ in range(order):
            ompows.append(ompows[-1] * om)
        fac = []
        qmk = one
        for k in range(order):
            fac.append(comb(order, k) * ompows[order - k] * qmk)
            qmk = qmk * qm
        out.append(tmul(out[-1], fac, order))
    return out


def pf_extract(numer_T, pole_count, order, ring):
    """rows[j][s]: the coefficient of 1/(1 - q0^j T)^s in
    numer(T) / prod_{i<pole_count} (1 - q0^i T)^order."""
    one, zero = ring.one, ring.zero
    shifts = ring.pole_shifts(numer_T, pole_count, order)
    cbases = _pole_bases(ring, pole_count)
    below = _pole_factor_prefixes(ring, range(-1, -pole_count, -1), order)
    above = _pole_factor_prefixes(ring, range(1, pole_count), order)
    rows = []
    for j, (s, cbase) in enumerate(zip(shifts, cbases)):
        pv = tmul(below[j], above[pole_count - 1 - j], order)
        cpows = [one]
        for _ in range(order):
            cpows.append(cpows[-1] * cbase)
        f = [one]
        for k in range(1, order):
            acc = zero
            for t in range(1, k + 1):
                if pv[t]:
                    acc = acc + pv[t] * f[k - t] * cpows[t]
            f.append(-acc / cpows[order] if acc else zero)
        h = [s[t] * cpows[t] if s[t] else zero for t in range(order)]
        hf = tmul(h, f, order)
        rows.append({sdx: hf[order - sdx] / cbase ** (2 * order - sdx)
                     for sdx in range(1, order + 1)})
    return rows


def hat_numerator(A, r, n, ring):
    coeffs = [ring.one]
    for i in range(1, r * n + 1):
        coeffs = tmul_linear(coeffs, ring.qpow(-i))
    for i in range(n + 1, n + r * n + 1):
        coeffs = tmul_linear(coeffs, ring.qpow(i))
    poch = ring.one
    for i in range(1, n + 1):
        poch = poch * (ring.one - ring.qpow(i))
    scal = poch ** (A - 2 * r)
    return [ring.zero] * ((A - 2 * r) * n // 2) + [scal * c for c in coeffs]


def pf_values(A, r, n, q0):
    """The role of linform._pf_values."""
    ring = FractionRing(q0)
    return tuple(pf_extract(hat_numerator(A, r, n, ring), n + 1, A, ring))


def assemble_eps(dval, A, n, eps, ring):
    zero = dval[0][1] * 0
    qpow, div_omq = ring.qpow, ring.div_one_minus_qpow
    pk1 = {}
    for k in range(1, A + 1):
        acc = zero
        for j in range(n + 1):
            acc = acc + dval[j][k] * qpow(-j)
        pk1[k] = acc
    dp1 = zero
    for j in range(1, n + 1):
        dp1 = dp1 + j * (dval[j][1] * qpow(-j))
    p0_plain = zero
    for s in range(1, A + 1):
        g = zero
        for j in range(1, n + 1):
            g = g + div_omq(qpow(j), j, s)
            p0_plain = p0_plain - dval[j][s] * qpow(-j) * g
    p0_inv = zero
    for s in range(1, A + 1):
        sgn = -1 if s % 2 else 1
        h = zero
        for m in range(1, n + 1):
            h = h + div_omq(qpow(m * (s - 1)), m, s)
            j = n - m
            p0_inv = p0_inv - sgn * (dval[j][s] * qpow(-j)) * h
    flip = -1 if eps else 1
    p0 = p0_plain + flip * (p0_inv + dp1)
    ps = {}
    for s in range(2, A + 1):
        if s % 2 != eps % 2:
            continue
        acc = zero
        for k in range(s, A + 1):
            acc = acc + alpha_weight(k, s) * pk1[k]
        ps[s] = acc
    return p0, ps


def p_eps_values_hat(A, r, n, eps, q0):
    """The role of linform.P_eps_values_hat."""
    p0, ps = assemble_eps(pf_values(A, r, n, q0), A, n, eps, FractionRing(q0))
    return p0, tuple(sorted(ps.items()))


def w_numerator(n, ring):
    coeffs = [ring.one]
    for _ in range(2):
        for i in range(n):
            coeffs = tmul_linear(coeffs, ring.qpow(i - n))
    return coeffs


def zeta3_form_values(n, q0):
    """The role of zeta3.zeta3_form_values: (A_n(q0), B_n(q0))."""
    ring = FractionRing(q0)
    rows = pf_extract(w_numerator(n, ring), n + 1, 2, ring)
    a, b = [row[2] for row in rows], [row[1] for row in rows]
    qpow, div_omq = ring.qpow, ring.div_one_minus_qpow
    a_total = zero = a[0] * 0
    for j, aj in enumerate(a):
        a_total = a_total + aj * qpow(-j)
    b_total = g3 = g2 = zero
    for j in range(1, n + 1):
        qj = qpow(j)
        g3 = g3 + div_omq(qj + qpow(2 * j), j, 3)
        g2 = g2 + div_omq(qj, j, 2)
        b_total = b_total + (a[j] * g3 + b[j] * g2) * qpow(-j)
    return a_total, b_total
