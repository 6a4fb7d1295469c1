"""The certified sums as they were computed in mpf arithmetic: a reference
for the integer kernel of qzeta.series.

sum_with_tail, the zeta_q term loop and the table of powers of q0 are
kept as they were before the kernel, every operation an mpf operation,
so that a sum, its terms and its stop index can be compared with an
implementation that shares none of the kernel code; only the ratio
bounds, which are mpf code in both, come from the library.
sum_with_tail also returns the number of terms it took."""

from fractions import Fraction
from math import inf

from mpmath import mp, mpf

from qzeta.linform import _zeta_q_series
from qzeta.series import DivergenceError, PrecisionError, working_prec

MAX_TERMS = 1000000


def sum_with_tail(terms, ratio_bound, tol, *, limit=None):
    """(sum, terms taken) of mpf terms; the stop rule of the library's
    sum_with_tail, with its cap of MAX_TERMS terms, but tested in mpf: the
    library decides it exactly, so the two can part only where the tail
    estimate lies within a few ulps of tol."""
    if limit is None:
        if callable(ratio_bound):
            raise ValueError("a callable ratio_bound needs its limit")
        limit = ratio_bound
    if limit >= 1:
        raise DivergenceError(f"ratio bound limit {float(limit):.6g} >= 1; "
                              "no certified tail")
    gate = mpf(2 * tol * (1 - limit) / limit if limit > 0 else "inf")
    gsign, gman, gexp, gbc = gate._mpf_
    if gman and not gsign:
        gtop = gexp + gbc
    else:
        gtop = inf if gate > 0 else -inf
    bound = ratio_bound if callable(ratio_bound) else (lambda k: ratio_bound)
    total, taken = mpf(0), 0
    for k, t in enumerate(terms):
        taken += 1
        total += t
        _, man, exp, bc = t._mpf_
        top = exp + bc
        if (top < gtop) if man and top != gtop else (abs(t) < gate):
            ta = abs(t)
            r = bound(k)
            if 0 <= r < 1 and ta * r / (1 - r) < tol:
                return total, taken
        if taken >= MAX_TERMS:
            raise PrecisionError(f"no certified tail after {MAX_TERMS} terms")
    return total, taken


def zeta_q_terms(s, qm):
    """The terms k^(s-1) q^k / (1 - q^k), k >= 1, of zeta_q(s) at the
    mpf q = qm."""
    qk = mpf(1)
    k = 1
    while True:
        qk *= qm
        yield k ** (s - 1) * qk / (1 - qk)
        k += 1


def zeta_q(s, q0, prec):
    """(zeta_q(s) at q0 != 0, terms taken), as the library's zeta_q sums
    it with its default tolerance."""
    q0 = Fraction(q0)
    with mp.workprec(working_prec(prec)):
        qm = mpf(q0.numerator) / q0.denominator
        _, bound, limit = _zeta_q_series(s, qm)
        total, taken = sum_with_tail(zeta_q_terms(s, qm), bound, mpf(2) ** (-(prec + 8)),
                                     limit=limit)
        return +total, taken


class QPowers:
    """Lazily grown table of integer powers q0^e, e >= 0: each the
    previous one times q0."""

    def __init__(self, qm):
        self.qm = qm
        self.p = [mpf(1)]

    def get(self, e: int):
        while len(self.p) <= e:
            self.p.append(self.p[-1] * self.qm)
        return self.p[e]
