"""One sha256 over the certified sums of the numeric layer.

A change to the numeric series (their terms, ratio bounds, stop tests or
working precision) must leave each value and the count of terms it took
as they were: the _mpf_ of every value and the terms summed by
sum_with_tail while computing it.  The values are

  * S_eps_hat_numeric for A in {2, 4, 6}, r in {1, A/2}, n <= 2 and both
    eps, at q0 in {1/3, -1/3, 9/10};
  * zeta_q for s <= 4 at q0 in {1/3, -1/3, 9/10, -9/10}, which covers its
    direct, Clausen-grouped and base-change routes;
  * qball_numeric and qbgn_numeric for n <= 2 at q0 = 1/3 (qball_numeric
    is S_eps_hat_numeric at (4, 1, n, 1), so its six entries repeat those
    of the first grid);

each at prec 64 and 160, 224 values in all.  The digest was recorded
under mpmath 1.3.0 on its python backend (no gmpy2); another mpmath or
backend may round differently.  Cold, the test takes about 1 s on a
2-core host.
"""

import hashlib
from fractions import Fraction

import pytest

from qzeta import linform, zeta3
from qzeta.linform import Params, S_eps_hat_numeric, zeta_q
from qzeta.zeta3 import qball_numeric, qbgn_numeric

PRECS = (64, 160)
KERNEL_Q0 = (Fraction(1, 3), Fraction(-1, 3), Fraction(9, 10))
ZETA_Q0 = KERNEL_Q0 + (Fraction(-9, 10),)

DIGEST = "e8305e08d3e2fad4c1b1a0fca0458806e8f31a6269e4989d40d433ebb8b54de3"


def calls() -> list:
    """(label, call) for every value of the grid, in a fixed order."""
    out = []
    for prec in PRECS:
        for A in (2, 4, 6):
            for r in sorted({1, A // 2}):
                for n in range(3):
                    for eps in (0, 1):
                        for q0 in KERNEL_Q0:
                            p = Params(A, r, n, eps)
                            out.append((("S", A, r, n, eps, str(q0), prec),
                                        lambda p=p, q0=q0, prec=prec:
                                        S_eps_hat_numeric(p, q0, prec)))
        for s in range(1, 5):
            for q0 in ZETA_Q0:
                out.append((("zeta_q", s, str(q0), prec),
                            lambda s=s, q0=q0, prec=prec: zeta_q(s, q0, prec)))
        for fn in (qball_numeric, qbgn_numeric):
            for n in range(3):
                out.append(((fn.__name__, n, prec),
                            lambda fn=fn, n=n, prec=prec: fn(n, Fraction(1, 3), prec)))
    return out


def numeric_values() -> list:
    """(label, _mpf_, terms taken) for each call of the grid."""
    taken = 0

    def counting(real):
        def spy(terms, bound, tol, *, limit):
            def counted():
                nonlocal taken
                for t in terms:
                    taken += 1
                    yield t
            return real(counted(), bound, tol, limit=limit)
        return spy

    out = []
    with pytest.MonkeyPatch.context() as patch:
        for module in (linform, zeta3):
            patch.setattr(module, "sum_with_tail", counting(module.sum_with_tail))
        for label, call in calls():
            taken = 0
            out.append((label, call()._mpf_, taken))
    return out


def numeric_digest() -> str:
    return hashlib.sha256(repr(numeric_values()).encode("ascii")).hexdigest()


def test_numeric_values_digest():
    assert numeric_digest() == DIGEST
