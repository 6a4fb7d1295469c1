"""One sha256 over the exact values of the symbolic pipeline.

A change to the exact arithmetic (UPoly, QFrac reduction, partial
fractions) must leave every field of these values as it was: the lo, v
and den of each UPoly and the Phi exponents of each QFrac.  The values
are the partial-fraction rows of (4,1,0..8), (6,1,0..4) and (6,2,0..4),
the hat-normalized P^[eps] for both eps on that grid, the
denominator_check verdicts and witnesses on it, and the weight-3 rows
and forms for n <= 10.  Cold, the test takes about 1 s on a 2-core host
(1.7 s with the trial-division reduction it was recorded under).
"""

import hashlib

from qzeta.linform import Params, _p_eps_hat, _pf_table, denominator_check
from qzeta.qcomb import QFrac
from qzeta.upoly import UPoly
from qzeta.zeta3 import zeta3_form, zeta3_partial_fractions

GRID = ([(4, 1, n) for n in range(9)] + [(6, 1, n) for n in range(5)]
        + [(6, 2, n) for n in range(5)])

# recorded before the QFrac reduction by whole q^m - 1 factors
DIGEST = "d6f88f7760028bd574626c164bb6f51e561fe0f826a8ce4a59e2ca986470146b"


def _fields(x):
    """A nested tuple of the exact fields of x, the same for equal inputs."""
    if isinstance(x, UPoly):
        return ("U", x.lo, tuple(x.v), x.den)
    if isinstance(x, QFrac):
        return ("Q", _fields(x.num), tuple(sorted(x.den.e.items())))
    if isinstance(x, dict):
        return tuple(sorted((k, _fields(v)) for k, v in x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(map(_fields, x))
    if isinstance(x, Params):
        return ("P", x.A, x.r, x.n, x.eps)
    assert x is None or isinstance(x, (bool, int, str)), type(x)
    return x


def exact_values() -> list:
    out = []
    for A, r, n in GRID:
        out.append(_pf_table(A, r, n))
        for eps in (0, 1):
            out.append(_p_eps_hat(A, r, n, eps))
            out.append(denominator_check(Params(A, r, n, eps)))
    for n in range(11):
        out.append(zeta3_partial_fractions(n).rows)
        out.append(zeta3_form(n))
    return out


def exact_digest() -> str:
    return hashlib.sha256(repr(_fields(exact_values())).encode("ascii")).hexdigest()


def test_exact_values_digest():
    assert exact_digest() == DIGEST
