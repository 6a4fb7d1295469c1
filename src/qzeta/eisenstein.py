"""Eisenstein q-expansions and the weight-graded ring they generate.

E_{2s}(q) = 1 - (4s/B_{2s}) sum_{k>=1} sigma_{2s-1}(k) q^k, so that
E_{2s} = 1 - (4s/B_{2s}) zeta_q(2s).  Every even weight w >= 4 except 2
has a monomial basis {E_4^a E_6^b : 4a + 6b = w}; expressing a target
expansion in that basis is an exact linear solve over Q, verified on a
surplus of extra coefficients rather than justified by dimension
formulas.  E_2 is computed but has an empty basis (it is quasimodular
only) and is never used in expressions.

All expansion arithmetic is dense truncated multiplication over exact
rationals.  Numeric evaluation of E_{2s} at rational 0 < |q0| < 1 goes
through the certified sum zeta_q(2s, q0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .linform import _check_q0, zeta_q
from .qcomb import bernoulli, divisor_power_sum
from .series import DEFAULT_PREC, Record, tmul, working_prec

__all__ = [
    "InconsistentSystemError",
    "QExpansion",
    "classical_limit_check",
    "eisenstein_expansion",
    "eisenstein_value",
    "express_in_E4_E6",
    "monomial_basis",
    "zetaq_even_consistency",
    "zetaq_even_in_basis",
]


class InconsistentSystemError(Exception):
    """A weight-graded expansion failed to lie in the E_4/E_6 span."""


class QExpansion(Record):
    """Truncated q-expansion c_0 + c_1 q + ... + c_N q^N of pure weight."""

    __slots__ = ("weight", "coeffs")

    def _check(self):
        object.__setattr__(self, "coeffs",
                           tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        N = min(self.order, other.order)
        return QExpansion(self.weight + other.weight,
                          tuple(tmul(self.coeffs, other.coeffs, N + 1)))

    def __pow__(self, k: int) -> "QExpansion":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = QExpansion(0, (Fraction(1),) + (Fraction(0),) * self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


@lru_cache(maxsize=None)
def eisenstein_expansion(s: int, N: int) -> QExpansion:
    """E_{2s} truncated at q^N: 1 - (4s/B_{2s}) sum sigma_{2s-1}(k) q^k."""
    if s < 1 or N < 1:
        raise ValueError("need s >= 1 and N >= 1")
    c = -Fraction(4 * s) / bernoulli(2 * s)
    coeffs = [Fraction(1)]
    coeffs.extend(c * divisor_power_sum(k, 2 * s - 1) for k in range(1, N + 1))
    return QExpansion(2 * s, tuple(coeffs))


def monomial_basis(weight: int):
    """All (a, b) with 4a + 6b = weight, a, b >= 0, descending in a."""
    if weight < 0 or weight % 2:
        raise ValueError("weight must be a nonnegative even integer")
    pairs = []
    for a in range(weight // 4, -1, -1):
        rem = weight - 4 * a
        if rem % 6 == 0:
            pairs.append((a, rem // 6))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _monomial_expansion(a: int, b: int, N: int) -> QExpansion:
    e4 = eisenstein_expansion(2, N)
    e6 = eisenstein_expansion(3, N)
    return (e4 ** a) * (e6 ** b)


def _solve_exact(rows, rhs):
    """Gaussian elimination over Q; returns solution or raises on an
    inconsistent/underdetermined system."""
    m, k = len(rows), len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    piv_cols = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        piv_cols.append(col)
        row += 1
        if row == m:
            break
    if len(piv_cols) < k:
        raise InconsistentSystemError("system does not determine all coefficients")
    for i in range(row, m):
        if aug[i][k]:
            raise InconsistentSystemError("inconsistent linear system")
    sol = [Fraction(0)] * k
    for i, col in enumerate(piv_cols):
        sol[col] = aug[i][k]
    return sol


def express_in_E4_E6(weight: int, target: QExpansion | None = None,
                     n_solve: int | None = None,
                     n_verify: int | None = None) -> dict:
    """Exact coefficients c_{a,b} with target = sum c_{a,b} E_4^a E_6^b.

    Solves the linear system on coefficients 0..n_solve (default: the
    number of basis monomials, one more equation than unknowns), then
    verifies every coefficient up to n_verify (default n_solve + 40)
    exactly.  The default target is E_weight itself, expanded to
    n_verify.  Any inconsistency raises InconsistentSystemError.
    """
    if weight < 4:
        raise ValueError("weight must be >= 4")
    pairs = monomial_basis(weight)  # nonempty for every even weight >= 4
    if n_solve is None:
        n_solve = len(pairs)
    if n_verify is None:
        n_verify = n_solve + 40
    if not (n_verify > n_solve >= len(pairs)):
        raise ValueError("need n_verify > n_solve >= number of basis pairs")
    if target is None:
        target = eisenstein_expansion(weight // 2, n_verify)
    if target.weight != weight:
        raise ValueError(f"target has weight {target.weight}, wanted {weight}")
    if target.order < n_verify:
        raise ValueError(
            f"target truncated at {target.order}, need {n_verify}")
    monos = [_monomial_expansion(a, b, n_verify) for a, b in pairs]
    rows = [[mono.coeff(i) for mono in monos] for i in range(n_solve + 1)]
    rhs = [target.coeff(i) for i in range(n_solve + 1)]
    sol = _solve_exact(rows, rhs)
    mism = []
    for i in range(n_verify + 1):
        lhs = sum(c * mono.coeff(i) for c, mono in zip(sol, monos))
        if lhs != target.coeff(i):
            mism.append(i)
    if mism:
        raise InconsistentSystemError(
            f"weight-{weight} expression fails at coefficients {mism[:5]}")
    return {
        "weight": weight,
        "basis": [{"a": a, "b": b, "c": c} for (a, b), c in zip(pairs, sol)],
        "solved_on": n_solve,
        "verified_to": n_verify,
    }


def zetaq_even_in_basis(s: int, n_solve: int | None = None,
                        n_verify: int | None = None) -> dict:
    """zeta_q(s) for even s >= 4 as an affine expression over the basis:

        zeta_q(s) = const + sum c_{a,b} E_4^a E_6^b,
        const = B_s/(2s),  c_{a,b} = -(B_s/(2s)) * (E_s-coefficient).
    """
    if s < 4 or s % 2:
        raise ValueError("need even s >= 4")
    expr = express_in_E4_E6(s, n_solve=n_solve, n_verify=n_verify)
    factor = bernoulli(s) / (2 * s)
    return {
        "s": s,
        "const": factor,
        "basis": [{"a": row["a"], "b": row["b"], "c": -factor * row["c"]}
                  for row in expr["basis"]],
        "verified_to": expr["verified_to"],
    }


# ----------------------------------------------------------------------
# Certified numeric evaluation.

def eisenstein_value(s: int, q0, prec: int = DEFAULT_PREC) -> mpf:
    """E_{2s}(q0) = 1 - (4s/B_{2s}) zeta_q(2s, q0) for rational 0 < |q0| < 1,
    certified truncation.

    zeta_q certifies zeta_q(2s) for every q0 the expansion accepts: by
    the Lambert series k^(2s-1) q0^k/(1 - q0^k), whose ratio bound falls
    to |q0| < 1, for -1/2 <= q0 <= 1/2, by the pairs grouped along the
    hyperbola for q0 > 1/2, and by the base change to -q0, q0^2 and q0^4
    for q0 < -1/2.  Every route stops at the tail tolerance
    2^(-prec-1)/|4s/B_{2s}| passed to it, so the truncation error of
    E_{2s} stays below 2^(-prec-1).
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    q0 = _check_q0(q0)
    with mp.workprec(working_prec(prec)):
        c = -Fraction(4 * s) / bernoulli(2 * s)
        # 2^(-prec-1) / |c|, rounded down from the exact rational
        tol = mp.fdiv(c.denominator, abs(c.numerator) << (prec + 1), rounding="d")
        return 1 + mpf(c.numerator) / c.denominator * zeta_q(2 * s, q0, prec, tol)


def zetaq_even_consistency(s: int = 4, q0=Fraction(1, 3),
                           prec: int = 160) -> dict:
    """Two routes to zeta_q(s) at q = q0: the certified direct sum and
    the affine expression over Eisenstein values.  Returns both and the
    absolute difference."""
    q0 = Fraction(q0)
    with mp.workprec(working_prec(prec)):
        expr = zetaq_even_in_basis(s)
        direct = zeta_q(s, q0, prec)
        c = expr["const"]
        total = mpf(c.numerator) / c.denominator
        e4 = eisenstein_value(2, q0, prec)
        e6 = eisenstein_value(3, q0, prec)
        for row in expr["basis"]:
            cv = row["c"]
            total += (mpf(cv.numerator) / cv.denominator
                      * e4 ** row["a"] * e6 ** row["b"])
        return {
            "s": s,
            "q0": q0,
            "direct": direct,
            "via_basis": total,
            "residual": abs(direct - total),
        }


def classical_limit_check(s: int = 2, q0_list=(Fraction(1, 2),
                                               Fraction(9, 10),
                                               Fraction(99, 100)),
                          prec: int = 96) -> dict:
    """(1 - q)^s zeta_q(s) / (s-1)! -> zeta(s) as q -> 1^-: evaluates the
    scaled values on an increasing q0 grid and reports the relative
    errors, flagging whether they decrease monotonically."""
    if s < 2:
        raise ValueError("need s >= 2")
    q0_list = [Fraction(v) for v in q0_list]
    if any(not 0 < v < 1 for v in q0_list):
        raise ValueError("grid points must lie in (0, 1)")
    if sorted(q0_list) != q0_list:
        raise ValueError("grid must be increasing toward 1")
    with mp.workprec(working_prec(prec)):
        target = mp.zeta(s)
        fact = mp.factorial(s - 1)
        rows = []
        for q0 in q0_list:
            val = ((1 - mpf(q0.numerator) / q0.denominator) ** s
                   * zeta_q(s, q0, prec) / fact)
            rows.append({
                "q0": q0,
                "value": val,
                "rel_error": abs(val - target) / target,
            })
        errs = [r["rel_error"] for r in rows]
        return {
            "s": s,
            "target": target,
            "rows": rows,
            "monotone_decreasing": all(a > b for a, b in zip(errs, errs[1:])),
        }
