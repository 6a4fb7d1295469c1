"""Helpers for checking the certified series term by term: replay one
sum over reference terms, read the factor windows a term generator
holds, and draw rational points q0."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from qzeta.series import from_mpf

NEAR_ONE = (Fraction(9666, 10007), Fraction(9816, 10007))


@st.composite
def q0s(draw):
    """q0 = +-a/b with 1 <= a < b <= 100."""
    den = draw(st.integers(min_value=2, max_value=100))
    num = draw(st.integers(min_value=1, max_value=den - 1))
    return Fraction(num * draw(st.sampled_from((1, -1))), den)


def replayed(module, call, ref_terms):
    """call() takes one certified sum through module.sum_with_tail; that sum
    is replayed with the same ratio bound, tol, limit and precision over
    ref_terms(), mpf terms that are fed to it as kernel pairs.  Returns
    (sum _mpf_, terms taken) of the call and of the replay."""
    real = module.sum_with_tail
    runs = []

    def run(terms, bound, tol, limit):
        taken = 0

        def counted():
            nonlocal taken
            for t in terms:
                taken += 1
                yield t

        val = real(counted(), bound, tol, limit=limit)
        runs.append((val._mpf_, taken))
        return val

    def spy(terms, bound, tol, *, limit):
        val = run(terms, bound, tol, limit)
        run(map(from_mpf, ref_terms()), bound, tol, limit)  # at the caller's precision
        return val

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "sum_with_tail", spy)
        call()
    return runs


def window_sizes(gen):
    """The sizes of the lists a suspended term generator's frame holds,
    ascending: the factor windows of a sum that slides them with k."""
    return sorted(len(v) for v in gen.gi_frame.f_locals.values() if isinstance(v, list))
