"""qzeta: exact and certified-numeric verification of linear forms in
q-zeta values, their cyclotomic denominators, asymptotic rates, and the
associated dimension bounds.
"""

from types import ModuleType as _ModuleType

from .upoly import (
    ExactArithError,
    ExactDivisionError,
    PoleError,
    UPoly,
    format_rat,
    parse_rat,
)
from .qcomb import (
    PhiProduct,
    QFrac,
    alpha_weight,
    bernoulli,
    cyclotomic,
    d_poly,
    divisor_power_sum,
    qbinomial,
    qpoch,
    stirling_first,
)
from .series import (
    DEFAULT_PREC,
    GUARD_BITS,
    DivergenceError,
    PrecisionError,
    sum_with_tail,
    working_prec,
)
from .linform import (
    Params,
    D_exponent,
    D_n,
    P_eps,
    P_eps_hat,
    P_eps_values_hat,
    S_eps_hat_numeric,
    S_eps_numeric,
    d_symmetry_check,
    denominator_check,
    denominator_probe,
    identity_residual,
    kernel_symmetry_check,
    linear_form_report,
    p1_at_one_check,
    p_reciprocity_check,
    reconstruction_check,
    transform_check,
    zeta_q,
)
from .asymptotics import (
    SlopeEstimate,
    delta,
    delta_asymptotic_constant,
    delta_best_r,
    delta_constant_grid_max,
    delta_exact_pair,
    fit_limit,
    nesterenko_bound,
    slope_D,
    slope_P,
    slope_S,
    verify_delta_recombination,
)
from .zeta3 import (
    Zeta3Kernel,
    ball_matches_symmetrized,
    bgn_slope,
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
from .eisenstein import (
    InconsistentSystemError,
    QExpansion,
    classical_limit_check,
    eisenstein_expansion,
    eisenstein_value,
    express_in_E4_E6,
    monomial_basis,
    zetaq_even_consistency,
    zetaq_even_in_basis,
)

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
