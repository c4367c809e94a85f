"""smoothcircle: the Gauss circle sum restricted to smooth numbers.

Exact evaluation of sum r(n) over y-smooth n <= x by two independent
algorithms, the saddle-point and closed-form asymptotic routes to the same
quantity, the Rankin upper bound, and numerical verification helpers for
the supporting prime sums and special functions.
"""

__version__ = "0.1.0"

from .config import Config, load_config
from .counting import (
    ExactCount,
    chi4,
    exact_circle_sum,
    lattice_r,
    lattice_r_table,
    r_over_4,
)
from .dickman import (
    DickmanTable,
    build_dickman_table,
    exp_integral,
    rho,
    rho_saddle_form,
    xi,
    xi_prime,
)
from .errors import (
    CacheFormatError,
    ConvergenceError,
    DomainError,
    ResourceBudgetError,
    SmoothCircleError,
)
from .estimators import (
    ComparisonRow,
    DifferenceReport,
    PerronResult,
    closed_form_estimate,
    compare_grid,
    dickman_estimate,
    difference_check,
    perron_verify,
    rankin_bound,
    saddle_point_estimate,
)
from .euler import PhiDerivatives, h_ratio_profile, h_value, phi_derivatives
from .prime_sums import (
    PrimeSumReport,
    lambda_cos_sum,
    lambda_partial_sum,
    mertens_product,
    theta,
    theta_chi4,
    weighted_prime_sum,
)
from .primes import PrimeTable, factorize, prime_table
from .saddle import SaddleResult, alpha_bounds_check, alpha_xi_approx, solve_alpha

__all__ = [
    "Config",
    "load_config",
    "ExactCount",
    "chi4",
    "exact_circle_sum",
    "lattice_r",
    "lattice_r_table",
    "r_over_4",
    "DickmanTable",
    "build_dickman_table",
    "exp_integral",
    "rho",
    "rho_saddle_form",
    "xi",
    "xi_prime",
    "CacheFormatError",
    "ConvergenceError",
    "DomainError",
    "ResourceBudgetError",
    "SmoothCircleError",
    "ComparisonRow",
    "DifferenceReport",
    "PerronResult",
    "closed_form_estimate",
    "compare_grid",
    "dickman_estimate",
    "difference_check",
    "perron_verify",
    "rankin_bound",
    "saddle_point_estimate",
    "PhiDerivatives",
    "h_ratio_profile",
    "h_value",
    "phi_derivatives",
    "PrimeSumReport",
    "lambda_cos_sum",
    "lambda_partial_sum",
    "mertens_product",
    "theta",
    "theta_chi4",
    "weighted_prime_sum",
    "PrimeTable",
    "factorize",
    "prime_table",
    "SaddleResult",
    "alpha_bounds_check",
    "alpha_xi_approx",
    "solve_alpha",
]
