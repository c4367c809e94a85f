"""smoothcircle: the Gauss circle sum restricted to smooth numbers.

Exact evaluation of sum r(n) over y-smooth n <= x by two independent
algorithms, the saddle-point and closed-form asymptotic routes to the same
quantity, the Rankin upper bound, the Dickman function and its saddle
form, and the weighted prime sum with its main term.
"""

__version__ = "0.1.0"

from .config import Config, load_config
from .counting import ExactCount, exact_circle_sum, lattice_r_table
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
)
from .euler import PhiDerivatives, h_value, phi_derivatives
from .prime_sums import PrimeSumReport, weighted_prime_sum
from .primes import PrimeTable, prime_table
from .saddle import SaddleResult, solve_alpha

__all__ = [
    "Config",
    "load_config",
    "ExactCount",
    "exact_circle_sum",
    "lattice_r_table",
    "DickmanTable",
    "build_dickman_table",
    "exp_integral",
    "rho",
    "rho_saddle_form",
    "xi",
    "xi_prime",
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
    "PhiDerivatives",
    "h_value",
    "phi_derivatives",
    "PrimeSumReport",
    "weighted_prime_sum",
    "PrimeTable",
    "prime_table",
    "SaddleResult",
    "solve_alpha",
]
