"""Epsilon-regularization of ill-posed Cauchy problems.

The package solves the perturbed normal equation (T*T + eps I) u = T* f
+ eps h for abstract dense operators, classifies solvability from the
boundedness of the eps-family, and provides the fully explicit spectral
machinery for the perturbed mixed problems on the unit disk (gradient and
Cauchy-Riemann operators), together with the closed-form 1D example used
as analytic ground truth.
"""

from .bessel import bessel_i, bessel_i_prime
from .core import (
    DiscreteOperator,
    PerturbedSolution,
    RegularizationPath,
    Verdict,
    load_matrix,
    parse_matrix_text,
    run_path,
    solve_perturbed,
)
from .diskbasis import (
    BasisFunction,
    DiracOperatorKind,
    apply_operator,
    check_helmholtz,
    enumerate_modes,
    nonvanishing_check,
    symbol_defect,
)
from .errors import EpsregError, InputError, NumericError
from .ode1d import Ode1dProblem, convergence_report, exact_solution, perturbed_solution
from .variational import (
    ArcSpec,
    CauchyProblemSpec,
    DiskQuadrature,
    Field,
    build_seed_system,
    cauchy_pipeline,
    lift_cauchy_datum,
    solve_mixed_boundary_series,
    solve_perturbed_galerkin,
    trial_space_for_epsilon,
)

__version__ = "0.1.0"
