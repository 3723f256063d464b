"""Numerical laboratory for distribution-dependent backward equations driven
by Gaussian processes, solved through the variance-clock transfer to an
auxiliary Brownian problem."""

__version__ = "0.1.0"

from .drivers import (
    GaussianDriverSpec,
    PathBatch,
    VarianceClock,
    build_clock,
    covariance,
    sample_paths,
)
from .measures import (
    GaussianLaw1D,
    LawFeatures,
    entropy_functional,
    gaussian_kl,
    gaussian_w2,
)
from .scenario import (
    GeneratorSpec,
    ScenarioSpec,
    TerminalSpec,
    eval_generator,
    eval_terminal,
    generator_order_probe,
    law_features,
    lipschitz_audit,
    terminal_order_probe,
)
from .solver import (
    ParticleCloud,
    SolutionField,
    SolverConfig,
    representation_solve,
    representation_solve_stack,
    short_horizon_table,
    solve_auxiliary,
    solve_auxiliary_stack,
    transfer_evaluate,
)
from .theorems import (
    TheoremReport,
    comparison_check,
    converse_comparison_check,
    lsi_check,
    representation_limit_check,
    stability_check,
    t2_check,
    transport_constants,
    z_bound_check,
)
from .wick import (
    StepFunctionH,
    bsde_residual,
    riemann_wick_integral,
    s_transform_factorization_check,
    s_transform_mc,
    wick_product_first_chaos,
)

__all__ = [name for name in dir() if not name.startswith("_")]
