"""Metropolis-adjusted Langevin sampling and diagnostics at desk scale.

The package covers target construction (Gaussian, Bayesian logistic and
sigmoid regression, smoothed zero-one loss), the leapfrog/acceptance core,
three Markov chains (MALA, constrained MALA, random-walk Metropolis),
higher-order regularity estimation, grid-based ground truth with TV /
Cheeger / conductance measurement, and a reproducible experiment harness
with a CLI.
"""

__version__ = "0.1.0"

from .targets import (  # noqa: F401
    ConstraintSet,
    Dataset,
    TargetModel,
    annulus,
    load_dataset,
    make_gaussian,
    make_logistic_regression,
    make_sigmoid_regression,
    make_smoothed_zero_one,
    precondition,
    recommended_schedule,
    sample_sphere_dataset,
    save_dataset,
)
from .integrator import (  # noqa: F401
    NumericFailure,
    leapfrog,
    log_accept_energy,
    log_accept_proposal_form,
)
from .chains import (  # noqa: F401
    ChainConfig,
    ChainTrace,
    EnsembleResult,
    extract_minimizer,
    run_chains,
    run_constrained_mala,
    run_ensemble,
    run_mala,
    run_rwm,
    theorem1_step_size,
)
from .grids import (  # noqa: F401
    EmptySupportError,
    GridDistribution,
    grid_truth,
    histogram,
    tv_distance,
)
from .regularity import (  # noqa: F401
    EstimationFailed,
    ExitProbabilityEstimate,
    GoodSetParams,
    GradientBoundEstimate,
    RegularityReport,
    build_regularity_report,
    constraint_exit_estimate,
    estimate_c3,
    estimate_c4,
    estimate_gradient_bound,
    good_set_check,
    incoherence,
    theorem3_bounds,
)
from .diagnostics import (  # noqa: F401
    AcceptanceStats,
    FitFailed,
    HansonWrightReport,
    ScalingFit,
    acceptance_stats,
    cheeger_1d,
    conductance,
    energy_error_scaling,
    hanson_wright_check,
    hitting_time,
    mixing_time_estimate,
    transition_matrix_1d,
)
from .harness import (  # noqa: F401
    ExperimentSpec,
    RunReport,
    ScalingStudyResult,
    SpecValidationError,
    parse_spec,
    run_experiment,
    scaling_study,
)
