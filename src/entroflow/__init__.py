"""Numerical laboratory for entropy-transport inequalities along diffusion flows.

Measures and metrics (W2, relative entropy), linear-SDE closed forms,
Euler-Maruyama couplings, mean-field particle systems, and a catalog of
named inequality experiments with JSON/CSV reporting.
"""

from .measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    MeasureError,
    empirical_from_points,
    gaussian_sample,
    second_moment,
)
from .transport import (
    CouplingPlan,
    TransportError,
    optimal_coupling_discrete,
    w2_empirical_1d,
    w2_empirical_ot,
    w2_exact,
    w2_gaussian,
)
from .divergence import (
    DiscreteDistribution,
    DivergenceError,
    interpolation_bound_check,
    kl_discrete,
    kl_gaussian,
    kl_knn,
)
from .dynamics import (
    BlowUpError,
    BridgeSpec,
    CoefficientField,
    CoupledPair,
    DiniModulus,
    DynamicsError,
    PathEnsemble,
    SemimartingaleWitness,
    bridge_path,
    euler_maruyama,
    exp_moment_certificate,
    synchronous_pair,
    time_grid,
)
from .oracles import (
    LinearSDESpec,
    MismatchBound,
    OracleError,
    bridge_law_linear,
    gaussian_fisher,
    linear_sde_law,
    linear_sde_laws,
    mismatch_bound,
    mismatch_field,
    score_gaussian,
)
from .meanfield import (
    MVCoefficientField,
    evolve_particles,
    flow_map,
    w2_stability_experiment,
)
from .inequalities import (
    MismatchCase,
    PositiveTestFunction,
    bridge_decomposition_experiment,
    bridge_epsilon_sweep,
    entropy_cost_experiment,
    gaussian_log_power_integral,
    log_harnack_coefficient,
    log_harnack_experiment,
    meanfield_entropy_cost_experiment,
    mismatch_singularity_experiment,
    talagrand_experiment,
)
from .reports import ExperimentReport, classify, validate_report_dict, write_plot_csv

__version__ = "0.1.0"
