"""Dynamics on Riemannian charts.

Extended tensor fields over the tangent and cotangent bundles with
covariant spatial, fiber and time derivatives; Newtonian, Lagrangian
and Hamiltonian equations of motion with interchangeable integrators;
fiberwise spherically symmetric scalars, shift forces and their
conformal reduction; the Legendre transform with closed-form
Hamiltonians for the builtin Lagrangian catalog; and named verification
suites tying all of it together.

The usual entry points:

    chart = riemdyn.builtin_chart("sphere2d")
    lag = riemdyn.catalog_lagrangian("kinetic")
    traj = riemdyn.integrate_lagrangian(chart, lag, q0, config)
    report = riemdyn.run_suite("identities")
"""

from .errors import (
    ChartDomainError,
    ConfigError,
    DegenerateLagrangianError,
    DegenerateWError,
    EvalDomainError,
    FDStepError,
    ForceSingularError,
    InsufficientSamplesError,
    MissingAccelError,
    NegativeNormError,
    NonConvergenceError,
    NonFiniteStateError,
    NumericOverflowError,
    ParseError,
    RankMismatchError,
    RiemdynError,
    SingularAError,
    SingularMetricError,
    SingularSetError,
    UnboundVariableError,
    ZeroVelocityError,
)
from .expression import (
    ScalarExpr,
    coordinate_expr,
    evaluate,
    evaluate_env,
    gradient,
    parse,
    profile_expr,
    unparse,
)
from .manifold import (
    FD_TOLERANCE,
    ManifoldChart,
    builtin_chart,
    christoffel_at,
    conformal_rescale,
    inverse_metric_at,
    inverse_metric_partials_at,
    lower_index,
    metric_at,
    metric_partials_at,
    raise_index,
    speed,
)
from .extended_fields import (
    CotangentPoint,
    CurveSample,
    ExtendedField,
    TangentPoint,
    TensorComponents,
    chain_rule_check,
    check_analytic_partials,
    contract,
    covariant_time_derivative,
    fiber_partials,
    kinetic_energy_scalar,
    lowered_velocity_field,
    metric_tensor_field,
    momentum_kinetic_scalar,
    potential_scalar,
    spatial_gradient,
    velocity_gradient,
    velocity_gradient_lowered,
    velocity_vector_field,
    x_partials,
)
from .dynamics_newton import (
    ForceField,
    IntegratorConfig,
    Trajectory,
    force_from_potential,
    geodesic_system,
    integrate,
    integrate_ode,
    max_coordinate_distance,
    newtonian_rhs,
    write_trajectory_csv,
)
from .normal_shift import (
    ConformalCheckReport,
    NormalShiftForce,
    RadialProfile,
    conformal_force_field,
    conformal_geodesic_check,
    conformal_kinetic_profile,
    conformal_shift_profile,
    force_conformal,
    force_normal_shift,
    force_spherical,
    h_function,
    kinetic_profile,
    normal_shift_force_field,
    phi_profile,
    profile_from_expression,
    projectors,
    spherical_force_field,
    symmetric_a_matrix,
    symmetric_b_matrix,
    zero_velocity_floor,
)
from .dynamics_lagrange import (
    Lagrangian,
    RegularityReport,
    a_matrix,
    catalog_lagrangian,
    classical_el_residual,
    conformal_kinetic_lagrangian,
    el_residual,
    fiberwise_phi_lagrangian,
    force_from_lagrangian,
    integrate_lagrangian,
    kinetic_lagrangian,
    kinetic_minus_potential,
    lagrangian_force_field,
    momentum_field,
    regularity,
)
from .dynamics_hamilton import (
    CotangentTrajectory,
    Hamiltonian,
    IdentityReport,
    LegendreContext,
    b_matrix,
    covariant_momentum_residual,
    energy_field,
    energy_h,
    hamilton_rhs,
    hamiltonian_from_lagrangian,
    identity_suite,
    integrate_hamiltonian,
    legendre_forward,
    legendre_inverse,
    write_cotangent_csv,
)
from .verification import (
    SUITE_NAMES,
    run_suite,
    sample_cotangent_states,
    sample_tangent_states,
    sphere_geodesic_oracle,
    synthetic_curve_samples,
)

__version__ = "0.1.0"
