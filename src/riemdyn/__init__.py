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
)
from .manifold import (
    ManifoldChart,
    builtin_chart,
    christoffel_at,
    conformal_rescale,
    inverse_metric_at,
    lower_index,
    metric_at,
    metric_partials_at,
    raise_index,
    speed,
)
from .extended_fields import (
    CotangentPoint,
    ExtendedField,
    TangentPoint,
    chain_rule_check,
    covariant_time_derivative,
    fiber_partials,
    kinetic_energy_scalar,
    lowered_velocity_field,
    momentum_kinetic_scalar,
    spatial_gradient,
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
    write_trajectory_csv,
)
from .normal_shift import (
    RadialProfile,
    conformal_force_field,
    conformal_kinetic_profile,
    conformal_shift_profile,
    h_function,
    kinetic_profile,
    normal_shift_force_field,
    phi_profile,
    profile_from_expression,
    projectors,
    spherical_force_field,
    symmetric_b_matrix,
    zero_velocity_floor,
)
from .dynamics_lagrange import (
    Lagrangian,
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
)
from .dynamics_hamilton import (
    Hamiltonian,
    IdentityReport,
    LegendreContext,
    covariant_momentum_residual,
    energy_field,
    energy_h,
    hamilton_rhs,
    hamiltonian_from_lagrangian,
    identity_suite,
    integrate_hamiltonian,
    legendre_forward,
    legendre_inverse,
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
