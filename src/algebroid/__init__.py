"""Numerical Riemannian geometry on Lie algebroid charts.

The package validates algebroid structure data given by analytic
expressions, builds the Levi-Civita A-connection of a fiber metric,
integrates geodesic / parallel-transport / Jacobi equations, cross-checks
the geodesic flow against its Hamiltonian realization on the dual Poisson
structure, and evaluates the vertical/horizontal splitting machinery
(fundamental tensors, connector, leaf metric, divergence of the geodesic
field, submersion curvature identities).
"""

from .charts import (
    AlgebroidChart,
    AVector,
    SectionField,
    ValidationReport,
    anchor_apply,
    bracket_sections,
    validate,
)
from .errors import CheckFailure, InputError
from .expressions import EvalDomainError, EvalResult, Expression, ParseError, parse
from .hamiltonian import (
    DualPoint,
    euler_identity_residual,
    hamiltonian_field,
    poisson_matrix,
)
from .metric import (
    Christoffel,
    MetricError,
    MetricField,
    christoffel,
    covariant_derivative,
    curvature,
    fiber_inner,
    sectional_curvature,
)
from .paths import (
    APath,
    DomainExitError,
    FiberCurve,
    NonFiniteError,
    NonGeodesicError,
    derivative_along,
    dexp,
    energy_along,
    exp_map,
    geodesic_integrate,
    geodesic_rhs,
    jacobi_solve,
    parallel_transport,
    transport_frame,
)
from .splitting import (
    OneillTensors,
    SplitFrame,
    connector,
    divergence_XE,
    divergence_terms,
    horizontal_lift,
    leaf_metric,
    leaf_metric_matrix,
    oneill_curvature_check,
    oneill_H_apply,
    oneill_tensors,
)
from .variations import (
    VariationGrid,
    curvature_commutation_residual,
    delta,
    first_variation_residual,
    jacobi_from_geodesic_pencil,
    make_fixed_endpoint_homotopy,
    make_geodesic_pencil,
    solve_transverse,
)
from . import catalog

__version__ = "0.1.0"
