"""Computations on the nine two-dimensional constant-curvature geometries.

Everything is parametrized by a pair of real labels (k1, k2): k1 sets the
curvature of the space of points, k2 the signature of the metric.  The
package provides label-dependent trigonometry, the family of Lie algebras
and motion groups, the homogeneous spaces with their charts and metrics,
duality transformations, Poisson-Lie structures and the first-order data
of the quantum deformation, plus a deterministic self-verification sweep
and a command-line front end.
"""

from .algebra import (
    BASIS,
    GENERATOR_NAMES,
    NORMALIZED_PAIRS,
    AlgebraElement,
    GeometryLabel,
    GeometryName,
    KappaPair,
    bracket,
    casimir_coeffs,
    classify,
    kappa_from_kinematics,
    structure_tensor,
)
from .checks import (
    CHECK_NAMES,
    DEFAULT_TOLERANCES,
    CheckResult,
    SweepConfig,
    kappa_grid_from_name,
    run_all,
    run_check,
    run_suite,
    suite_summary,
)
from .dualities import (
    DUALITIES,
    DualityName,
    apply_duality,
    duality_kappa,
    duality_matrix,
)
from .errors import (
    BadSpeedError,
    ChartDomainError,
    ConfigError,
    ConvergenceError,
    DeformationDomainError,
    DegenerateMetricError,
    GeometryError,
    OffCurveError,
    OffSurfaceError,
    PoleError,
    ProjectionError,
    UndefinedDualityError,
)
from .group import (
    GroupCoordinates,
    GroupElement,
    act,
    ambient_defect,
    coords_from_group,
    exp_one_param,
    expm_series,
    group_from_coords,
    metric_matrix,
    rep,
    rep_basis,
)
from .ktrig import ck, ck_array, half_period, kinv, kinv_array, sk, sk_array, tk, vk
from .poisson import (
    CoisotropyVerdict,
    DeformationKind,
    InvariantFields,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    invariant_fields_numeric,
    invariant_vector_fields,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
    sklyanin_closed,
    sklyanin_numeric,
)
from .quantum import (
    coassociativity_defect,
    coproduct_classical,
    coproduct_rep,
    deformation_scale,
    deformed_relation_defect,
    first_order_delta,
)
from .spaces import (
    CHART_NAMES,
    Ambient,
    MetricValue,
    ParallelI,
    ParallelII,
    Polar,
    convert,
    from_ambient,
    gaussian_curvature,
    killing_fields,
    laplace_beltrami_apply,
    metric_main,
    metric_subsidiary,
    to_ambient,
    to_ambient_batch,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
