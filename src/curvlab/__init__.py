"""curvlab: exact curvature of the Gauduchon connection family on
six-dimensional Lie algebras with invariant complex structures."""

__version__ = "0.1.0"

from .scalars import GaussianRational, Rat, gr
from .tensors import MultiTensor, contract
from .algebra import LieAlgebraCx, exterior_d, validate_lie_algebra
from .metric import (
    HermitianData,
    MetricParams,
    MetricValidationError,
    build_metric,
    classify_metric,
    torsion_forms,
)
from .connection import (
    ChristoffelTable,
    ConnectionSpec,
    CurvatureTensor,
    RicciData,
    christoffel,
    curvature,
    curvature_of,
    ricci_and_scalar,
    torsion_and_bianchi_defect,
)
from .symmetry import (
    BTensor,
    FlatnessResult,
    KahlerLikeReport,
    flatness_check,
    gray_check_lc,
    kahler_like_check,
)
from .catalog import (
    FAMILY_IDS,
    FamilyDomainError,
    FamilySpec,
    MetricLocus,
    instantiate,
    special_metric_loci,
)
from .goldens import ORACLE_FAMILIES, OracleCase, appendix_oracle, compare_components
from .verify import SamplePlan, Scoreboard, structural_sweep, theorem_suite, verify_identity_zero
from .flow import (
    FlowState,
    FlowTrace,
    flow_state_from_hermitian,
    hermitian_deviation,
    integrate_flow,
    ricci_rhs,
)
