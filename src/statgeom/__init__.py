"""statgeom: numerical verification of statistical-manifold geometry.

Coordinate-chart metrics, affine connections and almost product structures
are given as expression fields with exact first and second derivatives; from
these the package derives conjugate connections, curvature tensors, Fisher
and α-connection geometry, and O'Neill submersion tensors, and certifies or
refutes the structural identities relating them at deterministically sampled
points.
"""

from .expr import (
    EvaluationError,
    ParseError,
    ScalarField,
    fd_check,
    format_expression,
    parse_expression,
)
from .geometry import (
    AdjointStructure,
    ChartSpec,
    CheckResult,
    ConjugateConnection,
    DEFAULT_POINT_COUNT,
    DEFAULT_TOLERANCE,
    DegeneratePlaneError,
    ExpressionField,
    LeviCivitaConnection,
    ManifoldSpec,
    MetricError,
    MetricField,
    check_conjugate_involution,
    check_dual_curvature_identity,
    check_levi_civita_average,
    check_statistical_structure,
    fit_kurose_constant,
    metric_signature,
    sample_points,
    sectional_curvature,
    statistical_curvature_at,
)
from .product import (
    check_almost_product,
    check_pairing_identities,
    check_para_kahler_like,
    check_space_form,
    conjugate_parallelism_check,
    fit_space_form_constant,
    verify_flatness_theorem,
)
from .expfam import (
    AlphaConnection,
    ExpFamilyModel,
    builtin_model,
    exp_para_structures,
)
from .submersion import (
    OneillArrays,
    SubmersionError,
    SubmersionSpec,
    check_fundamental_tensor_identities,
    check_para_holomorphic,
    check_semi_riemannian_submersion,
    check_statistical_submersion,
    induced_fiber_manifold,
    isometric_fibers_residual,
    oneill_arrays,
    verify_submersion_theorems,
)
from .manifest import Manifest, ManifestError, build_context, load_manifest, parse_manifest
from .report import VerificationReport, canonical_json, emit_report
from .suite import CHECKS, DEFAULT_TOLERANCES, run_suite
from .fixtures import (
    curved_product_manifest,
    fixture_ids,
    flat_product_manifest,
    load_fixture,
    model_manifest,
    registry_manifests,
    submersion_manifest,
)

__version__ = "0.1.0"
