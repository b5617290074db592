"""heatmetric: evolving metrics from heat kernels and optimal transport.

The library builds finite metric-measure spaces and discretized model
geometries (circle, flat torus, round sphere), runs heat semigroups on them
(spectral on graphs, analytic kernels on the geometries), solves exact and
entropic quadratic optimal transport, and from these assembles two objects:

* the evolving metric g_t(v, v) on model geometries (velocity potentials via
  the weighted Poisson equation), whose small-time slope recovers
  -2 Ric(v, v);
* the coupled distance dtilde_t and intrinsic distance d_t on finite spaces
  (heat-kernel embedding into Wasserstein space), together with contraction,
  continuity and refinement-stability reports.
"""

from .geometry import (
    CircleGeometry,
    GeometryError,
    SphereGeometry,
    TorusGeometry,
    TruncationError,
)
from .spaces import (
    DisconnectedGraph,
    FiniteMetricMeasureSpace,
    NonpositiveEdgeLength,
    NonpositiveWeight,
    SpaceError,
    build_space,
    model_circle,
    model_torus,
)
from .heat import (
    HeatError,
    HeatStructure,
    circle_kernel,
    entropy,
    heat_apply,
    heat_injectivity_margin,
    heat_kernel_matrix,
    spectral_decompose,
    sphere_kernel,
)
from .transport import (
    DualPotentials,
    SinkhornNonConvergence,
    SolverFailure,
    TransportError,
    TransportPlan,
    W2Result,
    c_transform,
    dual_gap,
    w2_exact,
    w2_sinkhorn,
)
from .flow import (
    ContractionReport,
    FlowDistanceMatrix,
    FlowError,
    RefinementReport,
    TimeContinuityReport,
    ZonalMeasure,
    contraction_report,
    dt_arc_matrix,
    dtilde_matrix,
    dtilde_pairs,
    flow_matrices,
    refinement_stability,
    sphere_contraction_report,
    time_continuity_report,
    w2_zonal,
)
from .tangent import (
    MetricSpeedReport,
    NonpositiveDensity,
    NonzeroMeanSource,
    TangencyReport,
    TangentError,
    TangentPlan,
    TangentState,
    UncertifiedSolve,
    UnresolvedTime,
    VelocityPotential,
    gt_derivative_bochner,
    metric_gt,
    metric_speed_check,
    solve_weighted_poisson,
    tangency_experiment,
    tangent_state,
)

__version__ = "0.1.0"
