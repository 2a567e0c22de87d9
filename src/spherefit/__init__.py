"""spherefit: sphere reconstruction and metric scale from calibrated images.

The package recovers the center and radius of spheres (calibration targets,
hemispherical structures) from the ellipses they project into two or more
calibrated images, selects the most informative image pair of a network,
statistically separates sphere silhouettes from other detected ellipses,
matches silhouettes between images, and fixes the metric scale of a
reconstruction from spheres of known radius.  A synthetic harness validates
every closed form by round trip and Monte-Carlo experiment.
"""

from .errors import (
    ConfigInfeasible,
    DegenerateGeometry,
    DegenerateProjection,
    EmptyInput,
    InvalidAnchor,
    InvalidCovariance,
    NoAdmissiblePair,
    SphereFitError,
    UnknownAnchor,
)
from .gate import (
    DEFAULT_K,
    DEFAULT_SIGMA_PX,
    GateReport,
    classify_spherical,
    classify_view,
    default_ellipse_cov,
    tau,
    tau_jacobian,
)
from .match import (
    MatchCandidate,
    MatchResult,
    ViewRecord,
    fundamental_matrix,
    match_ellipses,
)
from .netselect import (
    DEFAULT_MIN_ANGLE,
    ImageNetwork,
    PairScore,
    TiePoint,
    anchor_network,
    best_pair,
)
from .pipeline import (
    gate_views,
    gather_ellipses,
    reconstruct_gated,
    reconstruct_subset,
    view_records,
)
from .projection import (
    CameraView,
    EllipseObservation,
    Sphere,
    fold_axis_angle,
    project_sphere,
    project_sphere_into_view,
    radius_from_depth,
    world_to_camera,
)
from .reconstruct import (
    ScaleResult,
    SphereModel,
    apply_scale,
    metric_scale,
    reconstruct_sphere,
    reconstruct_tracks,
    triangulate_center,
)
from .synth import (
    SceneConfig,
    SyntheticScene,
    TrialStats,
    generate_scene,
    monte_carlo_views,
    p_rmse,
    perturb_observations,
)

__version__ = "0.1.0"

__all__ = [
    "CameraView", "EllipseObservation", "Sphere", "SphereModel", "ScaleResult",
    "GateReport", "ImageNetwork", "TiePoint", "PairScore", "MatchCandidate",
    "MatchResult", "SceneConfig", "SyntheticScene", "TrialStats",
    "world_to_camera", "project_sphere", "project_sphere_into_view",
    "radius_from_depth",
    "fold_axis_angle", "triangulate_center",
    "reconstruct_sphere", "reconstruct_tracks",
    "metric_scale", "apply_scale", "tau", "tau_jacobian",
    "classify_spherical", "classify_view", "default_ellipse_cov",
    "best_pair", "anchor_network", "fundamental_matrix",
    "ViewRecord", "match_ellipses",
    "gather_ellipses", "gate_views", "view_records", "reconstruct_gated",
    "reconstruct_subset",
    "generate_scene", "perturb_observations", "p_rmse", "monte_carlo_views",
    "SphereFitError", "DegenerateProjection", "DegenerateGeometry",
    "EmptyInput", "InvalidAnchor", "UnknownAnchor", "InvalidCovariance",
    "NoAdmissiblePair", "ConfigInfeasible",
    "DEFAULT_K", "DEFAULT_SIGMA_PX", "DEFAULT_MIN_ANGLE",
]
