"""Exception types shared across the package."""


class SphereFitError(Exception):
    """Base class for all library-specific errors."""


class DegenerateProjection(SphereFitError):
    """The sphere-camera geometry admits no valid silhouette ellipse
    (sphere behind, containing, or grazing the camera center)."""


class DegenerateGeometry(SphereFitError):
    """View geometry is rank-deficient: coincident camera centers,
    coincident rays, or a triangulated point at infinity."""


class EmptyInput(SphereFitError):
    """An operation that needs at least one element received none."""


class InvalidAnchor(SphereFitError):
    """A metric-scale anchor has a nonpositive or non-finite radius."""


class UnknownAnchor(SphereFitError):
    """A metric-scale anchor references a sphere id that does not exist."""


class InvalidCovariance(SphereFitError):
    """A covariance matrix is not symmetric positive semi-definite."""


class NoAdmissiblePair(SphereFitError):
    """No image pair clears the minimum convergence-angle floor."""


class ConfigInfeasible(SphereFitError):
    """A synthetic scene recipe places a sphere behind or inside a camera."""
