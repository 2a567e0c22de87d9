"""Statistical test deciding whether an ellipse is the projection of a sphere.

Sphere silhouettes satisfy an exact identity between the axis ratio, the
offset of the ellipse center from the principal point, the semi-minor length
and the focal length:

    a_e = b_e * sqrt( ((x_ce-px)^2 + (y_ce-py)^2) / (f^2 + b_e^2) + 1 )

The gate statistic is the normalized defect

    tau = 1 - (b_e/a_e) * sqrt( ((x_ce-px)^2 + (y_ce-py)^2) / (f^2+b_e^2) + 1 )

which is exactly zero for noise-free sphere silhouettes.  With measurement
noise, first-order variance propagation through the closed-form Jacobian
turns the identity into the acceptance test |tau| <= k * sigma_tau.

The gate works on a whole view at once: ``classify_view`` takes the view's
ellipses as one (n, 4) parameter array and computes tau, its gradient and its
variance as array expressions.  ``classify_spherical`` is its one-ellipse
call.  Ellipse covariances are checked once, when an ``EllipseObservation``
is built; only the raw interior-orientation covariance is checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidCovariance
from .projection import EllipseObservation, is_psd

#: Conservative per-parameter detector noise assumed when an ellipse carries
#: no covariance (pixels, applied to a_e, b_e, x_ce and y_ce alike).
DEFAULT_SIGMA_PX = 0.5

#: Threshold multiplier giving ~95% acceptance under the normality assumption.
DEFAULT_K = 2.0


@dataclass
class GateReport:
    """Outcome of the spherical-ellipse test for one ellipse."""

    tau: float
    sigma_tau: float
    k: float
    accepted: bool


def default_ellipse_cov(sigma_px: float = DEFAULT_SIGMA_PX) -> np.ndarray:
    """Diagonal 4x4 covariance of (a_e, b_e, x_ce, y_ce) at a common sigma."""
    if not 0.0 <= sigma_px < math.inf:
        raise ValueError(f"pixel sigma must be finite and >= 0, got {sigma_px}")
    return np.eye(4) * float(sigma_px) ** 2


def _tau(a, b, x, y, f, px, py):
    dx = x - px
    dy = y - py
    return 1.0 - (b / a) * np.sqrt((dx * dx + dy * dy) / (f * f + b * b) + 1.0)


def tau(e: EllipseObservation, f: float, px: float, py: float) -> float:
    """Spherical-ellipse defect; zero exactly for true sphere silhouettes."""
    return float(_tau(e.a_e, e.b_e, e.x_ce, e.y_ce, f, px, py))


def _tau_and_gradient(a, b, x, y, f, px, py):
    """tau and its gradient wrt (a_e, b_e, x_ce, y_ce, px, py, f),
    elementwise over arrays of parameters; the gradient's 7 components form
    its last axis."""
    t = _tau(a, b, x, y, f, px, py)
    dx = x - px
    dy = y - py
    v = f * f + b * b
    m = 1.0 - t  # = (b/a) * sqrt(u/v + 1) > 0
    common = 1.0 / (a * a * m * v)
    d_a = m / a
    d_b = -m * f * f / (b * v) - b ** 3 * common
    d_x = -b * b * dx * common
    d_y = -b * b * dy * common
    d_f = f * (a * a * m * m - b * b) * common
    return t, np.stack([d_a, d_b, d_x, d_y, -d_x, -d_y, d_f], axis=-1)


def tau_jacobian(e: EllipseObservation, f: float, px: float, py: float) -> np.ndarray:
    """Closed-form gradient of ``tau`` wrt (a_e, b_e, x_ce, y_ce, px, py, f).

    Validated against central finite differences in the test suite; the
    derivation uses m = 1 - tau = (b_e/a_e) * sqrt(u/v + 1) with
    u = (x_ce-px)^2 + (y_ce-py)^2 and v = f^2 + b_e^2.
    """
    return _tau_and_gradient(e.a_e, e.b_e, e.x_ce, e.y_ce, f, px, py)[1]


def _variances(jacobians: np.ndarray, ellipse_covs, iop_cov) -> np.ndarray:
    """First-order variance of tau for n ellipses: J Sigma J^T per row, with
    a block-diagonal Sigma of one 4x4 ellipse covariance per row and one
    shared 3x3 interior-orientation covariance, None when the interior
    orientation is exact.  The ellipse covariances were checked when they
    were built; the interior-orientation one is checked here."""
    ellipse_covs = np.asarray(ellipse_covs, dtype=float)
    j_e = jacobians[:, :4]
    var = np.einsum("ni,nij,nj->n", j_e, ellipse_covs, j_e)
    if iop_cov is None:
        return var
    iop_cov = np.asarray(iop_cov, dtype=float)
    if iop_cov.shape != (3, 3):
        raise InvalidCovariance(f"IOP covariance must be 3x3, got {iop_cov.shape}")
    if not is_psd(iop_cov):
        raise InvalidCovariance("IOP covariance is not symmetric PSD")
    j_i = jacobians[:, 4:]
    return var + np.einsum("ni,ij,nj->n", j_i, iop_cov, j_i)


def classify_view(ellipses: Sequence[EllipseObservation], f: float, px: float, py: float,
                  iop_cov: Optional[np.ndarray] = None, k: float = DEFAULT_K,
                  default_sigma: float = DEFAULT_SIGMA_PX) -> list[GateReport]:
    """Gate all ellipses of one view at |tau| <= k*sigma in one array pass.

    Returns one report per ellipse, in input order.  Each ellipse uses its
    own covariance, else ``default_sigma`` pixels on every parameter.  The
    variable order is (a_e, b_e, x_ce, y_ce | px, py, f), and the ellipse
    and interior-orientation blocks are uncorrelated.  Missing ``iop_cov``
    means exactly known interior orientation; raises InvalidCovariance
    unless it is a symmetric PSD 3x3 matrix.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"threshold multiplier must be positive and finite, got {k}")
    fallback = default_ellipse_cov(default_sigma)
    if not ellipses:
        return []
    ellipse_covs = [e.cov if e.cov is not None else fallback for e in ellipses]
    a, b, x, y = np.array([(e.a_e, e.b_e, e.x_ce, e.y_ce) for e in ellipses]).T
    t, jacobians = _tau_and_gradient(a, b, x, y, f, px, py)
    var = _variances(jacobians, ellipse_covs, iop_cov)
    sigma_tau = np.sqrt(np.maximum(var, 0.0))
    accepted = np.abs(t) <= k * sigma_tau
    return [GateReport(tau=ti, sigma_tau=si, k=float(k), accepted=ai)
            for ti, si, ai in zip(t.tolist(), sigma_tau.tolist(), accepted.tolist())]


def classify_spherical(e: EllipseObservation, f: float, px: float, py: float,
                       iop_cov: Optional[np.ndarray] = None,
                       k: float = DEFAULT_K) -> GateReport:
    """Accept or reject one ellipse as a sphere silhouette at |tau| <= k*sigma.

    The ellipse uses its own covariance, else the conservative pixel-level
    default; missing ``iop_cov`` means exactly known interior orientation.
    """
    return classify_view([e], f, px, py, iop_cov=iop_cov, k=k)[0]
