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

The gate works on many ellipses at once: ``classify_view`` reads the
arrays of an ``EllipseTable`` (the (n, 4) parameters and the (n, 4, 4)
covariance block with its has-cov mask) and the interior orientation of
every row, computes tau, its gradient and its variance as array
expressions, and returns the tau, sigma_tau and accepted arrays; the
pipeline calls it once per ellipse table.  ``classify_spherical`` is its
one-ellipse call and returns a ``GateReport``.  Ellipse covariances are
checked once, when an ``EllipseObservation`` or the table of an ellipse file
is built; only the raw interior-orientation covariance is checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidCovariance
from .projection import PIXEL_LIMIT, EllipseObservation, EllipseTable, is_psd

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
    """Diagonal 4x4 covariance of (a_e, b_e, x_ce, y_ce) at a sigma in [0, ``PIXEL_LIMIT``]."""
    if not 0.0 <= sigma_px <= PIXEL_LIMIT:
        raise ValueError(f"pixel sigma must be finite, >= 0 and at most 2^200 px, got {sigma_px}")
    return np.eye(4) * float(sigma_px) ** 2


def _ratio(a, b, dx, dy, v):
    """1 - tau = (b_e/a_e) * sqrt(u/v + 1) from the semi-axes, the center
    offsets dx = x_ce - px and dy = y_ce - py, and v = f^2 + b_e^2."""
    return (b / a) * np.sqrt((dx * dx + dy * dy) / v + 1.0)


def tau(e: EllipseObservation, f: float, px: float, py: float) -> float:
    """Spherical-ellipse defect; zero exactly for true sphere silhouettes."""
    return float(1.0 - _ratio(e.a_e, e.b_e, e.x_ce - px, e.y_ce - py, f * f + e.b_e * e.b_e))


def _tau_and_gradient(a, b, x, y, f, px, py, iop=True):
    """tau and its gradient wrt (a_e, b_e, x_ce, y_ce, px, py, f),
    elementwise over arrays of parameters; the gradient's 7 components form
    its last axis, or its first 4 when ``iop`` is False."""
    dx = x - px
    dy = y - py
    a2, b2 = a * a, b * b
    v = f * f + b2
    ratio = _ratio(a, b, dx, dy, v)
    t = 1.0 - ratio
    # m = 1 - tau = ratio > 0.  Above tau = 1/2, 1 - tau carries the rounding
    # of tau, more than the ratio's own, and is 0 once the ratio falls below
    # 1e-16; there m is the ratio itself.
    m = np.where(t > 0.5, ratio, 1.0 - t)
    common = 1.0 / (a2 * m * v)
    d_a = m / a
    d_b = -m * f * f / (b * v) - b ** 3 * common
    nb2 = -b2  # -b * b, exactly
    d_x = nb2 * dx * common
    d_y = nb2 * dy * common
    return t, (np.stack([d_a, d_b, d_x, d_y, -d_x, -d_y, f * (a2 * m * m - b2) * common], axis=-1)
               if iop else np.array((d_a, d_b, d_x, d_y)).T)


def tau_jacobian(e: EllipseObservation, f: float, px: float, py: float) -> np.ndarray:
    """Closed-form gradient of ``tau`` wrt (a_e, b_e, x_ce, y_ce, px, py, f).

    Validated against central finite differences in the test suite; the
    derivation uses m = 1 - tau = (b_e/a_e) * sqrt(u/v + 1) with
    u = (x_ce-px)^2 + (y_ce-py)^2 and v = f^2 + b_e^2.
    """
    return _tau_and_gradient(e.a_e, e.b_e, e.x_ce, e.y_ce, f, px, py)[1]


def classify_view(params: np.ndarray, cov: np.ndarray, has_cov: np.ndarray, f, px, py,
                  iop_cov: Optional[np.ndarray] = None,
                  k: float = DEFAULT_K, default_sigma: float = DEFAULT_SIGMA_PX,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate ellipses at |tau| <= k*sigma in one array pass.

    ``params`` (n, 4) holds (x_ce, y_ce, a_e, b_e) per ellipse and ``cov``
    (n, 4, 4) their covariances, used where ``has_cov`` is True, else
    ``default_sigma`` pixels on every parameter: the arrays of an
    ``EllipseTable``.  ``f``, ``px`` and ``py`` are scalars or one per row,
    and ``iop_cov`` one 3x3 matrix or one per row (n, 3, 3).  Returns the
    tau, sigma_tau and accepted arrays, one entry per row.  The variable
    order is (a_e, b_e, x_ce, y_ce | px, py, f), and the ellipse and
    interior-orientation blocks are uncorrelated.  Missing ``iop_cov`` means
    exactly known interior orientation; raises InvalidCovariance unless each
    distinct matrix of it is a symmetric PSD 3x3 matrix.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"threshold multiplier must be positive and finite, got {k}")
    ellipse_covs = cov if has_cov.all() and 0.0 <= default_sigma <= PIXEL_LIMIT else np.where(
        has_cov[:, None, None], cov, default_ellipse_cov(default_sigma))  # raises if invalid
    x, y, a, b = params[:, 0], params[:, 1], params[:, 2], params[:, 3]
    t, jacobians = _tau_and_gradient(a, b, x, y, f, px, py, iop=iop_cov is not None)
    # J Sigma J^T per row, Sigma block-diagonal: the row's ellipse covariance
    # and its interior-orientation one.
    j_e = jacobians[:, :4]
    var = np.einsum("ni,nij,nj->n", j_e, ellipse_covs, j_e)
    if iop_cov is not None:
        iop_cov = np.asarray(iop_cov, dtype=float)
        if iop_cov.shape not in ((3, 3), (len(t), 3, 3)):
            raise InvalidCovariance(
                f"IOP covariance must be 3x3 or one per row, got {iop_cov.shape}")
        if not is_psd(np.unique(iop_cov.reshape(-1, 9), axis=0).reshape(-1, 3, 3)).all():
            raise InvalidCovariance("IOP covariance is not symmetric PSD")
        j_i = jacobians[:, 4:]
        var = var + np.einsum("ni,nij,nj->n", j_i, np.broadcast_to(iop_cov, (len(t), 3, 3)), j_i)
    sigma_tau = np.sqrt(np.maximum(var, 0.0))
    return t, sigma_tau, np.abs(t) <= k * sigma_tau


def classify_spherical(e: EllipseObservation, f: float, px: float, py: float,
                       iop_cov: Optional[np.ndarray] = None,
                       k: float = DEFAULT_K) -> GateReport:
    """Accept or reject one ellipse as a sphere silhouette at |tau| <= k*sigma.

    The ellipse uses its own covariance, else the conservative pixel-level
    default; missing ``iop_cov`` means exactly known interior orientation.
    """
    row = EllipseTable.of([e])
    t, sigma_tau, accepted = classify_view(row.params, row.cov, row.has_cov, f, px, py,
                                           iop_cov=iop_cov, k=k)
    return GateReport(tau=float(t[0]), sigma_tau=float(sigma_tau[0]), k=float(k),
                      accepted=bool(accepted[0]))
