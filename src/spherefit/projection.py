"""Closed-form mapping between spheres and their projected image ellipses.

A sphere in front of a pinhole camera projects to an ellipse.  For a sphere
with camera-frame center (X, Y, Z) and radius R the silhouette ellipse is

    a_e     = f * R * sqrt(X^2 + Y^2 + Z^2 - R^2) / (Z^2 - R^2)
    b_e     = f * R / sqrt(Z^2 - R^2)
    center  = (px + f*Z*X / (Z^2 - R^2),  py + f*Z*Y / (Z^2 - R^2))
    theta   = atan2(Y, X), folded into [-pi/2, pi/2)

Because the ellipse center is displaced outward from the true image of the
sphere center (the eccentricity effect), the inverse map comes in two parts:
``corrected_center`` recovers the true image of the center from the ellipse
parameters alone, and once triangulation has fixed the center's depth Z,
``radius_from_depth`` gives R = Z * b_e / sqrt(b_e^2 + f^2).

Each closed form is written once, as a function that is elementwise over
numpy arrays so that the batched kernels call it directly: ``silhouette``
(sphere -> ellipse), ``corrected_center`` (ellipse -> image of the center),
``pinhole`` (camera-frame point -> pixel) and ``radius_from_depth``.  These
leave the depth check to the caller; ``project_sphere`` is the checked
one-sphere form of ``silhouette``.

Conventions used throughout the package:

* world -> camera transform is ``x_cam = rot @ x_world + t``;
* all image quantities are in pixels, the focal length included;
* the camera is unit-aspect and zero-skew (K has only f, px, py).

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateProjection

# Relative margin by which the sphere depth must exceed the radius before the
# silhouette formulas are considered well-conditioned.
DEPTH_MARGIN = 1e-9

_ROT_TOL = 1e-9

# ``is_psd`` rescales a matrix whose largest entry exceeds this power of two.
_PSD_RESCALE_ABOVE = 2.0 ** 1000

#: Largest magnitude of an ellipse's center coordinates and semi-axes, and of
#: a camera's f, px and py, in pixels; its inverse is the least semi-minor
#: length.  The gate multiplies and divides up to four such lengths, so
#: values far outside would overflow its closed forms.
PIXEL_LIMIT = 2.0 ** 200

#: Largest magnitude of a camera's t and a tie point's xyz, in world units:
#: pair ranking squares ray lengths, which overflow near 2^510.
WORLD_LIMIT = 2.0 ** 300


def fold_axis_angle(theta: float) -> float:
    """Fold an axis orientation into [-pi/2, pi/2); axes are pi-periodic."""
    return (theta + math.pi / 2.0) % math.pi - math.pi / 2.0


def _as_matrix(value, shape, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def is_psd(m: np.ndarray):
    """Symmetric PSD test of a matrix, or of each matrix of a stack (..., k, k):
    symmetric to round-off and no eigenvalue of the symmetric part below
    -1e-9 * trace.  Returns a bool for a matrix and a bool array of shape
    (...) for a stack.

    A non-finite matrix is reported False.  A matrix whose off-diagonal
    entries are all exactly zero is its own symmetric part and its
    eigenvalues are its diagonal, so it is tested on its diagonal alone; the
    others go to one batched eigensolver call.
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[-1]
    flat = m.reshape(-1, k * k)
    diagonal = ~flat[:, ~np.eye(k, dtype=bool).ravel()].any(axis=1)
    psd = np.zeros(len(flat), dtype=bool)
    # Row i holds the entries (i, i) of the diagonal matrices.  A matrix
    # whose largest entry exceeds 2^1000 is scaled by 2^-1000, and its
    # tolerance with it, so that no sum below overflows; scaling by a power
    # of two changes none of the comparisons.
    d = flat[:, ::k + 1].T.compress(diagonal, axis=1)
    d[:, np.abs(d).max(axis=0) > _PSD_RESCALE_ABOVE] *= 1.0 / _PSD_RESCALE_ABOVE
    with np.errstate(invalid="ignore"):  # inf - inf in a matrix that fails anyway
        psd[diagonal] = np.isfinite(d).all(axis=0) & (d.min(axis=0) >= -1e-9 * _trace(d))
    full = np.flatnonzero(~diagonal)
    full = full[np.isfinite(flat[full]).all(axis=1)]
    if len(full):
        s = flat[full].reshape(-1, k, k)
        scale = 1.0 + np.abs(s).max(axis=(1, 2))
        big = scale > _PSD_RESCALE_ABOVE
        s[big] *= 1.0 / _PSD_RESCALE_ABOVE
        scale[big] *= 1.0 / _PSD_RESCALE_ABOVE
        s_t = s.swapaxes(1, 2)
        psd[full] = ((np.abs(s - s_t).max(axis=(1, 2)) <= 1e-9 * scale)
                     & (np.linalg.eigvalsh(0.5 * (s + s_t))[:, 0]
                        >= -1e-9 * _trace(np.diagonal(s, axis1=1, axis2=2).T)))
    return bool(psd[0]) if m.ndim == 2 else psd.reshape(m.shape[:-2])


def _trace(diagonals: np.ndarray) -> np.ndarray:
    """The traces of matrices whose diagonal entry (i, i) is row i of
    ``diagonals``, summed left to right as np.trace sums one matrix's."""
    return functools.reduce(operator.add, diagonals)


def rotation_error(rot: np.ndarray):
    """||R^T R - I||, the Frobenius norm, of a rotation or of each rotation
    of a stack (..., 3, 3); inf or nan where R^T R overflows."""
    with np.errstate(all="ignore"):
        d = rot.swapaxes(-1, -2) @ rot - np.eye(3)
        return np.sqrt((d * d).sum(axis=(-2, -1)))


def _trusted(cls, fields: dict):
    """An instance of ``cls`` holding ``fields`` (every field, by name) as
    given, without ``__post_init__``: for a caller that has checked them."""
    self = object.__new__(cls)
    self.__dict__ = fields
    return self


def _require_finite(owner: str, **values) -> None:
    """Raise ValueError unless every float or array value is finite."""
    for name, value in values.items():
        # On these small arrays a Python loop is cheaper than a numpy call.
        if not (math.isfinite(value) if isinstance(value, float)
                else all(map(math.isfinite, value.ravel().tolist()))):
            raise ValueError(f"{owner} {name} must be finite")


def _require_world(owner: str, name: str, xyz: np.ndarray) -> None:
    """Raise ValueError unless each entry of ``xyz`` lies within ``WORLD_LIMIT``;
    NaN does not."""
    if not all(abs(x) <= WORLD_LIMIT for x in xyz.tolist()):
        raise ValueError(f"{owner} {name} must lie within 2^300 world units, got {xyz.tolist()}")


@dataclass
class CameraView:
    """One calibrated image: interior orientation plus world-to-camera pose.

    ``rot`` maps world coordinates into the camera frame and ``t`` is the
    world origin expressed in camera coordinates, i.e.
    ``x_cam = rot @ x_world + t``.  ``iop_cov`` is the optional 3x3
    covariance of (px, py, f) in pixels^2.
    """

    image_id: str
    f: float
    px: float
    py: float
    rot: np.ndarray
    t: np.ndarray
    iop_cov: Optional[np.ndarray] = None
    _trusted = classmethod(_trusted)

    def __post_init__(self):
        self.f = float(self.f)
        self.px = float(self.px)
        self.py = float(self.py)
        self.rot = _as_matrix(self.rot, (3, 3), "rot")
        self.t = np.asarray(self.t, dtype=float).reshape(3)
        _require_finite("camera", f=self.f, px=self.px, py=self.py, rot=self.rot, t=self.t)
        if not self.f > 0.0:
            raise ValueError(f"focal length must be positive, got {self.f}")
        for name, value in (("f", self.f), ("px", self.px), ("py", self.py)):
            if not abs(value) <= PIXEL_LIMIT:
                raise ValueError(f"camera {name} must lie within 2^200 px, got {value}")
        _require_world("camera", "t", self.t)
        err = rotation_error(self.rot)
        if not err < _ROT_TOL:
            raise ValueError(f"rot is not orthonormal (||R^T R - I|| = {err:.3e})")
        if np.linalg.det(self.rot) < 0.0:
            raise ValueError("rot must be a proper rotation (det +1)")
        if self.iop_cov is not None:
            self.iop_cov = _as_matrix(self.iop_cov, (3, 3), "iop_cov")
            _require_finite("camera", iop_cov=self.iop_cov)
            if not is_psd(self.iop_cov):
                raise ValueError("iop_cov must be symmetric positive semi-definite")

    @property
    def calibration_matrix(self) -> np.ndarray:
        """3x3 pinhole calibration matrix (unit aspect, zero skew)."""
        return np.array([[self.f, 0.0, self.px],
                         [0.0, self.f, self.py],
                         [0.0, 0.0, 1.0]])

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rot.T @ self.t


def camera_arrays(views: Sequence[CameraView]):
    """Kernel camera arguments of n views: f, px, py, rot and t."""
    iop = np.array([(v.f, v.px, v.py) for v in views]).reshape(-1, 3)
    return (iop[:, 0], iop[:, 1], iop[:, 2], np.array([v.rot for v in views]).reshape(-1, 3, 3),
            np.array([v.t for v in views]).reshape(-1, 3))


@dataclass
class EllipseObservation:
    """A detected ellipse: center, semi-axes, axis angle, optional covariance.

    ``cov`` is the 4x4 covariance of (a_e, b_e, x_ce, y_ce) in pixels^2.
    ``theta`` is normalized into [-pi/2, pi/2) on construction.
    """

    image_id: str
    ellipse_id: str
    x_ce: float
    y_ce: float
    a_e: float
    b_e: float
    theta: float
    cov: Optional[np.ndarray] = None
    _trusted = classmethod(_trusted)

    def __post_init__(self):
        self.x_ce = float(self.x_ce)
        self.y_ce = float(self.y_ce)
        self.a_e = float(self.a_e)
        self.b_e = float(self.b_e)
        self.theta = float(self.theta)
        _require_finite("ellipse", x_ce=self.x_ce, y_ce=self.y_ce, a_e=self.a_e,
                        b_e=self.b_e, theta=self.theta)
        minor_ok, major_ok, in_range = ellipse_checks(self.x_ce, self.y_ce, self.a_e, self.b_e)
        if not minor_ok:
            raise ValueError(f"semi-minor length must be at least 2^-200 px, got {self.b_e}")
        if not major_ok:
            raise ValueError(
                f"semi-major length {self.a_e} is smaller than semi-minor {self.b_e}")
        if not in_range:
            raise ValueError(f"ellipse center and semi-axes must lie within 2^200 px, got "
                             f"center ({self.x_ce}, {self.y_ce}), semi-major {self.a_e}")
        self.theta = fold_axis_angle(self.theta)
        if self.cov is not None:
            self.cov = _as_matrix(self.cov, (4, 4), "cov")
            if not is_psd(self.cov):
                # is_psd rejects non-finite entries too; name them first.
                _require_finite("ellipse", cov=self.cov)
                raise ValueError("cov must be symmetric positive semi-definite")


_NO_COV = np.zeros((4, 4))


class EllipseTable(NamedTuple):
    """Ellipses in column form, one row each: the (image_id, ellipse_id)
    ``keys``, the (n, 4) ``params`` (x_ce, y_ce, a_e, b_e), the folded
    ``theta`` (n,) and the (n, 4, 4) ``cov`` block of (a_e, b_e, x_ce, y_ce)
    with zeros where ``has_cov`` is False.  ``fileio.read_ellipse_table``
    reads one from a file; ``of`` gathers one from checked objects."""

    keys: list
    params: np.ndarray
    theta: np.ndarray
    cov: np.ndarray
    has_cov: np.ndarray

    @classmethod
    def of(cls, ellipses: Sequence[EllipseObservation]) -> "EllipseTable":
        values = np.fromiter(itertools.chain.from_iterable(
            [(e.x_ce, e.y_ce, e.a_e, e.b_e, e.theta) for e in ellipses]), float,
            5 * len(ellipses)).reshape(-1, 5)
        cov = np.concatenate([np.empty((0, 4))] + [_NO_COV if e.cov is None else e.cov
                                                   for e in ellipses]).reshape(-1, 4, 4)
        return cls([(e.image_id, e.ellipse_id) for e in ellipses], values[:, :4], values[:, 4],
                   cov, np.array([e.cov is not None for e in ellipses], dtype=bool))

    def take(self, rows) -> "EllipseTable":
        """The table of ``rows``, a sequence of row indices."""
        rows = np.asarray(rows, dtype=np.intp)
        return EllipseTable(list(map(self.keys.__getitem__, rows.tolist())), self.params[rows],
                            self.theta[rows], self.cov[rows], self.has_cov[rows])


def ellipse_checks(x_ce, y_ce, a_e, b_e):
    """(semi-minor length at least 1 / ``PIXEL_LIMIT``, semi-major length no
    shorter, center and semi-major length within ``PIXEL_LIMIT``) of finite
    parameters; elementwise over numpy arrays as well as scalars."""
    return (b_e >= 1.0 / PIXEL_LIMIT, a_e >= b_e,
            (abs(x_ce) <= PIXEL_LIMIT) & (abs(y_ce) <= PIXEL_LIMIT) & (a_e <= PIXEL_LIMIT))


@dataclass
class Sphere:
    """A sphere with a coordinate-frame tag: "world" or "camera:<image_id>"."""

    center: np.ndarray
    radius: float
    frame: str = "world"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.radius = float(self.radius)
        _require_finite("sphere", center=self.center, radius=self.radius)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @classmethod
    def of_rows(cls, centers: np.ndarray, radii: np.ndarray) -> list["Sphere"]:
        """World spheres of the rows of ``centers`` (m, 3) and ``radii`` (m,)."""
        if not (np.isfinite(centers).all() and np.isfinite(radii).all() and (radii > 0.0).all()):
            return [cls(c, r) for c, r in zip(centers, radii)]  # raises at the first bad row
        return [_trusted(cls, {"center": center, "radius": radius, "frame": "world"})
                for center, radius in zip(centers, radii.tolist())]


def world_to_camera(point, view: CameraView) -> np.ndarray:
    """Rigid transform of a world point into the camera frame."""
    return view.rot @ np.asarray(point, dtype=float).reshape(3) + view.t


def pinhole(cam, f, px, py):
    """Pixel (u, v) of camera-frame points ``cam`` (..., 3).

    Elementwise over numpy arrays; the caller checks that the depth is
    positive.
    """
    return px + f * cam[..., 0] / cam[..., 2], py + f * cam[..., 1] / cam[..., 2]


def silhouette(x, y, z, r, f, px, py):
    """(x_ce, y_ce, a_e, b_e) of the silhouette of a camera-frame sphere.

    Elementwise over numpy arrays as well as scalars; the caller checks
    that the depth clears the radius.
    """
    d2 = z * z - r * r
    u = x * x + y * y
    b_e = f * r / np.sqrt(d2)
    # a_e written as b_e * sqrt(u/d2 + 1) so a_e >= b_e holds exactly in
    # floating point; algebraically identical to f*R*sqrt(u + d2)/d2.
    a_e = b_e * np.sqrt(u / d2 + 1.0)
    return px + f * z * x / d2, py + f * z * y / d2, a_e, b_e


def project_sphere(sphere: Sphere, f: float, px: float, py: float,
                   image_id: str = "", ellipse_id: str = "") -> EllipseObservation:
    """Silhouette ellipse of a camera-frame sphere (noise-free, no covariance).

    Raises DegenerateProjection unless the depth clears the radius by a
    relative margin of ``DEPTH_MARGIN``; otherwise the Z^2 - R^2 denominators
    are ill-conditioned.
    """
    x, y, z = sphere.center
    r = sphere.radius
    if z <= r * (1.0 + DEPTH_MARGIN):
        raise DegenerateProjection(
            f"sphere depth {z:.6g} does not clear radius {r:.6g}")
    x_ce, y_ce, a_e, b_e = silhouette(x, y, z, r, f, px, py)
    u = x * x + y * y
    theta = fold_axis_angle(math.atan2(y, x)) if u > 0.0 else 0.0
    return EllipseObservation(image_id=image_id, ellipse_id=ellipse_id,
                              x_ce=x_ce, y_ce=y_ce, a_e=a_e, b_e=b_e, theta=theta)


def project_sphere_into_view(sphere: Sphere, view: CameraView,
                             ellipse_id: str = "") -> EllipseObservation:
    """Transform a world-frame sphere into a view and project it."""
    cam = world_to_camera(sphere.center, view)
    cam_sphere = Sphere(cam, sphere.radius, frame=f"camera:{view.image_id}")
    return project_sphere(cam_sphere, view.f, view.px, view.py,
                          image_id=view.image_id, ellipse_id=ellipse_id)


def corrected_center(x_ce, y_ce, b_e, f, px, py):
    """True image (x, y) of the sphere center, from the ellipse parameters
    alone; elementwise over numpy arrays as well as scalars.

    This is NOT the ellipse center: the perspective silhouette of a sphere is
    displaced outward from the image of its center, and the displacement is a
    closed-form function of the semi-minor length and the focal length.
    """
    b2 = b_e * b_e
    f2 = f * f
    w = f2 + b2
    return (f2 * x_ce + b2 * px) / w, (f2 * y_ce + b2 * py) / w


def radius_from_depth(z_c, b_e, f):
    """Sphere radius from its camera-frame depth and the semi-minor length.

    Elementwise over numpy arrays as well as scalars; the caller checks
    that the depth is positive.
    """
    return z_c * b_e / np.hypot(b_e, f)
