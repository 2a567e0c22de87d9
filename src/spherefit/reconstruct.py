"""Multi-view sphere recovery and metric scale definition.

Given matched silhouette ellipses of one sphere in n >= 2 calibrated views,
the sphere is recovered in closed form: correct each ellipse center for the
eccentricity displacement, triangulate the corrected centers to get the world
center, transform that center into each camera frame, read off one radius
estimate per view from the depth and semi-minor length, and average.  With
known real-world radii of one or more spheres the global scale of the
reconstruction follows from a least-squares radius ratio.

The recovery runs in array form: one private kernel takes m spheres seen in
n views each as (m, n, ...) arrays and does the correction, a stacked SVD
triangulation, the depth check, the per-view radii, the spread and the
residual in one pass.  Rows whose geometry degenerates are flagged with a
reason instead of raising, so a batch of two-view hypotheses in matching or
of tracks in the sweep is never stopped by one bad row.  ``reconstruct_sphere``
is the one-row call and raises for its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry, DegenerateProjection, EmptyInput, InvalidAnchor
from .projection import CameraView, EllipseObservation, Sphere, corrected_center

_RANK_TOL = 1e-9
_INFINITY_TOL = 1e-12


@dataclass
class SphereModel:
    """A reconstructed sphere plus per-view diagnostics.

    ``per_view_radii`` holds one (image_id, radius) entry per contributing
    view; the model radius is their mean.  ``radius_spread`` is
    max |R_i - R| and ``triangulation_residual`` the RMS pixel distance
    between the corrected ellipse centers and the reprojected world center.
    """

    sphere: Sphere
    per_view_radii: list[tuple[str, float]]
    radius_spread: float
    triangulation_residual: float
    scale_applied: Optional[float] = None


@dataclass
class ScaleResult:
    """Metric scale factor (real units per model unit) and its fit residual."""

    s_r: float
    residual_rmse: float


#: Per-row outcome of the batched kernel.
OK, RANK_DEFICIENT, AT_INFINITY, BEHIND_CAMERA = range(4)


def _triangulate(f, px, py, rot, t, u, v):
    """Linear homogeneous least-squares triangulation of m points, each seen
    at pixel (u, v) in n views; u and v are (m, n), the camera arrays
    broadcast against them.  Returns the (m, 3) points and a reason per row.

    Pixels are reduced to normalized image coordinates before stacking the
    projection constraints, which keeps each design matrix well conditioned.
    """
    m, n = u.shape
    xn = (u - px) / f
    yn = (v - py) / f
    pose = np.concatenate([rot, t[..., None]], axis=-1)
    # Rows x_n * P_3 - P_1 and y_n * P_3 - P_2 of each view, in view order.
    rows = np.stack([xn, yn], axis=-1)[..., None] * pose[..., 2:, :] - pose[..., :2, :]
    a = rows.reshape(m, 2 * n, 4)
    a = a / np.linalg.norm(a, axis=-1)[..., None]
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    x = vt[:, -1]
    rank_deficient = s[:, 2] <= _RANK_TOL * s[:, 0]
    at_infinity = np.abs(x[:, 3]) <= _INFINITY_TOL * np.linalg.norm(x[:, :3], axis=1)
    reason = np.where(rank_deficient, RANK_DEFICIENT, np.where(at_infinity, AT_INFINITY, OK))
    return x[:, :3] / x[:, 3:], reason


class _Recovery(NamedTuple):
    """Kernel output for m spheres in n views; rows with reason != OK are
    not usable."""

    center: np.ndarray    # (m, 3) world centers
    cam: np.ndarray       # (m, n, 3) the centers in each camera frame
    radii: np.ndarray     # (m, n) per-view radius estimates
    radius: np.ndarray    # (m,) mean radius
    spread: np.ndarray    # (m,) max |R_i - R|
    residual: np.ndarray  # (m,) RMS pixel residual of the corrected centers
    reason: np.ndarray    # (m,) OK or the degeneracy found first


def _recover(f, px, py, rot, t, x_ce, y_ce, b_e) -> _Recovery:
    """Recover m spheres from their ellipses in n views each.

    ``x_ce``, ``y_ce`` and ``b_e`` are (m, n); the camera arrays ``f``,
    ``px``, ``py`` (n or (m, n)), ``rot`` (..., n, 3, 3) and ``t``
    (..., n, 3) broadcast against them.
    """
    u, v = corrected_center(x_ce, y_ce, b_e, f, px, py)
    with np.errstate(divide="ignore", invalid="ignore"):
        center, reason = _triangulate(f, px, py, rot, t, u, v)
        cam = (rot @ center[:, None, :, None])[..., 0] + t
        depth = cam[..., 2]
        reason = np.where((reason == OK) & (depth <= 0.0).any(axis=1), BEHIND_CAMERA, reason)
        radii = depth * b_e / np.hypot(b_e, f)
        radius = radii.mean(axis=1)
        spread = np.abs(radii - radius[:, None]).max(axis=1)
        du = px + f * cam[..., 0] / depth - u
        dv = py + f * cam[..., 1] / depth - v
        residual = np.sqrt(np.mean(du * du + dv * dv, axis=1))
    return _Recovery(center=center, cam=cam, radii=radii, radius=radius,
                     spread=spread, residual=residual, reason=reason)


def _cameras(views: Sequence[CameraView]):
    """Kernel camera arguments of n views: f, px, py, rot and t."""
    iop = np.array([(v.f, v.px, v.py) for v in views]).reshape(-1, 3)
    return (iop[:, 0], iop[:, 1], iop[:, 2], np.array([v.rot for v in views]).reshape(-1, 3, 3),
            np.array([v.t for v in views]).reshape(-1, 3))


def _model(rec: _Recovery, row: int, image_ids: Sequence[str]) -> SphereModel:
    return SphereModel(sphere=Sphere(rec.center[row].copy(), float(rec.radius[row])),
                       per_view_radii=list(zip(image_ids, rec.radii[row].tolist())),
                       radius_spread=float(rec.spread[row]),
                       triangulation_residual=float(rec.residual[row]))


def _raise_if_degenerate(reason: int) -> None:
    if reason == RANK_DEFICIENT:
        raise DegenerateGeometry(
            "triangulation design matrix is rank-deficient (coincident rays?)")
    if reason == AT_INFINITY:
        raise DegenerateGeometry("triangulated point lies at infinity")


def triangulate_center(observations: Sequence[tuple[CameraView, np.ndarray]]) -> np.ndarray:
    """Linear homogeneous least-squares triangulation of one world point.

    ``observations`` pairs each view with a pixel measurement of the point.
    Raises DegenerateGeometry when the stacked constraints are rank-deficient
    (coincident rays, identical camera centers) or the solution lies at
    infinity.
    """
    if len(observations) < 2:
        raise ValueError("triangulation needs at least two views")
    pixels = np.array([np.asarray(p, dtype=float).reshape(2) for _, p in observations])
    with np.errstate(divide="ignore", invalid="ignore"):
        center, reason = _triangulate(*_cameras([v for v, _ in observations]),
                                      pixels[None, :, 0], pixels[None, :, 1])
    _raise_if_degenerate(int(reason[0]))
    return center[0]


def reconstruct_sphere(matched: Sequence[tuple[CameraView, EllipseObservation]]) -> SphereModel:
    """Recover one world-frame sphere from matched ellipses in n >= 2 views.

    Steps: eccentricity-correct each ellipse center, triangulate the
    corrected centers, transform the world center into each camera frame,
    estimate one radius per view from depth and semi-minor length, and take
    their mean.  Deterministic; raises DegenerateGeometry from the
    triangulation and DegenerateProjection when the triangulated center falls
    at or behind any contributing camera.
    """
    if len(matched) < 2:
        raise ValueError("sphere reconstruction needs at least two views")
    ell = np.array([(e.x_ce, e.y_ce, e.b_e) for _, e in matched]).T[:, None]  # 3 x (1, n)
    rec = _recover(*_cameras([v for v, _ in matched]), *ell)
    reason = int(rec.reason[0])
    _raise_if_degenerate(reason)
    if reason == BEHIND_CAMERA:
        view = matched[int(np.argmax(rec.cam[0, :, 2] <= 0.0))][0]
        raise DegenerateProjection(
            f"triangulated center has nonpositive depth in view {view.image_id!r}")
    return _model(rec, 0, [v.image_id for v, _ in matched])


def reconstruct_tracks(records: Sequence, tracks: Sequence[dict],
                       ) -> list[Optional[SphereModel]]:
    """``reconstruct_sphere`` for many tracks at once, one kernel pass per
    track length.  A track maps image ids to ellipse ids, picked by row out of
    the views' ``match.ViewRecord``s in ``records`` order.  Returns one model
    per track, None where the track's geometry degenerates."""
    image_ids = [r.view.image_id for r in records]
    f, px, py, rot, t = _cameras([r.view for r in records])
    params = np.concatenate([np.empty((0, 4))] + [r.params for r in records])
    keys = [(v, e.ellipse_id) for v, r in enumerate(records) for e in r.ellipses]
    rows = {key: row for row, key in enumerate(keys)}  # key -> row of params
    picks = [[(v, rows[v, track[i]]) for v, i in enumerate(image_ids) if i in track]
             for track in tracks]
    models: list[Optional[SphereModel]] = [None] * len(tracks)
    by_length: dict = {}
    for index, pick in enumerate(picks):
        if len(pick) < 2:
            raise ValueError("sphere reconstruction needs at least two views")
        by_length.setdefault(len(pick), []).append(index)
    for indices in by_length.values():
        pick = np.array([picks[i] for i in indices])  # (m, n, 2): view, row in params
        v, ell = pick[..., 0], params[pick[..., 1]]
        rec = _recover(f[v], px[v], py[v], rot[v], t[v], ell[..., 0], ell[..., 1], ell[..., 3])
        for row, index in enumerate(indices):
            if rec.reason[row] == OK:
                models[index] = _model(rec, row, [image_ids[j] for j, _ in picks[index]])
    return models


def metric_scale(anchors: Sequence[tuple[float, float]]) -> ScaleResult:
    """Scale factor from (real_radius, estimated_radius) anchor pairs.

    One anchor gives the plain ratio; several give the least-squares norm
    ratio sqrt(sum R_real^2 / sum R_est^2).  The residual is the RMSE of
    R_real - s * R_est over the anchors, in real units.
    """
    anchors = [(float(rr), float(rw)) for rr, rw in anchors]
    if not anchors:
        raise EmptyInput("no anchors supplied")
    for rr, rw in anchors:
        if rr <= 0.0 or rw <= 0.0:
            raise InvalidAnchor(f"anchor radii must be positive, got ({rr}, {rw})")
    if len(anchors) == 1:
        s = anchors[0][0] / anchors[0][1]
    else:
        s = math.sqrt(sum(rr * rr for rr, _ in anchors)
                      / sum(rw * rw for _, rw in anchors))
    residual = math.sqrt(float(np.mean([(rr - s * rw) ** 2 for rr, rw in anchors])))
    return ScaleResult(s_r=s, residual_rmse=residual)


def apply_scale(obj, s_r: float):
    """Scaled copy of a Sphere, SphereModel, or array of points.

    Lengths (centers, radii, coordinates) are multiplied by ``s_r``;
    rotations and pixel-space diagnostics are untouched.
    """
    if not s_r > 0.0:
        raise ValueError(f"scale factor must be positive, got {s_r}")
    if isinstance(obj, Sphere):
        return Sphere(obj.center * s_r, obj.radius * s_r, frame=obj.frame)
    if isinstance(obj, SphereModel):
        prior = obj.scale_applied
        return SphereModel(
            sphere=apply_scale(obj.sphere, s_r),
            per_view_radii=[(i, r * s_r) for i, r in obj.per_view_radii],
            radius_spread=obj.radius_spread * s_r,
            triangulation_residual=obj.triangulation_residual,
            scale_applied=s_r if prior is None else prior * s_r)
    return np.asarray(obj, dtype=float) * s_r
