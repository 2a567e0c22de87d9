"""Multi-view sphere recovery and metric scale definition.

Given matched silhouette ellipses of one sphere in n >= 2 calibrated views,
the sphere is recovered in closed form: correct each ellipse center for the
eccentricity displacement, triangulate the corrected centers to get the world
center, transform that center into each camera frame, read off one radius
estimate per view from the depth and semi-minor length, and average.  With
known real-world radii of one or more spheres the global scale of the
reconstruction follows from a least-squares radius ratio.

The recovery runs in array form.  One private solve takes m spheres seen in
n views each as (m, n) arrays of corrected centers and semi-minor lengths,
triangulates each by one batched ``eigh`` of its views' summed 4x4 normal
matrices (an SVD where those are near degenerate), and does the depth check
and the per-view radii; it serves matching, whose solved hypotheses are the
pipeline's two-view spheres, ``reconstruct_tracks`` and ``reconstruct_sphere``.
Only rows that become a ``SphereModel`` get the diagnostics (radius spread,
pixel residual).  Degenerate rows get a reason; ``reconstruct_sphere`` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry, DegenerateProjection, EmptyInput, InvalidAnchor
from .projection import (CameraView, EllipseObservation, Sphere, camera_arrays,
                         corrected_center, pinhole, radius_from_depth)

_RANK_TOL = 1e-9
_EIGH_TOL = 1e-4
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


def _dlt_rows(f, pp, pose, uv):
    """Unit-length rows x_n * P_3 - P_1 and y_n * P_3 - P_2 (..., 2, 4) of each
    pixel ``uv`` (..., 2) of a camera ``f``, ``pp`` (..., 2), P = [rot | t]
    (..., 3, 4), in normalized image coordinates to keep them well conditioned."""
    rows = ((uv - pp) / f[..., None])[..., None] * pose[..., 2:, :] - pose[..., :2, :]
    return rows / np.sqrt(np.add.reduce(rows * rows, axis=-1))[..., None]


def _normal(f, pp, pose, uv):
    """D^T D of each pixel's ``_dlt_rows`` D: (..., 4, 4)."""
    rows = _dlt_rows(f, pp, pose, uv)
    return np.swapaxes(rows, -1, -2) @ rows


class _Solve(NamedTuple):
    """Solve of m spheres in n views, with the corrected centers ``u``, ``v``
    (m, n) and the intrinsics ``f``, ``px``, ``py`` (n or (m, n)) it was
    given; rows with reason != OK are not usable."""

    center: np.ndarray    # (m, 3) world centers
    cam: np.ndarray       # (m, n, 3) the centers in each camera frame
    radii: np.ndarray     # (m, n) per-view radius estimates
    radius: np.ndarray    # (m,) mean radius
    reason: np.ndarray    # (m,) OK or the degeneracy found first
    u: np.ndarray
    v: np.ndarray
    f: np.ndarray
    px: np.ndarray
    py: np.ndarray


def _solve(f, px, py, pose, u, v, b_e, normal=None) -> _Solve:
    """Recover m spheres from the corrected centers ``u``, ``v`` and the
    semi-minor lengths ``b_e`` (m, n) of their ellipses in n views each; the
    camera arrays ``f``, ``px``, ``py`` (n or (m, n)) and ``pose`` [rot | t]
    (..., n, 3, 4) broadcast against them.  A center is the linear
    least-squares triangulation: the eigenvector of the smallest eigenvalue of
    ``normal`` (m, 4, 4), the views' ``_normal`` summed (built when None).  That
    squares the condition number, so an SVD of the rows solves and judges the
    rank of rows with lambda_2 <= _EIGH_TOL * lambda_4.  The caller ignores
    divide and invalid warnings."""
    if normal is None:
        normal = _normal(f, np.stack((px, py), -1), pose, np.stack((u, v), -1)).sum(axis=1)
    w, vec = np.linalg.eigh(normal)
    x = vec[..., 0]
    ill = ~(w[:, 1] > _EIGH_TOL * w[:, 3])  # NaN eigenvalues go to the SVD too
    fallback = ill.any()
    if fallback:
        a = _dlt_rows(f, np.stack((px, py), -1), pose, np.stack((u, v), -1))[ill]
        _, s, vt = np.linalg.svd(a.reshape(-1, 2 * u.shape[1], 4), full_matrices=False)
        x[ill] = vt[:, -1]
    center = x[:, :3] / x[:, 3:]
    cam = (pose[..., :3] @ center[:, None, :, None])[..., 0] + pose[..., 3]
    depth = cam[..., 2]
    at_infinity = np.abs(x[:, 3]) <= _INFINITY_TOL * np.sqrt((x[:, :3] * x[:, :3]).sum(axis=1))
    reason = np.where(at_infinity, AT_INFINITY, BEHIND_CAMERA * (depth <= 0.0).any(axis=1))
    if fallback:
        reason[np.flatnonzero(ill)[s[:, 2] <= _RANK_TOL * s[:, 0]]] = RANK_DEFICIENT
    radii = radius_from_depth(depth, b_e, f)
    return _Solve(center, cam, radii, radii.sum(axis=1) / radii.shape[1], reason, u, v, f, px, py)


def _models(solve: _Solve, rows: Sequence[int],
            image_ids: Sequence[Sequence[str]]) -> list[SphereModel]:
    """The ``SphereModel`` of each of ``rows`` of ``solve``, its views named
    by the matching entry of ``image_ids``; the diagnostics (radius spread,
    RMS pixel residual of the corrected centers) are computed for these rows."""
    rows = np.asarray(rows, dtype=np.intp)
    cam, radii, radius, u, v = (a[rows] for a in (solve.cam, solve.radii, solve.radius,
                                                  solve.u, solve.v))
    f, px, py = (a if a.ndim == 1 else a[rows] for a in (solve.f, solve.px, solve.py))
    spread = np.maximum.reduce(np.abs(radii - radius[:, None]), axis=1)
    x, y = pinhole(cam, f, px, py)
    residual = np.sqrt(np.add.reduce((x - u) ** 2 + (y - v) ** 2, axis=1) / u.shape[1])
    return [SphereModel(sphere, list(zip(ids, per_view)), *diagnostics)
            for sphere, ids, per_view, *diagnostics in zip(
                Sphere.of_rows(solve.center[rows], radius), image_ids, radii.tolist(),
                spread.tolist(), residual.tolist())]


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
    f, px, py, rot, t = camera_arrays([v for v, _ in observations])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only the center counts
        solve = _solve(f, px, py, np.concatenate((rot, t[:, :, None]), axis=2),
                       pixels[None, :, 0], pixels[None, :, 1], np.ones((1, len(pixels))))
    _raise_if_degenerate(int(solve.reason[0]))
    return solve.center[0]


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
    x_ce, y_ce, b_e = np.array([(e.x_ce, e.y_ce, e.b_e) for _, e in matched]).T[:, None]
    f, px, py, rot, t = camera_arrays([v for v, _ in matched])
    with np.errstate(divide="ignore", invalid="ignore"):
        solve = _solve(f, px, py, np.concatenate((rot, t[:, :, None]), axis=2),
                       *corrected_center(x_ce, y_ce, b_e, f, px, py), b_e)
    reason = int(solve.reason[0])
    _raise_if_degenerate(reason)
    if reason == BEHIND_CAMERA:
        view = matched[int(np.argmax(solve.cam[0, :, 2] <= 0.0))][0]
        raise DegenerateProjection(
            f"triangulated center has nonpositive depth in view {view.image_id!r}")
    return _models(solve, [0], [[v.image_id for v, _ in matched]])[0]


def reconstruct_tracks(records: Sequence, tracks: Sequence[dict],
                       ) -> list[Optional[SphereModel]]:
    """``reconstruct_sphere`` for many tracks at once, one solve per track
    length.  A track maps image ids to ellipse ids, picked by row and camera
    row out of the views' ``match.ViewRecord``s in ``records`` order.  Returns
    one model per track, None where the track's geometry degenerates."""
    if not tracks:
        return []
    image_ids = [r.image_id for r in records]
    cameras = np.concatenate([r.camera for r in records])
    f, px, py = cameras[:, :3].T
    pose = cameras[:, 3:15].reshape(-1, 3, 4)
    rows = np.concatenate([np.empty((0, 7))] + [r.rows for r in records])  # b_e and hom
    normal = np.concatenate([np.empty((0, 4, 4))] + [r.normal for r in records])
    at = {key: row for row, key in enumerate((v, e) for v, r in enumerate(records) for e in r.ids)}
    picks = [[(v, at[v, track[i]]) for v, i in enumerate(image_ids) if i in track]
             for track in tracks]
    models: list[Optional[SphereModel]] = [None] * len(tracks)
    by_length: dict = {}
    for index, pick in enumerate(picks):
        if len(pick) < 2:
            raise ValueError("sphere reconstruction needs at least two views")
        by_length.setdefault(len(pick), []).append(index)
    for indices in by_length.values():
        pick = np.array([picks[i] for i in indices])  # (m, n, 2): view, row in rows and normal
        v, row = pick[..., 0], pick[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            solve = _solve(f[v], px[v], py[v], pose[v], rows[row, 4], rows[row, 5],
                           rows[row, 3], normal[row].sum(axis=1))
        ok = np.flatnonzero(solve.reason == OK).tolist()
        solved = _models(solve, ok, [[image_ids[j] for j, _ in picks[indices[k]]] for k in ok])
        for k, model in zip(ok, solved):
            models[indices[k]] = model
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
        if not (0.0 < rr < math.inf and 0.0 < rw < math.inf):
            raise InvalidAnchor(f"anchor radii must be positive and finite, got ({rr}, {rw})")
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
