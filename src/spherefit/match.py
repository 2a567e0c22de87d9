"""Matching sphere silhouettes between two views.

Candidates are pre-filtered with the epipolar constraint on the
eccentricity-corrected ellipse centers (the corrected center is the true
image of the sphere center, so it must obey two-view point geometry), then
verified by hypothesis: reconstruct a sphere from the candidate pair,
reproject it into both images, and measure the parameter distance between
observed and reprojected ellipses.  Matching is one-to-one, greedy by
ascending total reprojection distance.

The work is array maths over both views: the symmetric epipolar distances
and their limits form one (n_l, n_k) matrix, every admissible pair goes
through the batched two-view reconstruction of ``reconstruct`` in one call,
and all hypotheses are reprojected with the silhouette closed form at once.
Only the greedy one-to-one step loops, over the admissible pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry
from .projection import (
    DEPTH_MARGIN,
    CameraView,
    EllipseObservation,
    corrected_center,
    silhouette,
)
from .reconstruct import OK, _recover

# Not called here: bench/spans.py wraps these names in this module.
from .projection import project_sphere_into_view  # noqa: F401
from .reconstruct import reconstruct_sphere  # noqa: F401

#: Epipolar gate floor in pixels; widened per candidate by center uncertainty.
DEFAULT_EPIPOLAR_TOL = 3.0


@dataclass
class MatchCandidate:
    """One accepted ellipse pairing and the distances that ranked it."""

    ellipse_l: str
    ellipse_k: str
    epipolar_distance: float
    reprojection_distance: float


@dataclass
class MatchResult:
    matches: list[MatchCandidate]
    unmatched_l: list[str]
    unmatched_k: list[str]


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def fundamental_from_views(view_l: CameraView, view_k: CameraView) -> np.ndarray:
    """Fundamental matrix F with x_k^T F x_l = 0 for corresponding pixels.

    Built from the relative pose (camera-l frame to camera-k frame) and both
    calibration matrices; normalized to unit Frobenius norm.  Raises
    DegenerateGeometry when the camera centers coincide (no epipolar
    geometry exists).
    """
    r_rel = view_k.rot @ view_l.rot.T
    t_rel = view_k.t - r_rel @ view_l.t
    scale = max(1.0, float(np.linalg.norm(view_l.t)), float(np.linalg.norm(view_k.t)))
    if np.linalg.norm(t_rel) <= 1e-12 * scale:
        raise DegenerateGeometry(
            f"views {view_l.image_id!r} and {view_k.image_id!r} have coincident centers")
    essential = _skew(t_rel) @ r_rel
    f_mat = (np.linalg.inv(view_k.calibration_matrix).T @ essential
             @ np.linalg.inv(view_l.calibration_matrix))
    return f_mat / np.linalg.norm(f_mat)


def epipolar_distance(fundamental: np.ndarray, point_l, point_k) -> float:
    """Pixel distance of ``point_k`` from the epipolar line of ``point_l``."""
    xl = np.append(np.asarray(point_l, dtype=float).reshape(2), 1.0)
    xk = np.append(np.asarray(point_k, dtype=float).reshape(2), 1.0)
    line = fundamental @ xl
    norm = math.hypot(line[0], line[1])
    if norm <= 0.0:
        return math.inf
    return abs(float(line @ xk)) / norm


def center_sigma(e: EllipseObservation) -> float:
    """RMS center standard deviation from the ellipse covariance (0 if none)."""
    if e.cov is None:
        return 0.0
    return math.sqrt(max(0.5 * float(e.cov[2, 2] + e.cov[3, 3]), 0.0))


def default_epipolar_tol(e_l: EllipseObservation, e_k: EllipseObservation) -> float:
    """max(3 px, 2 * center sigma) over the two candidate ellipses."""
    return max(DEFAULT_EPIPOLAR_TOL,
               2.0 * max(center_sigma(e_l), center_sigma(e_k)))


def reprojection_distance(observed: EllipseObservation,
                          predicted: EllipseObservation) -> float:
    """Euclidean distance over (x_ce, y_ce, a_e, b_e) in pixels.

    The axis angle is excluded: it is numerically meaningless for the
    near-circular silhouettes of on-axis spheres, and the four retained
    parameters share pixel units.
    """
    if observed.image_id and predicted.image_id and observed.image_id != predicted.image_id:
        raise ValueError(
            f"cannot compare ellipses across images {observed.image_id!r} "
            f"and {predicted.image_id!r}")
    return math.sqrt((observed.x_ce - predicted.x_ce) ** 2
                     + (observed.y_ce - predicted.y_ce) ** 2
                     + (observed.a_e - predicted.a_e) ** 2
                     + (observed.b_e - predicted.b_e) ** 2)


def _view_arrays(view: CameraView, ellipses: Sequence[EllipseObservation]):
    """Ellipses sorted by id, their (n, 4) parameters (x_ce, y_ce, a_e, b_e),
    corrected centers (n, 2) and center sigmas (n,)."""
    ordered = sorted(ellipses, key=lambda e: e.ellipse_id)
    params = np.array([(e.x_ce, e.y_ce, e.a_e, e.b_e) for e in ordered]).reshape(-1, 4)
    centers = np.stack(corrected_center(params[:, 0], params[:, 1], params[:, 3],
                                        view.f, view.px, view.py), axis=-1)
    sigmas = np.array([center_sigma(e) for e in ordered])
    return ordered, params, centers, sigmas


def _line_distances(lines: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n_lines, n_points) pixel distances of points from homogeneous lines."""
    norm = np.hypot(lines[:, 0], lines[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(lines @ np.vstack([points.T, np.ones(len(points))])) / norm[:, None]
    return np.where(norm[:, None] > 0.0, dist, math.inf)


def match_ellipses(view_l: CameraView, ellipses_l: Sequence[EllipseObservation],
                   view_k: CameraView, ellipses_k: Sequence[EllipseObservation],
                   tol: Optional[float] = None) -> MatchResult:
    """One-to-one matching of gate-filtered ellipses between two views.

    Every epipolar-admissible pairing is verified by reconstructing the
    hypothesized sphere and reprojecting it into both images; pairings whose
    geometry degenerates are discarded.  The epipolar test is applied
    symmetrically (both images) so the result does not depend on which view
    is called l.  An explicit ``tol`` in pixels replaces the per-pair
    max(3 px, 2 * center sigma) limit; it must be positive and finite.
    """
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"epipolar tolerance must be positive and finite, got {tol} px")
    f_lk = fundamental_from_views(view_l, view_k)
    ordered_l, par_l, cen_l, sig_l = _view_arrays(view_l, ellipses_l)
    ordered_k, par_k, cen_k, sig_k = _view_arrays(view_k, ellipses_k)
    hom_l = np.hstack([cen_l, np.ones((len(cen_l), 1))])
    hom_k = np.hstack([cen_k, np.ones((len(cen_k), 1))])
    epi = np.maximum(_line_distances(hom_l @ f_lk.T, cen_k),
                     _line_distances(hom_k @ f_lk, cen_l).T)
    if tol is None:
        limit = np.maximum(DEFAULT_EPIPOLAR_TOL, 2.0 * np.maximum.outer(sig_l, sig_k))
    else:
        limit = tol
    il, ik = np.nonzero(epi <= limit)

    obs = np.stack([par_l[il], par_k[ik]], axis=1)  # (m, 2, 4)
    views = (view_l, view_k)
    iop = np.array([(v.f, v.px, v.py) for v in views])
    rec = _recover(iop[:, 0], iop[:, 1], iop[:, 2],
                   np.array([v.rot for v in views]), np.array([v.t for v in views]),
                   obs[..., 0], obs[..., 1], obs[..., 3])  # x_ce, y_ce, b_e
    cam = rec.cam
    radius = rec.radius[:, None]
    clears = (rec.reason == OK)[:, None] & (cam[..., 2] > radius * (1.0 + DEPTH_MARGIN))
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = np.stack(silhouette(cam[..., 0], cam[..., 1], cam[..., 2], radius,
                                   iop[:, 0], iop[:, 1], iop[:, 2]), axis=-1)
    total = np.sqrt(((obs - pred) ** 2).sum(axis=-1)).sum(axis=1)
    keep = np.flatnonzero(clears.all(axis=1))

    # Ellipses are sorted by id, so ordering by index breaks ties by id.
    order = keep[np.lexsort((ik[keep], il[keep], total[keep]))]
    used_l = np.zeros(len(ordered_l), dtype=bool)
    used_k = np.zeros(len(ordered_k), dtype=bool)
    matches = []
    for row in order.tolist():
        i, j = il[row], ik[row]
        if used_l[i] or used_k[j]:
            continue
        used_l[i] = used_k[j] = True
        matches.append(MatchCandidate(
            ellipse_l=ordered_l[i].ellipse_id, ellipse_k=ordered_k[j].ellipse_id,
            epipolar_distance=float(epi[i, j]), reprojection_distance=float(total[row])))
    unmatched_l = sorted(e.ellipse_id for e, used in zip(ordered_l, used_l) if not used)
    unmatched_k = sorted(e.ellipse_id for e, used in zip(ordered_k, used_k) if not used)
    return MatchResult(matches=matches, unmatched_l=unmatched_l, unmatched_k=unmatched_k)
