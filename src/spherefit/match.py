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
Only the greedy one-to-one step loops, over the admissible pairs.  Each
view enters as the ``ViewRecord`` that ``view_record`` builds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry
from .projection import (
    DEPTH_MARGIN,
    CameraView,
    EllipseObservation,
    corrected_center,
    silhouette,
)
from .reconstruct import OK, _cameras, _recover

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


class ViewRecord(NamedTuple):
    """One view's ellipses sorted by id, their (n, 4) parameters (x_ce, y_ce,
    a_e, b_e), corrected centers (n, 2) and center sigmas (n,)."""

    view: CameraView
    ellipses: list[EllipseObservation]
    params: np.ndarray
    centers: np.ndarray
    sigmas: np.ndarray


def _require_unique_ids(view: CameraView, ellipses: Sequence[EllipseObservation]) -> None:
    ids = [e.ellipse_id for e in ellipses]
    if len(set(ids)) != len(ids):
        raise ValueError(f"image {view.image_id!r} repeats ellipse id "
                         f"{max(ids, key=ids.count)!r}")


def view_record(view: CameraView, ellipses: Sequence[EllipseObservation]) -> ViewRecord:
    """The ``ViewRecord`` of ``ellipses`` in ``view``, built once per view.
    Raises ValueError for a repeated ellipse id, or for an ellipse tagged
    with another image; the center sigma is 0 for an ellipse without cov."""
    _require_unique_ids(view, ellipses)
    for e in ellipses:
        if e.image_id not in ("", view.image_id):
            raise ValueError(f"ellipse {e.ellipse_id!r} of image {e.image_id!r} "
                             f"given for image {view.image_id!r}")
    ordered = sorted(ellipses, key=lambda e: e.ellipse_id)
    params = np.array([(e.x_ce, e.y_ce, e.a_e, e.b_e) for e in ordered]).reshape(-1, 4)
    centers = np.stack(corrected_center(params[:, 0], params[:, 1], params[:, 3],
                                        view.f, view.px, view.py), axis=-1)
    var = np.array([0.0 if e.cov is None else e.cov[2, 2] + e.cov[3, 3] for e in ordered])
    return ViewRecord(view, ordered, params, centers, np.sqrt(np.maximum(0.5 * var, 0.0)))


def _line_distances(lines: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n_lines, n_points) pixel distances of points from homogeneous lines."""
    norm = np.hypot(lines[:, 0], lines[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(lines @ np.vstack([points.T, np.ones(len(points))])) / norm[:, None]
    return np.where(norm[:, None] > 0.0, dist, math.inf)


def match_ellipses(left: ViewRecord, right: ViewRecord,
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
    f_lk = fundamental_from_views(left.view, right.view)
    hom_l = np.hstack([left.centers, np.ones((len(left.centers), 1))])
    hom_k = np.hstack([right.centers, np.ones((len(right.centers), 1))])
    epi = np.maximum(_line_distances(hom_l @ f_lk.T, right.centers),
                     _line_distances(hom_k @ f_lk, left.centers).T)
    if tol is None:
        limit = np.maximum(DEFAULT_EPIPOLAR_TOL, 2.0 * np.maximum.outer(left.sigmas, right.sigmas))
    else:
        limit = tol
    il, ik = np.nonzero(epi <= limit)

    obs = np.stack([left.params[il], right.params[ik]], axis=1)  # (m, 2, 4)
    f, px, py, rot, t = _cameras((left.view, right.view))
    rec = _recover(f, px, py, rot, t, obs[..., 0], obs[..., 1], obs[..., 3])  # x_ce, y_ce, b_e
    cam = rec.cam
    radius = rec.radius[:, None]
    clears = (rec.reason == OK)[:, None] & (cam[..., 2] > radius * (1.0 + DEPTH_MARGIN))
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = np.stack(silhouette(cam[..., 0], cam[..., 1], cam[..., 2], radius,
                                   f, px, py), axis=-1)
    total = np.sqrt(((obs - pred) ** 2).sum(axis=-1)).sum(axis=1)
    keep = np.flatnonzero(clears.all(axis=1))

    # Ellipses are sorted by id, so ordering by index breaks ties by id.
    order = keep[np.lexsort((ik[keep], il[keep], total[keep]))]
    used_l = np.zeros(len(left.ellipses), dtype=bool)
    used_k = np.zeros(len(right.ellipses), dtype=bool)
    matches = []
    for row in order.tolist():
        i, j = il[row], ik[row]
        if used_l[i] or used_k[j]:
            continue
        used_l[i] = used_k[j] = True
        matches.append(MatchCandidate(
            ellipse_l=left.ellipses[i].ellipse_id, ellipse_k=right.ellipses[j].ellipse_id,
            epipolar_distance=float(epi[i, j]), reprojection_distance=float(total[row])))
    unmatched_l = [e.ellipse_id for e, used in zip(left.ellipses, used_l) if not used]
    unmatched_k = [e.ellipse_id for e, used in zip(right.ellipses, used_k) if not used]
    return MatchResult(matches=matches, unmatched_l=unmatched_l, unmatched_k=unmatched_k)
