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
through the two-view solve of ``reconstruct`` in one call, from the corrected
centers and the sums of the triangulation normal matrices the records hold,
and all hypotheses are reprojected with the silhouette closed form at once.
Only the greedy one-to-one step loops, over the admissible pairs.  The result
keeps the solve, whose matched rows are the pipeline's two-view spheres.  Each
view enters as its ``ViewRecord``: the rows the gate accepted in that view,
sorted by id, with their corrected centers, center sigmas and normal
matrices.  ``pipeline.view_records`` builds the records of all of a trial's
views in one pass; this module only matches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateGeometry
from .projection import DEPTH_MARGIN, CameraView, camera_arrays, silhouette
from .reconstruct import OK, _Solve, _solve

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
    """The matches of two views and their unmatched ellipse ids; ``solve``
    is the two-view solve of every admissible pairing and ``rows[i]`` the row
    of ``matches[i]`` in it.  Neither takes part in comparisons."""

    matches: list[MatchCandidate]
    unmatched_l: list[str]
    unmatched_k: list[str]
    solve: Optional[_Solve] = field(default=None, compare=False, repr=False)
    rows: list[int] = field(default_factory=list, compare=False, repr=False)


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


class ViewRecord(NamedTuple):
    """One view's ellipses sorted by id, in array form: the ``ids``, their
    (n, 4) ``params`` (x_ce, y_ce, a_e, b_e), the corrected centers in
    homogeneous form ``hom`` (n, 3) rows (x, y, 1), the center ``sigmas``
    (n,), the view's inverse calibration matrix ``k_inv`` and the (n, 4, 4)
    triangulation ``normal`` matrix of each center."""

    view: CameraView
    ids: list[str]
    params: np.ndarray
    hom: np.ndarray
    sigmas: np.ndarray
    k_inv: np.ndarray
    normal: np.ndarray


def fundamental_matrix(left: ViewRecord, right: ViewRecord) -> np.ndarray:
    """Fundamental matrix F with x_k^T F x_l = 0 for corresponding pixels of
    the left and the right view.

    Built from the relative pose (camera-l frame to camera-k frame) and both
    records' inverse calibration matrices; normalized to unit Frobenius norm.
    Raises DegenerateGeometry when the camera centers coincide (no epipolar
    geometry exists).
    """
    view_l, view_k = left.view, right.view
    r_rel = view_k.rot @ view_l.rot.T
    t_rel = view_k.t - r_rel @ view_l.t
    # Each norm is sqrt(x . x), as np.linalg.norm takes it for a whole array.
    scale = max(1.0, math.sqrt(view_l.t.dot(view_l.t)), math.sqrt(view_k.t.dot(view_k.t)))
    if math.sqrt(t_rel.dot(t_rel)) <= 1e-12 * scale:
        raise DegenerateGeometry(
            f"views {view_l.image_id!r} and {view_k.image_id!r} have coincident centers")
    essential = _skew(t_rel) @ r_rel
    f_mat = right.k_inv.T @ essential @ left.k_inv
    flat = f_mat.ravel()
    return f_mat / math.sqrt(flat.dot(flat))


def match_ellipses(left: ViewRecord, right: ViewRecord,
                   tol: Optional[float] = None) -> MatchResult:
    """One-to-one matching of gate-filtered ellipses between two views.

    Every epipolar-admissible pairing is verified by reconstructing the
    hypothesized sphere and reprojecting it into both images; pairings whose
    geometry degenerates are discarded.  The epipolar test is applied
    symmetrically (both images) so the result does not depend on which view
    is called l.  An explicit ``tol`` in pixels replaces the per-pair
    max(3 px, 2 * center sigma) limit; it must be positive and finite.  The
    result keeps the two-view solve of the admissible pairings and the row
    of each match in it.
    """
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"epipolar tolerance must be positive and finite, got {tol} px")
    f_lk = fundamental_matrix(left, right)
    lines_k = left.hom @ f_lk.T  # epipolar lines of the left centers in the right image
    lines_l = right.hom @ f_lk
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero line admits no point
        epi = np.maximum(
            np.abs(lines_k @ right.hom.T) / np.hypot(lines_k[:, 0], lines_k[:, 1])[:, None],
            (np.abs(lines_l @ left.hom.T) / np.hypot(lines_l[:, 0], lines_l[:, 1])[:, None]).T)
    if tol is None:
        limit = np.maximum(DEFAULT_EPIPOLAR_TOL, 2.0 * np.maximum.outer(left.sigmas, right.sigmas))
    else:
        limit = tol
    il, ik = np.nonzero(epi <= limit)

    obs = np.stack([left.params[il], right.params[ik]], axis=1)  # (m, 2, 4)
    hom = np.stack([left.hom[il], right.hom[ik]], axis=1)  # (m, 2, 3)
    f, px, py, rot, t = camera_arrays((left.view, right.view))
    solve = _solve(f, px, py, rot, t, hom[..., 0], hom[..., 1], obs[..., 3],
                   left.normal[il] + right.normal[ik])
    cam = solve.cam
    radius = solve.radius[:, None]
    clears = (solve.reason == OK)[:, None] & (cam[..., 2] > radius * (1.0 + DEPTH_MARGIN))
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y, a, b = silhouette(cam[..., 0], cam[..., 1], cam[..., 2], radius, f, px, py)
        dist = np.sqrt((obs[..., 0] - x) ** 2 + (obs[..., 1] - y) ** 2
                       + (obs[..., 2] - a) ** 2 + (obs[..., 3] - b) ** 2)
    total = dist[:, 0] + dist[:, 1]
    keep = np.flatnonzero(clears.all(axis=1))

    # Ellipses are sorted by id, so ordering by index breaks ties by id.
    order = keep[np.lexsort((ik[keep], il[keep], total[keep]))]
    used_l, used_k, matches, rows = set(), set(), [], []
    for row, i, j, distance in zip(order.tolist(), il[order].tolist(), ik[order].tolist(),
                                   total[order].tolist()):
        if i in used_l or j in used_k:
            continue
        used_l.add(i)
        used_k.add(j)
        matches.append(MatchCandidate(left.ids[i], right.ids[j], float(epi[i, j]), distance))
        rows.append(row)
    return MatchResult(matches=matches,
                       unmatched_l=[e for i, e in enumerate(left.ids) if i not in used_l],
                       unmatched_k=[e for j, e in enumerate(right.ids) if j not in used_k],
                       solve=solve, rows=rows)
