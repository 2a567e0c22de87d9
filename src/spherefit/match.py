"""Matching sphere silhouettes between two views.

Candidates are pre-filtered with the epipolar constraint on the
eccentricity-corrected ellipse centers (the corrected center is the true
image of the sphere center, so it must obey two-view point geometry), then
verified by hypothesis: reconstruct a sphere from the candidate pair,
reproject it into both images, and measure the parameter distance between
observed and reprojected ellipses.  Matching is one-to-one, greedy by
ascending total reprojection distance.

The work is array maths over both views.  What is fixed per view is computed
once, in its ``ViewRecord`` (``pipeline.view_records`` builds a trial's in one
pass): the accepted rows sorted by id, each packing the parameters and the
corrected center, their center sigmas and triangulation normal matrices, and
the view's camera block, K^-1 and length of t.  Per pair the matcher computes
F, the (n_l, n_k) matrix of symmetric epipolar distances and their limits,
one (m, 2, 7) block of both sides' admissible rows and one (2, 17) camera
block; the two-view solve of ``reconstruct`` and the silhouette closed form
take every admissible pair at once, under one numpy error state.  Only the
greedy one-to-one step loops, over the admissible pairs.  The result keeps
the solve, whose matched rows are the pipeline's two-view spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateGeometry
from .projection import DEPTH_MARGIN, CameraView, silhouette
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
    x, y, z = v.tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


class ViewRecord(NamedTuple):
    """One view's ellipses sorted by id: the ``ids``, ``rows`` (n, 7) of the
    parameters (x_ce, y_ce, a_e, b_e), read as ``params``, and the corrected
    center (x, y, 1), read as ``hom``, the center ``sigmas`` (n,) and the
    (n, 4, 4) triangulation ``normal`` matrices; then the view's ``camera``
    (1, 17) of f, px, py, the pose [rot | t] by rows, 0 and 1, ``k_inv`` and
    |t|."""

    view: CameraView
    ids: list[str]
    rows: np.ndarray
    sigmas: np.ndarray
    normal: np.ndarray
    camera: np.ndarray
    k_inv: np.ndarray
    t_norm: float
    params = property(lambda self: self.rows[:, :4])
    hom = property(lambda self: self.rows[:, 4:])


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
    if math.sqrt(t_rel.dot(t_rel)) <= 1e-12 * max(1.0, left.t_norm, right.t_norm):
        raise DegenerateGeometry(
            f"views {view_l.image_id!r} and {view_k.image_id!r} have coincident centers")
    f_mat = right.k_inv.T @ (_skew(t_rel) @ r_rel) @ left.k_inv
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
    hom_l, hom_k = left.rows[:, 4:], right.rows[:, 4:]
    lines_k = hom_l @ f_lk.T  # epipolar lines of the left centers in the right image
    lines_l = hom_k @ f_lk
    with np.errstate(divide="ignore", invalid="ignore"):  # zero lines, degenerate hypotheses
        epi = np.maximum(
            np.abs(lines_k @ hom_k.T) / np.hypot(lines_k[:, 0], lines_k[:, 1])[:, None],
            (np.abs(lines_l @ hom_l.T) / np.hypot(lines_l[:, 0], lines_l[:, 1])[:, None]).T)
        if tol is None:
            tol = np.maximum(DEFAULT_EPIPOLAR_TOL,
                             2.0 * np.maximum.outer(left.sigmas, right.sigmas))
        il, ik = np.nonzero(epi <= tol)
        pair = np.concatenate((left.rows[il], right.rows[ik]), axis=1).reshape(-1, 2, 7)
        cameras = np.concatenate((left.camera, right.camera))
        f, px, py = cameras[:, :3].T
        pose = cameras[:, 3:15].reshape(2, 3, 4)
        solve = _solve(f, px, py, pose[..., :3], pose[..., 3], pair[..., 4], pair[..., 5],
                       pair[..., 3], left.normal[il] + right.normal[ik])
        cam = solve.cam
        radius = solve.radius[:, None]
        z = cam[..., 2]
        clears = z > radius * (1.0 + DEPTH_MARGIN)
        x, y, a, b = silhouette(cam[..., 0], cam[..., 1], z, radius, f, px, py)
        dist = np.sqrt((pair[..., 0] - x) ** 2 + (pair[..., 1] - y) ** 2
                       + (pair[..., 2] - a) ** 2 + (pair[..., 3] - b) ** 2)
    total = dist[:, 0] + dist[:, 1]
    keep = np.flatnonzero((solve.reason == OK) & clears[:, 0] & clears[:, 1])

    # Rows run by (left, right) index and ids are sorted, so a stable sort breaks ties by ids.
    order = keep[np.argsort(total[keep], kind="stable")]
    il, ik = il[order], ik[order]
    used_l, used_k, matches, rows = set(), set(), [], []
    for row, i, j, distance, epi_ij in zip(order.tolist(), il.tolist(), ik.tolist(),
                                           total[order].tolist(), epi[il, ik].tolist()):
        if i in used_l or j in used_k:
            continue
        used_l.add(i)
        used_k.add(j)
        matches.append(MatchCandidate(left.ids[i], right.ids[j], epi_ij, distance))
        rows.append(row)
    return MatchResult(matches=matches,
                       unmatched_l=[e for i, e in enumerate(left.ids) if i not in used_l],
                       unmatched_k=[e for j, e in enumerate(right.ids) if j not in used_k],
                       solve=solve, rows=rows)
