"""Independent oracles and rig builders shared by the test suite.

Everything here recomputes expected values by a route disjoint from the
package implementation: the silhouette oracle samples the tangency circle
and fits a conic algebraically, the triangulation oracle averages pairwise
closest-approach midpoints from explicit 2x2 normal equations, and the
gradient oracle uses central finite differences.

The ``reference_*`` functions are scalar, one-item-at-a-time versions of
the package's array kernels (two-view matching, sphere recovery, the
per-view gate and pair scoring), kept as the references those kernels are
checked against.  The scalar matching distances (``epipolar_distance``,
``reprojection_distance``, ``center_sigma`` and ``default_epipolar_tol``)
live here for the same reason: the package computes them as arrays, and
so do ``projected_sphere_center`` and ``fundamental_from_views``, the
one-ellipse center correction and the per-pair fundamental matrix.
``reference_view_record`` builds one view's record on its own, the
reference for ``view_records``' one pass over a trial's views (its K^-1
from ``calibration_matrix``, a view's K written out), and
``reference_pair_angles`` is pair ranking over the full views x views
matrices, the reference for ``pair_angles``' pass over the upper triangle,
and ``reference_generate_scene`` builds a synthetic scene with one loop per
(view, sphere), (tie point, view) and (view, clutter ellipse), the reference
for the array passes of ``generate_scene``.
``reference_is_psd`` is the one-matrix eigensolver test that ``is_psd``,
its diagonal-only pass and its batched eigensolver pass over a stack, is
checked against, ``reference_load_ellipses`` the row-by-row ellipse CSV
reader that the column passes of ``read_ellipse_table`` and the row reader
``load_ellipses`` are checked against, and ``reference_load_network`` the
view-by-view camera reader that the stacked pass of ``load_network`` is
checked against.  ``reference_merge_tracks`` is the union-find track merge
that ``_merge_tracks``' dict per track is checked against.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator

import numpy as np

from spherefit import (
    CameraView,
    DegenerateGeometry,
    EllipseObservation,
    DegenerateProjection,
    ImageNetwork,
    MatchCandidate,
    MatchResult,
    NoAdmissiblePair,
    PairScore,
    Sphere,
    SphereModel,
    TiePoint,
    gather_ellipses,
    project_sphere_into_view,
    view_records,
    world_to_camera,
)
from spherefit.fileio import (
    _BAD_ENTRY,
    CONVENTION,
    ELLIPSE_BASE_COLUMNS,
    ELLIPSE_COV_COLUMNS,
    FileFormatError,
    _load_object,
    _object_list,
)
from spherefit import netselect
from spherefit.errors import ConfigInfeasible
from spherefit.projection import fold_axis_angle, pinhole
from spherefit.synth import SyntheticScene, _camera_centers, _look_at_rotation, _rng
from spherefit.match import DEFAULT_EPIPOLAR_TOL, ViewRecord, _skew
from spherefit.projection import corrected_center
from spherefit.reconstruct import _normal


def calibration_matrix(view):
    """The 3x3 pinhole calibration matrix K of ``view`` (unit aspect, zero skew)."""
    return np.array([[view.f, 0.0, view.px], [0.0, view.f, view.py], [0.0, 0.0, 1.0]])


def record_of(view, ellipses):
    """The ``ViewRecord`` of every one of ``ellipses`` in ``view``: the
    pipeline's checked object gather, then its records with all rows kept."""
    table = gather_ellipses([view], {view.image_id: ellipses})
    [record] = view_records([view], table, np.ones(len(table.keys), bool))
    return record


def reference_view_record(view, table):
    """The ``ViewRecord`` of ``table``, the rows of ellipses in ``view`` sorted
    by ellipse id, built for this one view: the per-view constructor that
    ``view_records``' one pass over a trial's views is checked against.  The
    center sigma is 0 for a row without cov."""
    ids = [ellipse_id for _, ellipse_id in table.keys]
    params, cov = table.params, table.cov
    rows = np.ones((len(ids), 7))
    rows[:, :4] = params
    rows[:, 4], rows[:, 5] = corrected_center(params[:, 0], params[:, 1], params[:, 3],
                                              view.f, view.px, view.py)
    sigmas = np.sqrt(np.maximum(0.5 * (cov[:, 2, 2] + cov[:, 3, 3]), 0.0))
    pose = np.column_stack([view.rot, view.t])
    camera = np.concatenate([[view.f, view.px, view.py], pose.ravel(), [0.0, 1.0]])[None]
    return ViewRecord(view.image_id, ids, rows, sigmas,
                      _normal(np.full(len(ids), view.f), np.array([view.px, view.py]), pose,
                              rows[:, 4:6]),
                      camera, np.linalg.inv(calibration_matrix(view)),
                      float(np.linalg.norm(view.t)))


def look_at_view(image_id, camera_center, target, f=1000.0, px=500.0, py=500.0,
                 iop_cov=None) -> CameraView:
    """Camera at ``camera_center`` with its principal axis toward ``target``."""
    camera_center = np.asarray(camera_center, dtype=float)
    target = np.asarray(target, dtype=float)
    z = target - camera_center
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(z, up)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, np.array([0.0, 1.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.vstack([x, y, z])
    return CameraView(image_id=image_id, f=f, px=px, py=py,
                      rot=rot, t=-rot @ camera_center, iop_cov=iop_cov)


def pinhole_pixel(point_cam, f, px, py):
    """Plain pinhole projection of a camera-frame point."""
    return np.array([px + f * point_cam[0] / point_cam[2],
                     py + f * point_cam[1] / point_cam[2]])


def center_from_single_view(e, f, px, py, radius) -> Sphere:
    """Camera-frame sphere center from one ellipse, given the radius: the
    reference inverse of ``project_sphere``.

    The recovered center scales linearly with the supplied radius, so a
    single view fixes the center only up to that scale factor.
    """
    s = math.hypot(f, e.b_e)  # sqrt(f^2 + b^2)
    scale = f * radius / (e.b_e * s)
    return Sphere(np.array([scale * (e.x_ce - px), scale * (e.y_ce - py), radius * s / e.b_e]),
                  radius, frame=f"camera:{e.image_id}" if e.image_id else "camera")


def p_rmse_combined(estimated, truth) -> float:
    """Single-number error: RMS over the four parameter errors (center
    x, y, z and radius), as a percentage of the true radius."""
    sphere = estimated.sphere if isinstance(estimated, SphereModel) else estimated
    delta = np.append(sphere.center - truth.center, sphere.radius - truth.radius)
    return 100.0 * math.sqrt(float(np.mean(delta ** 2))) / truth.radius


def silhouette_ellipse(center, radius, f, px, py, n=10_000):
    """Geometric parameters of a sphere's silhouette, without closed forms.

    Samples the tangency circle (the locus of silhouette points on the
    sphere), projects each sample through the pinhole, fits a conic by
    algebraic least squares, and extracts (x_ce, y_ce, a_e, b_e, theta).
    """
    c = np.asarray(center, dtype=float)
    d = float(np.linalg.norm(c))
    ring_center = c * (d * d - radius * radius) / (d * d)
    ring_radius = radius * math.sqrt(d * d - radius * radius) / d
    axis = c / d
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, seed)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = (ring_center[None, :]
           + ring_radius * (np.cos(ang)[:, None] * u[None, :]
                            + np.sin(ang)[:, None] * v[None, :]))
    xs = px + f * pts[:, 0] / pts[:, 2]
    ys = py + f * pts[:, 1] / pts[:, 2]
    return fit_conic_parameters(xs, ys)


def fit_conic_parameters(xs, ys):
    """Algebraic least-squares conic fit -> (x0, y0, a, b, theta)."""
    mx, my = xs.mean(), ys.mean()
    s = math.sqrt(float(((xs - mx) ** 2 + (ys - my) ** 2).mean()))
    xn, yn = (xs - mx) / s, (ys - my) / s
    design = np.stack([xn * xn, xn * yn, yn * yn, xn, yn, np.ones_like(xn)], axis=1)
    _, _, vt = np.linalg.svd(design, full_matrices=False)
    an, bn, cn, dn, en, fn = vt[-1]
    # Undo the normalization x_n = (x - mx)/s, y_n = (y - my)/s.
    a2 = an / s ** 2
    b2 = bn / s ** 2
    c2 = cn / s ** 2
    d2 = -2 * an * mx / s ** 2 - bn * my / s ** 2 + dn / s
    e2 = -2 * cn * my / s ** 2 - bn * mx / s ** 2 + en / s
    f2 = (an * mx ** 2 / s ** 2 + bn * mx * my / s ** 2 + cn * my ** 2 / s ** 2
          - dn * mx / s - en * my / s + fn)
    if a2 + c2 < 0:  # fix the arbitrary overall sign of the conic vector
        a2, b2, c2, d2, e2, f2 = -a2, -b2, -c2, -d2, -e2, -f2
    den = b2 * b2 - 4 * a2 * c2
    x0 = (2 * c2 * d2 - b2 * e2) / den
    y0 = (2 * a2 * e2 - b2 * d2) / den
    mu = 2 * (a2 * e2 ** 2 + c2 * d2 ** 2 - b2 * d2 * e2 + den * f2)
    disc = math.sqrt((a2 - c2) ** 2 + b2 ** 2)
    a_ax = -math.sqrt(mu * ((a2 + c2) + disc)) / den
    b_ax = -math.sqrt(mu * ((a2 + c2) - disc)) / den
    if a_ax < b_ax:
        a_ax, b_ax = b_ax, a_ax
    quad = np.array([[a2, b2 / 2.0], [b2 / 2.0, c2]])
    _, vecs = np.linalg.eigh(quad)
    major = vecs[:, 0]  # smaller eigenvalue -> larger extent
    theta = math.atan2(major[1], major[0])
    theta = (theta + math.pi / 2.0) % math.pi - math.pi / 2.0
    return x0, y0, a_ax, b_ax, theta


def central_difference(func, params, rel_step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        h = rel_step * max(abs(params[i]), 1.0)
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (func(up) - func(dn)) / (2.0 * h)
    return grad


def midpoint_triangulation(rays):
    """Average of pairwise closest-approach midpoints of (origin, dir) rays.

    Each pair is solved via its 2x2 normal equations, deliberately not the
    cross-product formulation used in the package.
    """
    midpoints = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            o1, d1 = rays[i]
            o2, d2 = rays[j]
            d1 = d1 / np.linalg.norm(d1)
            d2 = d2 / np.linalg.norm(d2)
            a11 = float(d1 @ d1)
            a12 = -float(d1 @ d2)
            a22 = float(d2 @ d2)
            rhs = o2 - o1
            det = a11 * a22 - a12 * a12
            if abs(det) < 1e-18:
                continue
            b1 = float(d1 @ rhs)
            b2 = -float(d2 @ rhs)
            s1 = (b1 * a22 - a12 * b2) / det
            s2 = (a11 * b2 - a12 * b1) / det
            midpoints.append(0.5 * ((o1 + s1 * d1) + (o2 + s2 * d2)))
    if not midpoints:
        raise ValueError("all ray pairs parallel")
    return np.mean(midpoints, axis=0)


def golden_section_minimize(func, lo, hi, tol=1e-12):
    """1-D golden-section minimizer for unimodal functions."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if func(c) < func(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return 0.5 * (a + b)


def reference_dlt_rows(view, pixel):
    """The two DLT rows x_n * P_3 - P_1 and y_n * P_3 - P_2 of one pixel in
    one view, each scaled to unit length: a (2, 4) array."""
    xn = (pixel[0] - view.px) / view.f
    yn = (pixel[1] - view.py) / view.f
    pose = np.hstack([view.rot, view.t[:, None]])
    a = np.vstack([xn * pose[2] - pose[0], yn * pose[2] - pose[1]])
    return a / np.linalg.norm(a, axis=1)[:, None]


def reference_triangulate(observations):
    """Scalar homogeneous DLT triangulation of one point from (view, pixel)
    pairs by an SVD of the stacked rows, with the same row normalization and
    rank tests as the package."""
    a = np.vstack([reference_dlt_rows(view, pixel) for view, pixel in observations])
    _, s, vt = np.linalg.svd(a)
    if s[2] <= 1e-9 * s[0]:
        raise DegenerateGeometry("rank-deficient")
    x = vt[-1]
    if abs(x[3]) <= 1e-12 * np.linalg.norm(x[:3]):
        raise DegenerateGeometry("at infinity")
    return x[:3] / x[3]


def reference_reconstruct_sphere(matched):
    """Scalar sphere recovery from (view, ellipse) pairs, one view at a time."""
    corrected = [projected_sphere_center(e, v.f, v.px, v.py) for v, e in matched]
    center = reference_triangulate([(v, c) for (v, _), c in zip(matched, corrected)])
    per_view = []
    squared = []
    for (view, e), c in zip(matched, corrected):
        cam = view.rot @ center + view.t
        if cam[2] <= 0.0:
            raise DegenerateProjection(f"behind {view.image_id!r}")
        per_view.append((view.image_id, cam[2] * e.b_e / math.hypot(e.b_e, view.f)))
        pixel = pinhole_pixel(cam, view.f, view.px, view.py)
        squared.append(float(np.sum((pixel - c) ** 2)))
    radius = float(np.mean([r for _, r in per_view]))
    return SphereModel(sphere=Sphere(center, radius),
                       per_view_radii=per_view,
                       radius_spread=max(abs(r - radius) for _, r in per_view),
                       triangulation_residual=math.sqrt(np.mean(squared)))


def projected_sphere_center(e, f, px, py) -> np.ndarray:
    """True image of the sphere center of one ellipse: the one-ellipse form
    of ``projection.corrected_center``."""
    return np.array(corrected_center(e.x_ce, e.y_ce, e.b_e, f, px, py))


def fundamental_from_views(view_l, view_k) -> np.ndarray:
    """Fundamental matrix of two views with x_k^T F x_l = 0, inverting both
    calibration matrices per call; ``match.fundamental_matrix`` takes the
    inverses from the view records and must agree to the bit."""
    r_rel = view_k.rot @ view_l.rot.T
    t_rel = view_k.t - r_rel @ view_l.t
    scale = max(1.0, float(np.linalg.norm(view_l.t)), float(np.linalg.norm(view_k.t)))
    if np.linalg.norm(t_rel) <= 1e-12 * scale:
        raise DegenerateGeometry("coincident centers")
    essential = _skew(t_rel) @ r_rel
    f_mat = (np.linalg.inv(calibration_matrix(view_k)).T @ essential
             @ np.linalg.inv(calibration_matrix(view_l)))
    return f_mat / np.linalg.norm(f_mat)


def epipolar_distance(fundamental, point_l, point_k) -> float:
    """Pixel distance of ``point_k`` from the epipolar line of ``point_l``."""
    xl = np.append(np.asarray(point_l, dtype=float).reshape(2), 1.0)
    xk = np.append(np.asarray(point_k, dtype=float).reshape(2), 1.0)
    line = fundamental @ xl
    norm = math.hypot(line[0], line[1])
    if norm <= 0.0:
        return math.inf
    return abs(float(line @ xk)) / norm


def center_sigma(e) -> float:
    """RMS center standard deviation from the ellipse covariance (0 if none)."""
    if e.cov is None:
        return 0.0
    return math.sqrt(max(0.5 * float(e.cov[2, 2] + e.cov[3, 3]), 0.0))


def default_epipolar_tol(e_l, e_k) -> float:
    """max(3 px, 2 * center sigma) over the two candidate ellipses."""
    return max(DEFAULT_EPIPOLAR_TOL, 2.0 * max(center_sigma(e_l), center_sigma(e_k)))


def reprojection_distance(observed, predicted) -> float:
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


def reference_match_ellipses(view_l, ellipses_l, view_k, ellipses_k, tol=None):
    """The per-candidate matching loop: symmetric epipolar test, then one
    two-view hypothesis and two reprojections per admissible pair, then the
    greedy one-to-one pick by (reprojection distance, ids)."""
    f_lk = fundamental_from_views(view_l, view_k)
    candidates = []
    for e_l in sorted(ellipses_l, key=lambda e: e.ellipse_id):
        c_l = projected_sphere_center(e_l, view_l.f, view_l.px, view_l.py)
        for e_k in sorted(ellipses_k, key=lambda e: e.ellipse_id):
            c_k = projected_sphere_center(e_k, view_k.f, view_k.px, view_k.py)
            epi = max(epipolar_distance(f_lk, c_l, c_k), epipolar_distance(f_lk.T, c_k, c_l))
            if epi > (tol if tol is not None else default_epipolar_tol(e_l, e_k)):
                continue
            try:
                model = reference_reconstruct_sphere([(view_l, e_l), (view_k, e_k)])
                pred_l = project_sphere_into_view(model.sphere, view_l)
                pred_k = project_sphere_into_view(model.sphere, view_k)
            except (DegenerateGeometry, DegenerateProjection):
                continue
            candidates.append(MatchCandidate(
                ellipse_l=e_l.ellipse_id, ellipse_k=e_k.ellipse_id, epipolar_distance=epi,
                reprojection_distance=(reprojection_distance(e_l, pred_l)
                                       + reprojection_distance(e_k, pred_k))))
    candidates.sort(key=lambda c: (c.reprojection_distance, c.ellipse_l, c.ellipse_k))
    used_l, used_k, matches = set(), set(), []
    for cand in candidates:
        if cand.ellipse_l in used_l or cand.ellipse_k in used_k:
            continue
        matches.append(cand)
        used_l.add(cand.ellipse_l)
        used_k.add(cand.ellipse_k)
    return MatchResult(
        matches=matches,
        unmatched_l=sorted(e.ellipse_id for e in ellipses_l if e.ellipse_id not in used_l),
        unmatched_k=sorted(e.ellipse_id for e in ellipses_k if e.ellipse_id not in used_k))


def reference_gate(e, f, px, py, ellipse_cov, iop_cov, k):
    """Scalar gate of one ellipse: (tau, sigma_tau, accepted) from the
    closed-form gradient and a full 7x7 block-diagonal covariance."""
    a, b = e.a_e, e.b_e
    dx, dy = e.x_ce - px, e.y_ce - py
    v = f * f + b * b
    m = (b / a) * math.sqrt((dx * dx + dy * dy) / v + 1.0)
    common = 1.0 / (a * a * m * v)
    d_x = -b * b * dx * common
    d_y = -b * b * dy * common
    jac = np.array([m / a, -m * f * f / (b * v) - b ** 3 * common, d_x, d_y,
                    -d_x, -d_y, f * (a * a * m * m - b * b) * common])
    sigma = np.zeros((7, 7))
    sigma[:4, :4] = ellipse_cov
    sigma[4:, 4:] = iop_cov
    sigma_tau = math.sqrt(max(float(jac @ sigma @ jac), 0.0))
    tau = 1.0 - m
    return tau, sigma_tau, abs(tau) <= k * sigma_tau


class NoSharedPoints(Exception):
    """Two views share no usable tie point, so no convergence angle exists."""


def reference_convergence_angle(view_i, view_j, tie_points) -> float:
    """Mean angle (radians) subtended at shared tie points by the two
    centers, one tie point at a time; a tie point at either center is
    skipped."""
    ci = view_i.center
    cj = view_j.center
    angles = []
    for tp in tie_points:
        if view_i.image_id not in tp.visible_in or view_j.image_id not in tp.visible_in:
            continue
        ri = ci - tp.xyz
        rj = cj - tp.xyz
        ni = np.linalg.norm(ri)
        nj = np.linalg.norm(rj)
        if ni <= 0.0 or nj <= 0.0:
            continue
        cosang = float(np.clip(ri @ rj / (ni * nj), -1.0, 1.0))
        angles.append(math.acos(cosang))
    if not angles:
        raise NoSharedPoints(
            f"views {view_i.image_id!r} and {view_j.image_id!r} share no tie points")
    return float(np.mean(angles))


def reference_network_overlap(network) -> dict:
    """Tie-point count per image, normalized so the best-covered image is 1."""
    counts = {v.image_id: 0 for v in network.views}
    for tp in network.tie_points:
        for image_id in tp.visible_in:
            counts[image_id] += 1
    top = max(counts.values(), default=0)
    if top <= 0:
        raise ValueError("network has no tie points; overlap is undefined")
    return {image_id: c / top for image_id, c in counts.items()}


def reference_best_pair(network, min_angle=math.radians(20.0)) -> PairScore:
    """The per-pair scoring scan: one ``reference_convergence_angle`` per
    image pair, then the first highest score in sorted (i, j) order."""
    if not 0.0 <= min_angle < math.inf:
        raise ValueError(f"minimum convergence angle must be finite and >= 0, got {min_angle}")
    if len(network.views) < 2:
        raise ValueError("need at least two views")
    ov = reference_network_overlap(network)
    ids = sorted(v.image_id for v in network.views)
    alphas = {}
    for i, j in itertools.combinations(ids, 2):
        try:
            alphas[(i, j)] = reference_convergence_angle(
                network.view(i), network.view(j), network.tie_points)
        except NoSharedPoints:
            continue
    if not alphas:
        raise NoAdmissiblePair("no image pair shares tie points")
    alpha_max = max(alphas.values())
    if alpha_max <= 0.0:
        raise NoAdmissiblePair("all pairwise convergence angles are zero")
    ov_max = max(ov.values())
    best = None
    for (i, j), alpha in sorted(alphas.items()):
        if alpha <= min_angle:
            continue
        score = alpha / alpha_max + (ov[i] + ov[j]) / (2.0 * ov_max)
        if best is None or score > best.theta_ij:
            best = PairScore(i=i, j=j, alpha_ij=alpha, ov_i=ov[i], ov_j=ov[j],
                             theta_ij=score)
    if best is None:
        raise NoAdmissiblePair(
            f"no image pair exceeds the {math.degrees(min_angle):.1f} deg floor "
            f"(largest convergence angle found: {math.degrees(alpha_max):.2f} deg)")
    return best


def reference_pair_angles(network, ids):
    """``pair_angles`` as it computed every entry of the views x views
    matrices: each view's center from ``CameraView.center``, visibility by
    a membership test per tie point and view, and the angle of every
    ordered pair, diagonal included, in blocks of ``netselect._BLOCK_ELEMENTS``."""
    centers = np.array([network.view(image_id).center for image_id in ids])
    points = np.array([tp.xyz for tp in network.tie_points]).reshape(-1, 3)
    visible = np.array([[i in tp.visible_in for i in ids] for tp in network.tie_points],
                       dtype=bool).reshape(len(points), len(ids))
    total = np.zeros((len(ids), len(ids)))
    shared = np.zeros((len(ids), len(ids)), dtype=np.int64)
    step = max(1, netselect._BLOCK_ELEMENTS // len(ids) ** 2)
    for block in (slice(t, t + step) for t in range(0, len(points), step)):
        rays = centers - points[block, None, :]
        norms = np.sqrt(np.einsum("tvk,tvk->tv", rays, rays))
        ok = visible[block] & (norms > 0.0)
        both = ok[:, :, None] & ok[:, None, :]
        cos = rays @ rays.transpose(0, 2, 1)
        cos /= np.where(both, norms[:, :, None] * norms[:, None, :], 1.0)
        total += np.where(both, np.arccos(np.clip(cos, -1.0, 1.0)), 0.0).sum(axis=0)
        shared += both.sum(axis=0)
    with np.errstate(invalid="ignore"):
        return total / shared, shared, visible.sum(axis=0)


def reference_generate_scene(config) -> SyntheticScene:
    """``generate_scene`` as it built the scene one item at a time: each
    sphere projected into each view by ``project_sphere_into_view``, each
    tie point tested in each view, each clutter ellipse drawn on its own."""
    rng = _rng(config.seed, 0)
    target = np.asarray(config.look_at, dtype=float)
    views = []
    for i, center in enumerate(_camera_centers(config)):
        rot = _look_at_rotation(center, target)
        views.append(CameraView(image_id=f"img-{i:02d}", f=config.f, px=config.px,
                                py=config.py, rot=rot, t=-rot @ center))
    spheres = [(sid, Sphere(np.asarray(c, dtype=float), float(r), frame="world"))
               for sid, c, r in config.spheres]
    observations = {v.image_id: [] for v in views}
    for view in views:
        for sid, sphere in spheres:
            try:
                ellipse = project_sphere_into_view(sphere, view, ellipse_id=sid)
            except DegenerateProjection as exc:
                raise ConfigInfeasible(
                    f"sphere {sid!r} does not clear camera {view.image_id!r} ({exc})") from exc
            observations[view.image_id].append(ellipse)
    tie_points = []
    extent = config.tie_point_extent
    for _ in range(config.n_tie_points):
        xyz = np.array([rng.uniform(-extent, extent), rng.uniform(-extent, extent), 0.0])
        seen = set()
        for view in views:
            cam = world_to_camera(xyz, view)
            if cam[2] > 0.0:
                u, v = pinhole(cam, view.f, view.px, view.py)
                if 0.0 <= u <= config.width and 0.0 <= v <= config.height:
                    seen.add(view.image_id)
        if len(seen) >= 2:
            tie_points.append(TiePoint(xyz=xyz, visible_in=frozenset(seen)))
    clutter_ids = set()
    for idx, view in enumerate(views):
        for c in range(config.clutter_per_image):
            cx = rng.uniform(0.2 * config.width, 0.8 * config.width)
            cy = rng.uniform(0.2 * config.height, 0.8 * config.height)
            b = rng.uniform(60.0, 150.0)
            offset2 = (cx - view.px) ** 2 + (cy - view.py) ** 2
            a_spherical = b * math.sqrt(offset2 / (view.f ** 2 + b ** 2) + 1.0)
            a = a_spherical * config.clutter_inflation
            theta = fold_axis_angle(rng.uniform(-math.pi / 2, math.pi / 2))
            eid = f"clutter-{idx:02d}-{c:02d}"
            clutter_ids.add(eid)
            observations[view.image_id].append(EllipseObservation(
                image_id=view.image_id, ellipse_id=eid,
                x_ce=cx, y_ce=cy, a_e=max(a, b), b_e=min(a, b), theta=theta))
    return SyntheticScene(config=config, views=views, spheres=spheres,
                          observations=observations, tie_points=tie_points,
                          clutter_ids=clutter_ids)


def reference_is_psd(m) -> bool:
    """Symmetric PSD test: symmetric to round-off and no eigenvalue of the
    symmetric part below -1e-9 * trace, always through the eigensolver.

    Non-finite entries go through the same arithmetic (inf - inf is nan, so
    the symmetry test fails); numpy's warnings about it are silenced here so
    that they are not taken for warnings of the code under test.  A matrix
    whose largest entry exceeds 2^1000 is scaled by 2^-1000 first, with the
    tolerance, which changes none of the comparisons, so that m + m.T cannot
    overflow.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = 1.0 + np.abs(m).max()
        if scale > 2.0 ** 1000:
            m, scale = m * 2.0 ** -1000, scale * 2.0 ** -1000
        if not np.abs(m - m.T).max() <= 1e-9 * scale:
            return False
        return bool(np.linalg.eigvalsh(0.5 * (m + m.T))[0] >= -1e-9 * np.trace(m))


_COV_INDEX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
              (2, 2), (2, 3), (3, 3)]


def _reference_cov(raw):
    if "" in raw:
        if raw.count("") == len(raw):
            return None
        raise FileFormatError("partial covariance row: give all 10 columns or none")
    cov = np.empty((4, 4))
    for (i, j), value in zip(_COV_INDEX, map(float, raw)):
        cov[i, j] = cov[j, i] = value
    return cov


def reference_load_ellipses(path: str) -> list:
    """The ellipse CSV read one row at a time: each row is converted and
    built as an ``EllipseObservation``, whose own checks run on it, and the
    first malformed line raises FileFormatError.  A malformed row that ran
    to the end of the file inside a quoted field, its last, names the line of
    that field's opening quote, and so does a row whose quoted field csv
    stopped at its size limit, if read without the limit it runs to the end."""
    out = {}  # (image_id, ellipse_id) -> ellipse, in file order
    with open(path, newline="") as handle:
        text = handle.read()
    lines_read = []

    def lines():
        for line in io.StringIO(text, newline=""):
            lines_read.append(line)
            yield line
        lines_read.append(None)  # csv asked for a line past the last

    reader = csv.reader(lines())

    def malformed(row, message):
        if lines_read[-1] is not None:
            return FileFormatError(f"{path}:{reader.line_num}: {message}")
        # The field holds the file's tail after its opening quote, each
        # doubled quote read as one.
        field = row[-1]
        quote = len(text) - len(field) - field.count('"') - 1
        assert text[quote] == '"' and text[quote + 1:].replace('""', '"') == field
        opened = len(io.StringIO(text[:quote + 1], newline="").readlines())
        return FileFormatError(f"{path}:{opened}: quoted field is not closed")

    try:
        header = next(reader, None)
        if header is None:
            raise FileFormatError(f"{path}: empty file (header row is mandatory)")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise FileFormatError(f"{path}: repeated columns {repeated}")
        missing = [c for c in ELLIPSE_BASE_COLUMNS if c not in header]
        if missing:
            raise FileFormatError(f"{path}: missing columns {missing}")
        column = {name: i for i, name in enumerate(header)}
        base_cells = operator.itemgetter(*(column[c] for c in ELLIPSE_BASE_COLUMNS))
        cov_cells = operator.itemgetter(*(column.get(c, len(header))
                                          for c in ELLIPSE_COV_COLUMNS))
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise malformed(row, f"{len(row)} fields, the header has {len(header)}")
            image_id, ellipse_id, x_ce, y_ce, a_e, b_e, theta = base_cells(row)
            if (image_id, ellipse_id) in out:
                raise malformed(row, f"ellipse id {ellipse_id!r} "
                                     f"repeats in image {image_id!r}")
            try:
                out[image_id, ellipse_id] = EllipseObservation(
                    image_id=image_id, ellipse_id=ellipse_id,
                    x_ce=float(x_ce), y_ce=float(y_ce), a_e=float(a_e), b_e=float(b_e),
                    theta=float(theta), cov=_reference_cov(cov_cells(row + [""])))
            except ValueError as exc:
                raise malformed(row, exc) from exc
    except csv.Error as exc:
        if "field larger than field limit" in str(exc):
            # Read without the limit, a quoted field that runs unclosed to the
            # end of the file from this row, not a later one, names its line.
            limit = csv.field_size_limit(len(text) + 1)
            try:
                reference_load_ellipses(path)
            except FileFormatError as unlimited:
                line, _, message = str(unlimited)[len(path) + 1:].partition(": ")
                if message == "quoted field is not closed" and int(line) <= reader.line_num:
                    raise unlimited from exc
            finally:
                csv.field_size_limit(limit)
        raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return list(out.values())


def reference_load_network(path: str) -> ImageNetwork:
    """The camera network file read one view at a time: each entry is
    converted and built as a ``CameraView``, whose own checks run on it, and
    the first bad entry raises FileFormatError."""
    data = _load_object(path, "views")
    if data.get("convention") != CONVENTION:
        raise FileFormatError(
            f"{path}: missing or wrong 'convention' header; expected "
            f"{CONVENTION!r} (got {data.get('convention')!r})")
    views = []
    for entry in _object_list(path, "views", data["views"]):
        try:
            iop_cov = entry.get("iop_cov")
            views.append(CameraView(
                image_id=str(entry["image_id"]),
                f=float(entry["f"]), px=float(entry["px"]), py=float(entry["py"]),
                rot=np.asarray(entry["rot"], dtype=float).reshape(3, 3),
                t=np.asarray(entry["t"], dtype=float).reshape(3),
                iop_cov=None if iop_cov is None
                else np.asarray(iop_cov, dtype=float).reshape(3, 3)))
        except _BAD_ENTRY as exc:
            raise FileFormatError(f"{path}: bad view entry ({exc})") from exc
    tie_points = []
    for entry in _object_list(path, "tie_points", data.get("tie_points", [])):
        try:
            tie_points.append(TiePoint(
                xyz=np.asarray(entry["xyz"], dtype=float).reshape(3),
                visible_in=frozenset(str(i) for i in entry["visible_in"])))
        except _BAD_ENTRY as exc:
            raise FileFormatError(f"{path}: bad tie point entry ({exc})") from exc
    try:
        return ImageNetwork(views=views, tie_points=tie_points)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def reference_merge_tracks(pair_matches):
    """Greedy union-find merge of pairwise matches into one-ellipse-per-view
    tracks, in sorted match order: a union is skipped when it would put two
    different ellipses of one view into a track.  Returns the tracks (dicts
    image_id -> ellipse_id) sorted by their roots."""
    parent: dict = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    members: dict = {}
    for _, vid_l, vid_k, eid_l, eid_k in sorted(pair_matches):
        node_l = (vid_l, eid_l)
        node_k = (vid_k, eid_k)
        for node in (node_l, node_k):
            if node not in parent:
                parent[node] = node
                members[node] = {node[0]: node[1]}
        root_l, root_k = find(node_l), find(node_k)
        if root_l == root_k:
            continue
        views_l, views_k = members[root_l], members[root_k]
        overlap = set(views_l) & set(views_k)
        if any(views_l[v] != views_k[v] for v in overlap):
            continue  # conflicting assignment; keep tracks separate
        parent[root_k] = root_l
        views_l.update(views_k)
        del members[root_k]
    return [members[find(node)] for node in sorted(members)]
