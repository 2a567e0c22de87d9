"""Property-based checks of the closed forms, of pair scoring, of the PSD
test, of the ellipse and camera files and of the gate report (needs
``hypothesis``)."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    center_from_single_view,
    look_at_view,
    reference_best_pair,
    reference_convergence_angle,
    reference_is_psd,
    reference_load_ellipses,
    reference_load_network,
    reference_merge_tracks,
    reference_network_overlap,
    reference_reconstruct_sphere,
)
from spherefit import (  # noqa: E402
    DEFAULT_MIN_ANGLE,
    CameraView,
    DegenerateGeometry,
    DegenerateProjection,
    EllipseObservation,
    ImageNetwork,
    NoAdmissiblePair,
    PairScore,
    SceneConfig,
    Sphere,
    SphereModel,
    TiePoint,
    apply_scale,
    best_pair,
    generate_scene,
    perturb_observations,
    project_sphere,
    project_sphere_into_view,
    reconstruct_sphere,
    tau,
    world_to_camera,
)
from spherefit.cli import main  # noqa: E402
from spherefit.fileio import (  # noqa: E402
    CONVENTION,
    ELLIPSE_BASE_COLUMNS,
    ELLIPSE_COV_COLUMNS,
    FileFormatError,
    PlyCloud,
    SphereEntry,
    gate_report_text,
    load_ellipses,
    load_network,
    load_ply,
    load_spheres,
    read_ellipse_table,
    save_ellipses,
    save_network,
    save_ply,
    save_spheres,
)
from spherefit.projection import (  # noqa: E402
    PIXEL_LIMIT,
    corrected_center,
    is_psd,
    rotation_error,
)
from spherefit.pipeline import _merge_tracks  # noqa: E402
from spherefit.reconstruct import (  # noqa: E402
    AT_INFINITY,
    BEHIND_CAMERA,
    OK,
    RANK_DEFICIENT,
    _normal,
    _pose_form,
    _solve,
)

# Fixed example sequence, so a tier-1 run is reproducible.
PROPERTY = settings(max_examples=400, derandomize=True, deadline=None, database=None)


@PROPERTY
@given(radius=st.floats(1e-3, 1e3),
       depth_ratio=st.floats(1.01, 1e4),
       lateral=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       f=st.floats(100.0, 1e4),
       principal=st.tuples(st.floats(0.0, 4000.0), st.floats(0.0, 4000.0)))
def test_single_view_round_trip(radius, depth_ratio, lateral, f, principal):
    # Depth at least 1.01 R, lateral offset up to twice the depth: from
    # distant on-axis spheres to grazing ones far off the principal axis.
    z = depth_ratio * radius
    center = np.array([lateral[0] * z, lateral[1] * z, z])
    px, py = principal
    e = project_sphere(Sphere(center, radius, frame="camera"), f, px, py)
    back = center_from_single_view(e, f, px, py, radius)
    assert np.linalg.norm(back.center - center) <= 1e-9 * np.linalg.norm(center)
    assert abs(tau(e, f, px, py)) < 1e-9


# Integer coordinates make each ray dot product and norm exact, so the
# array pass and the scalar reference see the same cosines; only arccos and
# the order of the sums differ, by a few ulp.
_COORD = st.integers(-3, 3).map(float)
_POINT = st.tuples(_COORD, _COORD, _COORD)


@st.composite
def _networks(draw):
    ids = [f"v{k}" for k in range(draw(st.integers(2, 6)))]
    views = [CameraView(i, 1000.0, 500.0, 500.0, np.eye(3), -np.array(draw(_POINT)))
             for i in ids]
    ties = [TiePoint(np.array(draw(_POINT)),
                     draw(st.frozensets(st.sampled_from(ids), min_size=2)))
            for _ in range(draw(st.integers(1, 12)))]
    return ImageNetwork(views, ties)


def _outcome(select, network, min_angle):
    try:
        return select(network, min_angle=min_angle)
    except (NoAdmissiblePair, ValueError) as exc:
        return type(exc)


@settings(PROPERTY, max_examples=200)
@given(network=_networks(), min_angle=st.sampled_from([0.0, DEFAULT_MIN_ANGLE]))
def test_best_pair_matches_reference_scan(network, min_angle):
    got = _outcome(best_pair, network, min_angle)
    want = _outcome(reference_best_pair, network, min_angle)
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, PairScore)
    # The pair picked may differ from the reference's only at a score tie
    # that rounding decides: its score must equal the best one to 1e-12.
    ov = reference_network_overlap(network)
    alpha = reference_convergence_angle(network.view(got.i), network.view(got.j),
                                        network.tie_points)
    assert (got.ov_i, got.ov_j) == (ov[got.i], ov[got.j])
    assert math.isclose(got.alpha_ij, alpha, rel_tol=1e-12)
    assert math.isclose(got.theta_ij, want.theta_ij, rel_tol=1e-12)


_SCALE = st.floats(1e-6, 1e6)
# Away from the subnormals, where a product loses relative precision.
_COORDINATE = st.floats(-1e3, 1e3).filter(lambda c: c == 0.0 or abs(c) >= 1e-3)


@PROPERTY
@given(s1=_SCALE, s2=_SCALE, center=st.tuples(*[_COORDINATE] * 3),
       radius=st.floats(1e-3, 1e3), spread=_COORDINATE.map(abs))
def test_apply_scale_group_law(s1, s2, center, radius, spread):
    model = SphereModel(sphere=Sphere(center, radius), per_view_radii=[("a", radius)],
                        radius_spread=spread, triangulation_residual=0.5)
    twice, once = apply_scale(apply_scale(model, s1), s2), apply_scale(model, s1 * s2)
    assert twice.scale_applied == s1 * s2 == once.scale_applied
    assert np.allclose(twice.sphere.center, once.sphere.center, rtol=1e-12, atol=0.0)
    for got, want in [(twice.sphere.radius, once.sphere.radius),
                      (twice.per_view_radii[0][1], once.per_view_radii[0][1]),
                      (twice.radius_spread, once.radius_spread)]:
        assert math.isclose(got, want, rel_tol=1e-12)
    assert twice.triangulation_residual == 0.5
    points = np.array([center])
    assert np.allclose(apply_scale(apply_scale(points, s1), s2), points * (s1 * s2),
                       rtol=1e-12, atol=0.0)


@PROPERTY
@given(radius=st.floats(1e-3, 1e3),
       clearance=st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1e-12, 1e-12)),
       lateral=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       f=st.floats(100.0, 1e4))
def test_grazing_sphere_projects_or_raises(radius, clearance, lateral, f):
    # Depth within a millionth of the radius: the silhouette formulas divide
    # by Z^2 - R^2, so either the depth check refuses the sphere or the
    # ellipse is finite with a_e >= b_e.
    z = radius * (1.0 + clearance)
    sphere = Sphere([lateral[0] * z, lateral[1] * z, z], radius, frame="camera")
    try:
        e = project_sphere(sphere, f, 500.0, 400.0)
    except DegenerateProjection:
        return
    values = [e.x_ce, e.y_ce, e.a_e, e.b_e, e.theta]
    assert all(map(math.isfinite, values))
    assert e.a_e >= e.b_e > 0.0


@PROPERTY
@given(log_baseline=st.floats(-14.0, -2.0),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda d: math.hypot(*d) > 1e-3),
       center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       radius=st.floats(0.01, 0.3))
def test_near_coincident_cameras_raise_or_stay_finite(log_baseline, direction, center,
                                                      radius):
    # Two cameras 10^log_baseline apart: the triangulation is ill-posed, and
    # reconstruct_sphere must say so rather than return NaN.
    offset = 10.0 ** log_baseline * np.array(direction) / math.hypot(*direction)
    views = [look_at_view(name, np.array([0.0, -5.0, 1.0]) + shift, [0.0, 0.0, 0.0])
             for name, shift in (("a", 0.0), ("b", offset))]
    sphere = Sphere(center, radius)
    matched = [(v, project_sphere_into_view(sphere, v)) for v in views]
    try:
        model = reconstruct_sphere(matched)
    except DegenerateGeometry:
        return
    values = [*model.sphere.center, model.sphere.radius, model.radius_spread,
              model.triangulation_residual, *(r for _, r in model.per_view_radii)]
    assert all(map(math.isfinite, values))


_REASONS = {OK: "ok", RANK_DEFICIENT: "rank-deficient", AT_INFINITY: "at infinity",
            BEHIND_CAMERA: "behind"}


def _reference_outcome(matched):
    """The SVD reference's world center, or the degeneracy it raises."""
    try:
        return reference_reconstruct_sphere(matched).sphere.center
    except DegenerateGeometry as exc:
        return str(exc)
    except DegenerateProjection:
        return "behind"


@PROPERTY
@given(log_baseline=st.floats(-14.0, 0.0),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda d: math.hypot(*d) > 1e-3),
       center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       radius=st.floats(0.01, 0.3),
       n_views=st.sampled_from([2, 3]),
       log_clearance=st.one_of(st.none(), st.floats(-6.0, 0.0)))
@example(log_baseline=-12.0, direction=(0.0, 0.0, -1.0), center=(0.5, 0.1875, 0.0),
         radius=0.25, n_views=2, log_clearance=None)
def test_solve_matches_svd_reference(log_baseline, direction, center, radius, n_views,
                                     log_clearance):
    # One solve of two rows: cameras 10^log_baseline apart, 5 m from the
    # sphere (the SVD fallback below a baseline of about 10 cm, the eigh
    # above), and a wide rig (the eigh).
    # Each row must give the reference's reason, and an OK row its center
    # within 1e-9 of the sphere's size.  With a clearance the sphere grazes
    # the nearest camera: its depth there is the radius times 1 + clearance.
    offset = 10.0 ** log_baseline * np.array(direction) / math.hypot(*direction)
    base = np.array([0.0, -5.0, 1.0])
    rigs = [[base, base + offset, base + offset[::-1]],
            [base, np.array([5.0, 0.0, 1.0]), np.array([-4.0, 3.0, -1.0])]]
    rigs = [[look_at_view(f"v{i}", c, [0.0, 0.0, 0.0]) for i, c in enumerate(rig[:n_views])]
            for rig in rigs]
    if log_clearance is not None:
        depth = min(float(world_to_camera(center, v)[2]) for rig in rigs for v in rig)
        radius = depth / (1.0 + 10.0 ** log_clearance)
    try:
        matched = [[(v, project_sphere_into_view(Sphere(center, radius), v)) for v in rig]
                   for rig in rigs]
    except DegenerateProjection:
        return
    views = [[v for v, _ in rig] for rig in matched]
    f, px, py, rot, t = (np.array([[getattr(v, k) for v in rig] for rig in views])
                         for k in ("f", "px", "py", "rot", "t"))
    x_ce, y_ce, b_e = (np.array([[getattr(e, k) for _, e in rig] for rig in matched])
                       for k in ("x_ce", "y_ce", "b_e"))
    u, v = corrected_center(x_ce, y_ce, b_e, f, px, py)
    with np.errstate(divide="ignore", invalid="ignore"):  # the caller's, as _solve documents
        solve = _solve(f, px, py, rot, t, u, v, b_e,
                       _normal(*_pose_form(f, px, py, rot, t, u, v)).sum(axis=1))
    for row, rig in enumerate(matched):
        want = _reference_outcome(rig)
        if isinstance(want, str):
            assert _REASONS[int(solve.reason[row])] == want
        else:
            assert solve.reason[row] == OK
            error = np.linalg.norm(solve.center[row] - want)
            assert error <= 1e-9 * max(np.linalg.norm(want), radius)


# Zeros, subnormals, the smallest normal, non-finite values, and finite
# values of every magnitude.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022,
                     math.inf, -math.inf, math.nan]),
    st.floats(-1e3, 1e3),
    st.floats())
# LAPACK's symmetric eigensolver rescales a matrix whose largest entry lies
# outside this range, and rounds the eigenvalues it scales back; inside it,
# the eigenvalues of a diagonal matrix are its diagonal entries exactly.
_UNSCALED = (2.0 ** -485, 2.0 ** 485)


@st.composite
def _diagonals(draw, n=None):
    """``n`` (else 3 or 4) diagonal entries; often one lies within a few ulps
    of the PSD bound -1e-9 * trace."""
    n = n or draw(st.sampled_from([3, 4]))
    entries = draw(st.lists(_ENTRY, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        entries.append(draw(_ENTRY))
    else:
        # b >= -1e-9 * (rest + b) holds from b = -1e-9 * rest / (1 + 1e-9) up.
        bound = -1e-9 * sum(entries) / (1.0 + 1e-9)
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            bound = math.nextafter(bound, math.copysign(math.inf, steps))
        entries.append(bound)
    return draw(st.permutations(entries))


@PROPERTY
@given(diagonal=_diagonals())
# On the bound when the trace is summed left to right, as np.trace sums it,
# and below it when the trace is rounded once, as math.fsum rounds it.
@example(diagonal=[1.0, 1.5e-16, 1.5e-16, -9.999999990000005e-10])
# m + m.T of this diagonal overflowed in the reference, whose eigensolver
# then raised LinAlgError.
@example(diagonal=[0.0, 8.98846567431158e+307, -8.988465665323113e+298])
def test_is_psd_diagonal_shortcut_matches_eigensolver(diagonal):
    m = np.diag(diagonal)
    got, want = is_psd(m), reference_is_psd(m)
    if got != want:
        # Only where the reference's eigensolver rescales, and only by the
        # rounding of the smallest eigenvalue across the bound.
        bound = -1e-9 * np.trace(m)
        assert not _UNSCALED[0] <= np.abs(m).max() <= _UNSCALED[1]
        assert abs(min(diagonal) - bound) <= 4 * math.ulp(bound)
        assert got == (min(diagonal) >= bound)


@PROPERTY
@given(diagonal=_diagonals(), data=st.data())
def test_is_psd_with_one_off_diagonal_pair_matches_eigensolver(diagonal, data):
    n = len(diagonal)
    i, j = data.draw(st.permutations(range(n)))[:2]
    value = data.draw(_ENTRY.filter(lambda v: v != 0.0))
    m = np.diag(diagonal)
    m[i, j] = value
    m[j, i] = data.draw(st.one_of(st.just(value), _ENTRY))
    try:
        want = reference_is_psd(m)
    except np.linalg.LinAlgError:
        # An inf against a finite mirror passes the reference's symmetry
        # test and stops its eigensolver; is_psd rejects non-finite input.
        assert not np.isfinite(m).all()
        want = False
    assert is_psd(m) == want


@st.composite
def _psd_matrices(draw, k):
    """One k x k matrix: diagonal, diagonal with some off-diagonal -0.0, with
    off-diagonal pairs of any entries (NaN and +-inf among them), or a random
    Gram matrix, shifted, made asymmetric near the tolerance or scaled
    beyond 2^1000."""
    kind = draw(st.sampled_from(["diagonal", "signed-zero", "entries", "gram"]))
    if kind == "gram":
        a = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k * k, max_size=k * k)))
        m = a.reshape(k, k) @ a.reshape(k, k).T
        m -= np.eye(k) * draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-3]))
    else:
        m = np.diag(draw(_diagonals(k)))
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.permutations(range(k)))[:2]
            if kind == "signed-zero":
                m[i, j] = -0.0
            elif kind == "entries":
                m[i, j] = value = draw(_ENTRY)
                m[j, i] = draw(st.one_of(st.just(value), _ENTRY))
    if np.isfinite(m).all() and draw(st.booleans()):
        # |m - m^T| well inside, just inside, just past or well past the tolerance.
        i, j = draw(st.permutations(range(k)))[:2]
        factor = draw(st.sampled_from([0.5, 0.999999, 1.000001, 2.0]))
        delta = 1e-9 * (1.0 + np.abs(m).max()) * factor
        if abs(m[j, i]) + delta <= np.abs(m).max():
            m[i, j] = m[j, i] + delta
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # an entry that overflows is an inf entry
            m = m * draw(st.sampled_from([1.0, 2.0 ** 1010, 2.0 ** 1020, 1e-300]))
    return m


def _reference_or_rounding(m, got):
    """``got`` is ``reference_is_psd(m)`` (False for a non-finite matrix),
    or ``m`` is diagonal and ``got`` differs from it only where the
    reference's eigensolver rescales and rounds the least eigenvalue across
    the bound, as ``test_is_psd_diagonal_shortcut_matches_eigensolver``
    allows."""
    if not np.isfinite(m).all():
        return got is False
    if got == reference_is_psd(m):
        return True
    if (m[~np.eye(len(m), dtype=bool)] != 0.0).any():
        return False
    diagonal = np.diag(m) * (2.0 ** -1000 if np.abs(m).max() > 2.0 ** 1000 else 1.0)
    bound = -1e-9 * np.trace(np.diag(diagonal))
    return (not _UNSCALED[0] <= np.abs(diagonal).max() <= _UNSCALED[1]
            and abs(diagonal.min() - bound) <= 4 * math.ulp(bound)
            and got == (diagonal.min() >= bound))


@PROPERTY
@given(data=st.data())
def test_is_psd_of_a_stack_is_that_of_each_matrix(data):
    k = data.draw(st.sampled_from([3, 4]))
    stack = np.array(data.draw(st.lists(_psd_matrices(k), max_size=6))).reshape(-1, k, k)
    got = is_psd(stack)
    assert got.dtype == bool and got.shape == (len(stack),)
    each = [is_psd(m) for m in stack]
    assert got.tolist() == each
    assert all(_reference_or_rounding(m, g) for m, g in zip(stack, each))
    # Any leading shape: a (2, n / 2) stack of the same matrices.
    if len(stack) % 2 == 0:
        assert is_psd(stack.reshape(2, -1, k, k)).tolist() == got.reshape(2, -1).tolist()


def _rotation(q):
    """The rotation of the quaternion ``q`` normalized (the identity if its
    norm is below 0.1): orthonormal to round-off."""
    q = np.array(q) if np.linalg.norm(q) >= 0.1 else np.array([1.0, 0.0, 0.0, 0.0])
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@PROPERTY
@given(quaternions=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=1, max_size=6),
       data=st.data())
def test_rotation_error_of_a_stack_is_that_of_each_rotation(quaternions, data):
    # Near-rotations on either side of the tolerance, and overflowing ones.
    rots = [_rotation(q) * data.draw(st.sampled_from([1.0, 1.0 + 2e-10, 1.0 + 1e-9, 1e200, 1e300]))
            for q in quaternions]
    stack = np.array(rots)
    got = rotation_error(stack)
    assert got.shape == (len(rots),)
    assert got.tobytes() == np.array([rotation_error(rot) for rot in rots]).tobytes()
    finite = got < 1.0
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(stack.swapaxes(1, 2) @ stack - np.eye(3), axis=(1, 2))
    assert np.allclose(got[finite], norms[finite], rtol=1e-12, atol=0.0)
    assert not (got[~finite] < 1e-9).any()


# Commas, double quotes and line breaks must be quoted in the file.
_ID = st.text(alphabet='abxyz019-_. ,"\r\n', min_size=1, max_size=4)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Centers and semi-axes beyond PIXEL_LIMIT, and semi-axes below its
# inverse, are not valid ellipses.
_CENTER = st.floats(-PIXEL_LIMIT, PIXEL_LIMIT)
_AXIS = st.floats(1.0 / PIXEL_LIMIT, PIXEL_LIMIT)


@st.composite
def _covariances(draw):
    kind = draw(st.sampled_from(["none", "diagonal", "full"]))
    if kind == "none":
        return None
    if kind == "diagonal":
        return np.diag(draw(st.lists(st.floats(0.0, 1e6), min_size=4, max_size=4)))
    root = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16)))
    cov = root.reshape(4, 4) @ root.reshape(4, 4).T
    return np.triu(cov) + np.triu(cov, 1).T  # exactly symmetric


@PROPERTY
@given(rows=st.lists(st.tuples(_ID, _ID, _CENTER, _CENTER, _AXIS, _AXIS, _FINITE,
                               _covariances()),
                     max_size=6, unique_by=lambda row: row[:2]))
def test_ellipse_file_round_trips_exactly(rows):
    ellipses = [EllipseObservation(image_id, ellipse_id, x, y, max(p, q), min(p, q),
                                   theta, cov=cov)
                for image_id, ellipse_id, x, y, p, q, theta, cov in rows]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ellipses.csv")
        save_ellipses(ellipses, path)
        loaded = load_ellipses(path)
        assert _table_loaded(path) == _loaded(reference_load_ellipses, path)
    assert len(loaded) == len(ellipses)
    for orig, back in zip(ellipses, loaded):
        # repr tells -0.0 from 0.0.
        assert ([orig.image_id, orig.ellipse_id]
                + [repr(v) for v in (orig.x_ce, orig.y_ce, orig.a_e, orig.b_e, orig.theta)]
                == [back.image_id, back.ellipse_id]
                + [repr(v) for v in (back.x_ce, back.y_ce, back.a_e, back.b_e, back.theta)])
        if orig.cov is None:
            assert back.cov is None
        else:
            assert orig.cov.tobytes() == back.cov.tobytes()


@pytest.fixture(scope="module")
def ellipse_export(tmp_path_factory):
    """Camera file path and the cells of a valid ellipse CSV, header first."""
    root = tmp_path_factory.mktemp("fuzz")
    config = SceneConfig(n_cameras=3, clutter_per_image=1, sigma_px=0.3, seed=2)
    noisy = perturb_observations(generate_scene(config), config.sigma_px, config.seed)
    cameras, ellipses = str(root / "cameras.json"), str(root / "ellipses.csv")
    save_network(noisy.network, cameras)
    save_ellipses([e for image_id in sorted(noisy.observations)
                   for e in noisy.observations[image_id]], ellipses)
    return cameras, [line.split(",") for line in open(ellipses).read().splitlines()]


_CELL = st.sampled_from(["", " ", "nan", "-inf", "1e999", "1e308", "-1", "0", "-0.0",
                         "2.5", "1_0", " 3 ", "abc", "x_ce", "cov_aa", "img-00",
                         "ball-0", '"', "1,2"])


@st.composite
def _mutated_csv(draw, rows):
    """CSV text from ``rows`` after one to four random edits."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r])))
        edit = draw(st.sampled_from(["drop field", "extra field", "set field",
                                     "repeat column", "drop row", "repeat row",
                                     "blank covariance"]))
        if edit == "drop field" and c < len(rows[r]):
            del rows[r][c]
        elif edit == "extra field":
            rows[r].insert(c, draw(_CELL))
        elif edit == "set field" and c < len(rows[r]):
            rows[r][c] = draw(_CELL)
        elif edit == "repeat column" and c < len(rows[0]):
            for row in rows:
                row.append(row[c] if c < len(row) else "")
        elif edit == "drop row" and len(rows) > 1:
            del rows[r]
        elif edit == "repeat row":
            rows.insert(r, list(rows[r]))
        elif edit == "blank covariance" and r > 0:
            rows[r][7:] = [""] * len(rows[r][7:])
    return "\n".join(",".join(row) for row in rows) + "\n"


def _loaded(load, path):
    """Each row's fields as exact text and bytes, or the FileFormatError
    message of the file."""
    try:
        return [(e.image_id, e.ellipse_id,
                 *[repr(v) for v in (e.x_ce, e.y_ce, e.a_e, e.b_e, e.theta)],
                 None if e.cov is None else (e.cov.shape, e.cov.dtype.str, e.cov.tobytes()))
                for e in load(path)]
    except FileFormatError as exc:
        return str(exc)


def _table_loaded(path):
    """``_loaded`` of the rows of the file's ``EllipseTable``, whose cov block
    is zero where a row has no covariance."""
    try:
        table = read_ellipse_table(path)
    except FileFormatError as exc:
        return str(exc)
    assert not table.cov[~table.has_cov].any()
    return [(image_id, ellipse_id, *[repr(v) for v in (*params, theta)],
             (cov.shape, cov.dtype.str, cov.tobytes()) if has_cov else None)
            for (image_id, ellipse_id), params, theta, cov, has_cov
            in zip(table.keys, table.params.tolist(), table.theta.tolist(), table.cov,
                   table.has_cov.tolist())]


def _strict_json(path):
    """The JSON in ``path``, which may not hold NaN or Infinity."""
    def reject(constant):
        raise AssertionError(f"{path} holds {constant}, which is not strict JSON")
    with open(path) as handle:
        return json.load(handle, parse_constant=reject)


def _loaded_or_rejected(cameras, text):
    """``text`` as an ellipse file loads to the same rows, to the bit, as the
    row-by-row reader, both as a table and as objects, or fails with the same
    first malformed line and message; ``filter`` on it exits 2, or 0 with a
    strict JSON report."""
    with tempfile.TemporaryDirectory() as root:
        path, report = os.path.join(root, "ellipses.csv"), os.path.join(root, "report.json")
        with open(path, "w") as handle:
            handle.write(text)
        rows = _loaded(reference_load_ellipses, path)
        assert _table_loaded(path) == rows
        assert _loaded(load_ellipses, path) == rows
        code = main(["filter", "--cameras", cameras, "--ellipses", path,
                     "--out", os.path.join(root, "kept.csv"), "--report", report])
        assert code in (0, 2)
        if code == 0:
            _strict_json(report)


@settings(PROPERTY, max_examples=200)
@given(data=st.data())
def test_mutated_ellipse_file_is_loaded_or_rejected(ellipse_export, data):
    cameras, rows = ellipse_export
    _loaded_or_rejected(cameras, data.draw(_mutated_csv(rows)))


@pytest.mark.parametrize("cell", ["1e308", "-1e308"])
@pytest.mark.parametrize("column", ["x_ce", "y_ce", "a_e", "b_e", "theta_rad", "cov_aa",
                                    "cov_xx", "cov_xy"])
def test_ellipse_file_with_a_huge_cell_is_loaded_or_rejected(ellipse_export, column, cell):
    # Explicit examples of the fuzz test above: a center cell of 1e308 used
    # to give a report with -Infinity and NaN.
    cameras, rows = ellipse_export
    rows = [list(row) for row in rows]
    rows[1][rows[0].index(column)] = cell
    _loaded_or_rejected(cameras, "\n".join(",".join(row) for row in rows) + "\n")


def _edited_ellipse_text(rows, edit):
    """The ellipse file of ``rows`` (header first) after one named edit."""
    rows = [list(row) for row in rows]
    column = rows[0].index
    if edit == "no-covariance-columns":
        rows = [row[:7] for row in rows]
    elif edit == "mixed-rows":
        for row in rows[1::2]:
            row[7:] = [""] * 10
    elif edit == "partial-covariance":
        rows[3][column("cov_bx")] = ""
    elif edit == "blank-base-cell":
        rows[2][column("y_ce")] = ""
    elif edit == "non-numeric-after-blank-cell":
        rows[2][column("x_ce")] = ""
        rows[2][column("b_e")] = "abc"
    elif edit == "non-numeric-after-blank-row":
        rows[1][7:] = [""] * 10
        rows[2][column("a_e")] = ""
        rows[4][column("cov_xx")] = "abc"
    return "\n".join(",".join(row) for row in rows) + "\n"


@pytest.mark.parametrize("edit, error", [
    ("none", None), ("no-covariance-columns", None), ("mixed-rows", None),
    ("partial-covariance", "ellipses.csv:4: partial covariance"),
    ("blank-base-cell", "ellipses.csv:3: could not convert"),
    ("non-numeric-after-blank-cell", "ellipses.csv:3: could not convert string to float: ''"),
    ("non-numeric-after-blank-row", "ellipses.csv:3: could not convert string to float: ''")])
def test_edited_ellipse_file_is_loaded_or_rejected(ellipse_export, edit, error):
    # Explicit examples of the fuzz test above, one per branch of the column
    # pass: every covariance cell given, none, blank cells read as NaN, and a
    # cell that is not a number.
    cameras, rows = ellipse_export
    text = _edited_ellipse_text(rows, edit)
    _loaded_or_rejected(cameras, text)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ellipses.csv")
        with open(path, "w") as handle:
            handle.write(text)
        rows = _table_loaded(path)
    if error is None:
        assert isinstance(rows, list) and len(rows) == text.count("\n") - 1
        assert any(row[-1] is None for row in rows) == (edit != "none")
    else:
        assert isinstance(rows, str) and error in rows


def _full_covariance_text(cameras, n_rows=1200, seed=19):
    """An ellipse file of ``n_rows`` valid rows over the images of the
    ``cameras`` file.  Most rows carry a random full covariance (a Gram
    matrix, some of rank 3, so on the PSD bound up to round-off); the rest a
    diagonal one, some with off-diagonal -0.0."""
    with open(cameras) as handle:
        image_ids = [view["image_id"] for view in json.load(handle)["views"]]
    rng = np.random.default_rng(seed)
    upper = np.triu_indices(4)
    lines = [",".join(ELLIPSE_BASE_COLUMNS + ELLIPSE_COV_COLUMNS)]
    for i in range(n_rows):
        b_e = rng.uniform(5.0, 80.0)
        a = rng.normal(size=(4, 4 - (i % 7 == 0))) * rng.choice([1e-3, 0.3, 40.0])
        cov = a @ a.T
        if i % 5 == 0:
            cov = np.diag(np.diag(cov))
            cov[0, 3] = cov[3, 0] = -0.0
        numbers = [rng.uniform(-500.0, 2500.0), rng.uniform(-500.0, 2500.0),
                   b_e * rng.uniform(1.0, 1.3), b_e, rng.uniform(-1.5, 1.5), *cov[upper]]
        lines.append(",".join([image_ids[i % len(image_ids)], f"e{i}",
                               *map(repr, map(float, numbers))]))
    return "\n".join(lines) + "\n"


def test_full_covariance_file_is_read_as_row_by_row(ellipse_export):
    # The test scenes carry diagonal covariances only; here every branch of
    # the covariance check sees over a thousand rows.
    cameras, _ = ellipse_export
    text = _full_covariance_text(cameras)
    _loaded_or_rejected(cameras, text)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ellipses.csv")
        with open(path, "w") as handle:
            handle.write(text)
        table = read_ellipse_table(path)
    assert len(table.keys) == 1200 and table.has_cov.all()
    off_diagonal = table.cov[:, ~np.eye(4, dtype=bool)]
    assert (off_diagonal != 0.0).any(axis=1).sum() == 960


def test_late_non_psd_covariance_is_reported_with_its_line(ellipse_export):
    cameras, _ = ellipse_export
    lines = _full_covariance_text(cameras).splitlines()
    cells = lines[1150].split(",")
    header = lines[0].split(",")
    # cov_ab beyond sqrt(cov_aa * cov_bb): the (a_e, b_e) block is indefinite.
    aa, bb = float(cells[header.index("cov_aa")]), float(cells[header.index("cov_bb")])
    cells[header.index("cov_ab")] = repr(2.0 * math.sqrt(aa * bb) + 1.0)
    lines[1150] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    _loaded_or_rejected(cameras, text)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ellipses.csv")
        with open(path, "w") as handle:
            handle.write(text)
        with pytest.raises(FileFormatError) as info:
            read_ellipse_table(path)
    assert str(info.value) == f"{path}:1151: cov must be symmetric positive semi-definite"


_REPORT_ID = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\u00e9", "\u2603", "\U0001f600", "\x00\x1f\x7f"])
_REPORT_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])


@PROPERTY
@given(rows=st.lists(st.tuples(_REPORT_ID, _REPORT_ID, _REPORT_FLOAT, _REPORT_FLOAT,
                               st.booleans()), max_size=4),
       k=st.floats(0.0, 10.0, exclude_min=True))
def test_gate_report_text_is_indented_sorted_json(rows, k):
    keys = [(image_id, ellipse_id) for image_id, ellipse_id, _, _, _ in rows]
    tau, sigma_tau, accepted = (np.array([row[i] for row in rows], dtype=dtype)
                                for i, dtype in ((2, float), (3, float), (4, bool)))
    payload = {"ellipses": [{"image_id": image_id, "ellipse_id": ellipse_id,
                             "tau": t, "sigma_tau": s, "k": k, "accepted": a}
                            for image_id, ellipse_id, t, s, a in rows]}
    assert (gate_report_text(keys, tau, sigma_tau, k, accepted)
            == json.dumps(payload, indent=2, sort_keys=True) + "\n")


_CAMERA_ID = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
_CAMERA_FLOAT = st.floats(-1e6, 1e6)


@st.composite
def _camera_networks(draw):
    """Networks of 1 to 4 views with random poses and interior orientation,
    some with an interior-orientation covariance, and tie points."""
    ids = draw(st.lists(_CAMERA_ID, min_size=1, max_size=4, unique=True))
    views = []
    for image_id in ids:
        rot = _rotation(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
        iop_cov = draw(st.none() | st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3)
                       .map(np.diag))
        views.append(CameraView(image_id, draw(st.floats(1e-3, 1e6)), draw(_CAMERA_FLOAT),
                                draw(_CAMERA_FLOAT), rot,
                                draw(st.tuples(*[_CAMERA_FLOAT] * 3)), iop_cov=iop_cov))
    ties = []
    if len(ids) >= 2:
        ties = [TiePoint(np.array(draw(st.tuples(*[_CAMERA_FLOAT] * 3))),
                         draw(st.frozensets(st.sampled_from(ids), min_size=2)))
                for _ in range(draw(st.integers(0, 3)))]
    return ImageNetwork(views, ties)


def _network_fields(network):
    return ([(v.image_id, repr((v.f, v.px, v.py)), v.rot.tobytes(), v.t.tobytes(),
              None if v.iop_cov is None else v.iop_cov.tobytes()) for v in network.views],
            [(tp.xyz.tobytes(), tp.visible_in) for tp in network.tie_points])


def _network_or_error(load, path):
    """``_network_fields`` of the network that ``load`` reads from ``path``,
    or the type and message of the ValueError it raises."""
    try:
        return _network_fields(load(path))
    except ValueError as exc:  # FileFormatError among them
        return type(exc), str(exc)


@PROPERTY
@given(network=_camera_networks())
def test_camera_file_round_trips_exactly(network):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "cameras.json")
        save_network(network, path)
        assert _network_fields(load_network(path)) == _network_fields(network)


# JSON values a camera file might hold where another was expected.
_JSON_VALUE = st.sampled_from([None, True, False, 0, -1, 2.5, 1e-300, 10 ** 400, math.nan,
                               math.inf, "", "abc", "img-00", [], {}, [0.0, 1.0],
                               [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                               {"image_id": "img-00"}, [None], ["img-00"]])


@st.composite
def _mutated_json(draw, data):
    """``data`` after one to four random edits of its JSON tree."""
    data = json.loads(json.dumps(data))
    for _ in range(draw(st.integers(1, 4))):
        # Walk down from the root to a random container and edit one slot.
        node = data
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)):
                node = child
                continue
            edit = draw(st.sampled_from(["set", "delete", "repeat"]))
            if edit == "set":  # a copy: later edits may change it in place
                node[key] = json.loads(json.dumps(draw(_JSON_VALUE)))
            elif edit == "delete":
                del node[key]
            elif isinstance(node, list):
                node.insert(key, json.loads(json.dumps(child)))
            break
    return data


@pytest.fixture(scope="module")
def camera_export(ellipse_export):
    """The parsed camera file of ``ellipse_export`` and its ellipse file."""
    cameras, rows = ellipse_export
    with open(cameras) as handle:
        data = json.load(handle)
    return data, "\n".join(",".join(row) for row in rows) + "\n"


@settings(PROPERTY, max_examples=200)
@given(data=st.data())
def test_mutated_camera_file_is_loaded_or_rejected(camera_export, data):
    cameras, ellipses_text = camera_export
    mutated = data.draw(_mutated_json(cameras))
    with tempfile.TemporaryDirectory() as root:
        path, ellipses = os.path.join(root, "cameras.json"), os.path.join(root, "e.csv")
        with open(path, "w") as handle:
            json.dump(mutated, handle)
        with open(ellipses, "w") as handle:
            handle.write(ellipses_text)
        assert (_network_or_error(load_network, path)
                == _network_or_error(reference_load_network, path))
        code = main(["filter", "--cameras", path, "--ellipses", ellipses,
                     "--out", os.path.join(root, "kept.csv"),
                     "--report", os.path.join(root, "report.json")])
    assert code in (0, 2)


@pytest.mark.parametrize("edit, error", [
    ("flat-and-nested-rot", None),
    ("iop-cov", None),
    ("non-orthonormal-second-view", "bad view entry (rot is not orthonormal (||R^T R - I|| = "),
    ("reflection", "bad view entry (rot must be a proper rotation (det +1))"),
    ("zero-focal-length", "bad view entry (focal length must be positive, got 0.0)"),
    ("huge-principal-point", "bad view entry (camera py must lie within 2^200 px, got -1e+300)"),
    ("huge-rotation", "bad view entry (rot is not orthonormal (||R^T R - I|| = inf))"),
    ("nan-translation", "bad view entry (camera t must be finite)"),
    ("huge-translation",
     "bad view entry (camera t must lie within 2^300 world units, got [1e+300, 0.0, 0.0])"),
    ("huge-tie-point",
     "bad tie point entry (tie point xyz must lie within 2^300 world units, got [1e+300, "),
    ("translation-at-the-world-limit", None),
    ("non-psd-iop-cov-on-last-view", "bad view entry (iop_cov must be symmetric positive"),
    ("missing-image-id", "bad view entry ('image_id')"),
    ("bad-view-before-missing-field", "bad view entry (focal length must be positive"),
    ("missing-field-before-bad-view", "bad view entry ('px')"),
    ("tie-point-with-2-coordinates",
     "bad tie point entry (cannot reshape array of size 2 into shape (3,))"),
    ("tie-point-with-6-coordinates",
     "bad tie point entry (cannot reshape array of size 6 into shape (3,))"),
    ("every-tie-point-with-6-coordinates",
     "bad tie point entry (cannot reshape array of size 6 into shape (3,))"),
    ("nested-tie-points", None),
    ("numeric-string-tie-point", None),
    ("nan-tie-point", "bad tie point entry (tie point xyz must be finite)"),
    ("null-tie-point-coordinate", "bad tie point entry (tie point xyz must be finite)"),
    ("null-tie-point", "bad tie point entry (cannot reshape array of size 1 into shape (3,))"),
    ("string-tie-point", "bad tie point entry (could not convert string to float: 'abc')"),
    ("missing-xyz", "bad tie point entry ('xyz')"),
    ("visible-in-not-a-list", "bad tie point entry ('int' object is not iterable)"),
    ("visible-in-unknown-image", "cameras.json: tie point references unknown images ['nope']"),
    ("visible-in-one-image", "cameras.json: each tie point must be visible in at least two"),
    ("nan-tie-point-before-missing-xyz", "bad tie point entry (tie point xyz must be finite)"),
    ("bad-tie-point-after-bad-view", "bad view entry (focal length must be positive"),
    ("repeated-image-id", "cameras.json: duplicate image ids in network"),
    ("numeric-string-focal-length", None),
    ("rot-with-8-numbers", "bad view entry (cannot reshape array of size 8 into shape (3,3))"),
    ("iop-cov-with-4-numbers",
     "bad view entry (cannot reshape array of size 4 into shape (3,3))"),
    ("nine-iop-covs-with-4-numbers",
     "bad view entry (cannot reshape array of size 4 into shape (3,3))")])
def test_edited_camera_file_is_loaded_or_rejected(camera_export, edit, error):
    # Explicit examples of the fuzz test above: the stacked checks must pass
    # and reject the views and tie points that CameraView and TiePoint do,
    # and the first bad entry must raise its own message.
    cameras, _ = camera_export
    data = json.loads(json.dumps(cameras))
    views, ties = data["views"], data["tie_points"]
    rot = np.reshape(views[1]["rot"], (3, 3))
    if edit == "flat-and-nested-rot":
        views[1]["rot"] = rot.tolist()
    elif edit == "iop-cov":
        views[0]["iop_cov"] = np.diag([0.1, 0.2, 0.4]).ravel().tolist()
        views[2]["iop_cov"] = [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    elif edit == "non-orthonormal-second-view":
        views[1]["rot"] = (rot * 1.001).ravel().tolist()
    elif edit == "reflection":
        views[1]["rot"] = (-rot).ravel().tolist()
    elif edit == "zero-focal-length":
        views[1]["f"] = 0.0
    elif edit == "huge-principal-point":
        views[1]["py"] = -1e300
    elif edit == "huge-rotation":
        views[1]["rot"] = (rot * 1e300).ravel().tolist()
    elif edit == "nan-translation":
        views[1]["t"][2] = math.nan
    elif edit == "huge-translation":
        views[1]["t"] = [1e300, 0.0, 0.0]
    elif edit == "huge-tie-point":
        data["tie_points"][0]["xyz"][0] = 1e300
    elif edit == "translation-at-the-world-limit":
        views[1]["t"] = [-2.0 ** 300, 2.0 ** 300, 0.0]
        data["tie_points"][0]["xyz"] = [2.0 ** 300, 0.0, -2.0 ** 300]
    elif edit == "non-psd-iop-cov-on-last-view":
        views[0]["iop_cov"] = np.diag([0.1, 0.2, 0.4]).ravel().tolist()
        views[-1]["iop_cov"] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    elif edit == "missing-image-id":
        del views[1]["image_id"]
    elif edit == "bad-view-before-missing-field":
        views[1]["f"] = -1.0
        del views[2]["px"]
    elif edit == "missing-field-before-bad-view":
        del views[1]["px"]
        views[2]["f"] = -1.0
    elif edit == "tie-point-with-2-coordinates":
        ties[1]["xyz"] = ties[1]["xyz"][:2]
    elif edit == "tie-point-with-6-coordinates":
        ties[1]["xyz"] = ties[1]["xyz"] * 2
    elif edit == "every-tie-point-with-6-coordinates":
        for entry in ties:
            entry["xyz"] = entry["xyz"] * 2
    elif edit == "nested-tie-points":
        for entry in ties:
            entry["xyz"] = [[x] for x in entry["xyz"]]
    elif edit == "numeric-string-tie-point":
        ties[1]["xyz"] = [repr(x) for x in ties[1]["xyz"]]
    elif edit == "nan-tie-point":
        ties[1]["xyz"][2] = math.nan
    elif edit == "null-tie-point-coordinate":
        ties[1]["xyz"][0] = None
    elif edit == "null-tie-point":
        ties[1]["xyz"] = None
    elif edit == "string-tie-point":
        ties[1]["xyz"] = "abc"
    elif edit == "missing-xyz":
        del ties[1]["xyz"]
    elif edit == "visible-in-not-a-list":
        ties[1]["visible_in"] = 5
    elif edit == "visible-in-unknown-image":
        ties[1]["visible_in"] = [views[0]["image_id"], "nope"]
    elif edit == "visible-in-one-image":
        ties[1]["visible_in"] = [views[0]["image_id"]]
    elif edit == "nan-tie-point-before-missing-xyz":
        ties[1]["xyz"][0] = math.nan
        del ties[2]["xyz"]
    elif edit == "bad-tie-point-after-bad-view":
        views[1]["f"] = -1.0
        ties[0]["xyz"][0] = math.nan
    elif edit == "repeated-image-id":
        views[2]["image_id"] = views[1]["image_id"]
    elif edit == "numeric-string-focal-length":
        views[1]["f"] = repr(views[1]["f"])
    elif edit == "rot-with-8-numbers":
        views[1]["rot"] = rot.ravel().tolist()[:8]
    elif edit == "iop-cov-with-4-numbers":
        views[1]["iop_cov"] = [1.0, 0.0, 0.0, 1.0]
    elif edit == "nine-iop-covs-with-4-numbers":  # 9 x 4 numbers fill four 3x3 matrices
        for entry in views[:9]:
            entry["iop_cov"] = [1.0, 0.0, 0.0, 1.0]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "cameras.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        loaded = _network_or_error(load_network, path)
        assert loaded == _network_or_error(reference_load_network, path)
    if error is None:
        assert isinstance(loaded[0], list) and len(loaded[0]) == len(views)
    else:
        assert loaded[0] is FileFormatError and error in loaded[1]


_NAME = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_REAL = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _sphere_entries(draw):
    """Sphere file entries with any finite model values and any gate values."""
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        views = draw(st.lists(_NAME, min_size=1, max_size=3))
        model = SphereModel(
            sphere=Sphere(draw(st.tuples(_REAL, _REAL, _REAL)),
                          draw(st.floats(0.0, exclude_min=True, allow_infinity=False))),
            per_view_radii=[(image_id, draw(_REAL)) for image_id in views],
            radius_spread=draw(_REAL), triangulation_residual=draw(_REAL),
            scale_applied=draw(st.none() | _REAL))
        ellipses = [(image_id, draw(_NAME)) for image_id in views]
        rows = [{"image_id": image_id, "ellipse_id": ellipse_id, "tau": draw(_REPORT_FLOAT),
                 "sigma_tau": draw(_REPORT_FLOAT), "k": draw(_REAL),
                 "accepted": draw(st.booleans())}
                for image_id, ellipse_id in ellipses]
        entries.append(SphereEntry(draw(_NAME), model, ellipses, rows))
    return entries


def _sphere_fields(entries):
    """Every field of the entries, floats by repr and arrays by bytes."""
    return [(e.sphere_id, e.model.sphere.center.tobytes(), repr(e.model.sphere.radius),
             e.model.sphere.frame, repr(e.model.per_view_radii), repr(e.model.radius_spread),
             repr(e.model.triangulation_residual), repr(e.model.scale_applied), e.ellipses,
             [repr(sorted(row.items())) for row in e.gate_reports])
            for e in entries]


@PROPERTY
@given(entries=_sphere_entries())
def test_sphere_file_round_trips_exactly(entries):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "spheres.json")
        save_spheres(entries, path)
        assert _sphere_fields(load_spheres(path)) == _sphere_fields(entries)


# Any float a writer may meet, the ones json spells specially among them.
_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                            2.2e-308, 1e308, -1e308])


def _floats(draw, n):
    return np.array(draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)), dtype=float)


@st.composite
def _any_sphere_entries(draw):
    """Sphere entries with any float in every float field, and any ids."""
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        sphere = Sphere([0.0, 0.0, 0.0], 1.0)  # then given fields no Sphere would accept
        sphere.center, sphere.radius = _floats(draw, 3), draw(_ANY_FLOAT)
        radii = draw(st.lists(st.tuples(_REPORT_ID, _ANY_FLOAT), max_size=3))
        model = SphereModel(sphere, radii, draw(_ANY_FLOAT), draw(_ANY_FLOAT),
                            draw(st.none() | _ANY_FLOAT))
        ellipses = draw(st.lists(st.tuples(_REPORT_ID, _REPORT_ID), max_size=3))
        rows = [{"image_id": image_id, "ellipse_id": ellipse_id, "tau": draw(_ANY_FLOAT),
                 "sigma_tau": draw(_ANY_FLOAT), "k": draw(_ANY_FLOAT),
                 "accepted": draw(st.booleans())}
                for image_id, ellipse_id in draw(st.lists(st.tuples(_REPORT_ID, _REPORT_ID),
                                                          max_size=3))]
        entries.append(SphereEntry(draw(_REPORT_ID), model, ellipses, rows))
    return entries


@st.composite
def _any_networks(draw):
    """Networks with any float in every float field, and any ids; some views
    have an iop_cov, and some networks no tie point."""
    ids = draw(st.lists(_REPORT_ID, max_size=4, unique=True))
    views = [CameraView._trusted({
        "image_id": image_id, "f": draw(_ANY_FLOAT), "px": draw(_ANY_FLOAT),
        "py": draw(_ANY_FLOAT), "rot": _floats(draw, 9).reshape(3, 3), "t": _floats(draw, 3),
        "iop_cov": _floats(draw, 9).reshape(3, 3) if draw(st.booleans()) else None})
        for image_id in ids]
    ties = [TiePoint._trusted({"xyz": _floats(draw, 3),
                               "visible_in": draw(st.frozensets(st.sampled_from(ids),
                                                                min_size=2))})
            for _ in range(draw(st.integers(0, 3) if len(ids) >= 2 else st.just(0)))]
    return ImageNetwork(views, ties)


def _written(save, value) -> str:
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "out.json")
        save(value, path)
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()


@PROPERTY
@given(entries=_any_sphere_entries(), network=_any_networks())
def test_sphere_and_camera_files_are_indented_sorted_json(entries, network):
    # The payloads the writers built before they wrote from templates.
    spheres = {"spheres": [{
        "sphere_id": e.sphere_id, "center": [float(x) for x in e.model.sphere.center],
        "radius": e.model.sphere.radius,
        "per_view_radii": [[i, r] for i, r in e.model.per_view_radii],
        "radius_spread": e.model.radius_spread,
        "triangulation_residual_px": e.model.triangulation_residual,
        "ellipses": [{"image_id": i, "ellipse_id": j} for i, j in e.ellipses],
        "gate_reports": e.gate_reports, "scale_applied": e.model.scale_applied}
        for e in entries]}
    cameras = {"convention": CONVENTION, "views": [{
        "image_id": v.image_id, "f": v.f, "px": v.px, "py": v.py,
        "rot": [float(x) for x in v.rot.ravel()], "t": [float(x) for x in v.t],
        **({} if v.iop_cov is None else {"iop_cov": [float(x) for x in v.iop_cov.ravel()]})}
        for v in network.views]}
    if network.tie_points:
        cameras["tie_points"] = [{"xyz": [float(x) for x in tp.xyz],
                                  "visible_in": sorted(tp.visible_in)}
                                 for tp in network.tie_points]
    for save, value, payload in ((save_spheres, entries, spheres),
                                 (save_network, network, cameras)):
        assert _written(save, value) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# One whitespace-free PLY token; ``str.split`` splits on the excluded ones.
_PLY_TOKEN = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                     min_size=1, max_size=5)
_PLY_TYPE = st.sampled_from(["float", "double", "int", "uchar", "float32", "int16"])


@st.composite
def _ply_clouds(draw):
    properties = draw(st.lists(st.tuples(_PLY_TYPE, _PLY_TOKEN), min_size=1, max_size=5))
    rows = draw(st.lists(st.lists(_PLY_TOKEN, min_size=len(properties),
                                  max_size=len(properties)), max_size=4))
    comments = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                                   blacklist_characters="\r\n"), max_size=8),
                             max_size=3))
    return PlyCloud(properties=properties, rows=rows, comments=comments)


@PROPERTY
@given(cloud=_ply_clouds())
def test_ply_file_round_trips_exactly(cloud):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "cloud.ply")
        save_ply(cloud, path)
        back = load_ply(path)
    assert (back.properties, back.rows, back.comments) == \
        (cloud.properties, cloud.rows, cloud.comments)


@pytest.fixture(scope="module")
def sphere_export(tmp_path_factory):
    """A valid sphere file and PLY cloud, and the parsed sphere file."""
    root = tmp_path_factory.mktemp("spheres")
    model = SphereModel(Sphere([0.1, -0.2, 0.3], 0.05), [("img-00", 0.049), ("img-01", 0.051)],
                        0.001, 0.4)
    rows = [{"image_id": i, "ellipse_id": "ball-0", "tau": 0.001, "sigma_tau": 0.002, "k": 2.0,
             "accepted": True} for i in ("img-00", "img-01")]
    spheres, cloud = str(root / "spheres.json"), str(root / "cloud.ply")
    save_spheres([SphereEntry("s000", model, [("img-00", "ball-0"), ("img-01", "ball-0")],
                              rows)], spheres)
    save_ply(PlyCloud([("float", "x"), ("float", "y"), ("int", "z"), ("uchar", "red")],
                      [["0.5", "1.5", "2", "255"], ["-1e3", "0", "7", "0"]], ["made here"]),
             cloud)
    with open(spheres) as handle:
        return spheres, cloud, json.load(handle)


def _scale(spheres, cloud, root):
    return main(["scale", "--spheres", spheres, "--anchors", "s000:0.1", "--points", cloud,
                 "--out-points", os.path.join(root, "o.ply"),
                 "--out", os.path.join(root, "o.json")])


@settings(PROPERTY, max_examples=200)
@given(data=st.data())
def test_mutated_sphere_file_is_loaded_or_rejected(sphere_export, data):
    _, cloud, parsed = sphere_export
    mutated = data.draw(_mutated_json(parsed))
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "spheres.json")
        with open(path, "w") as handle:
            json.dump(mutated, handle)
        try:
            load_spheres(path)
        except FileFormatError:
            pass
        assert _scale(path, cloud, root) in (0, 2)


_PLY_EDIT_TOKEN = st.sampled_from(["", "ply", "format", "ascii", "binary_little_endian", "1.0",
                                   "element", "vertex", "face", "property", "list", "float",
                                   "int", "x", "y", "z", "end_header", "comment", "0", "3",
                                   "-1", "nan", "1e308", "abc", "99999999999999999999"])


@st.composite
def _mutated_ply(draw, text):
    """``text`` after one to four random edits of its lines and tokens."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        r = draw(st.integers(0, len(lines) - 1))
        c = draw(st.integers(0, len(lines[r])))
        edit = draw(st.sampled_from(["drop line", "repeat line", "set token", "insert token",
                                     "drop token"]))
        if edit == "drop line":
            del lines[r]
        elif edit == "repeat line":
            lines.insert(r, list(lines[r]))
        elif edit == "insert token":
            lines[r].insert(c, draw(_PLY_EDIT_TOKEN))
        elif c < len(lines[r]):
            if edit == "set token":
                lines[r][c] = draw(_PLY_EDIT_TOKEN)
            else:
                del lines[r][c]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(PROPERTY, max_examples=200)
@given(data=st.data())
def test_mutated_ply_file_is_loaded_or_rejected(sphere_export, data):
    spheres, cloud, _ = sphere_export
    with open(cloud) as handle:
        text = data.draw(_mutated_ply(handle.read()))
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "cloud.ply")
        with open(path, "w") as handle:
            handle.write(text)
        try:
            load_ply(path)
        except FileFormatError:
            pass
        assert _scale(spheres, path, root) in (0, 2)


#: A small valid scene config, so that each example runs a short sweep.
_CONFIG = {"n_cameras": 4, "n_tie_points": 8, "spheres": [["a", [0.0, 0.0, 0.1], 0.1],
                                                          ["b", [0.3, 0.0, 0.08], 0.08]],
           "clutter_per_image": 1, "sigma_px": 0.3, "seed": 3}


@settings(PROPERTY, max_examples=100)
@given(data=st.data())
def test_mutated_scene_config_is_loaded_or_rejected(data):
    mutated = data.draw(_mutated_json(_CONFIG))
    try:
        SceneConfig.from_dict(mutated)
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "config.json")
        with open(path, "w") as handle:
            json.dump(mutated, handle)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--config", path, "--k", "2",
                         "--out", os.path.join(root, "stats.csv")])
    # 3 and 4 are the documented codes of a valid config whose scene is
    # infeasible or whose network has no admissible pair.
    assert code in (0, 2) or (code, stderr.getvalue().split(":")[0]) in \
        ((3, "error"), (4, "error")), stderr.getvalue()


@st.composite
def _pair_matches(draw):
    """Pairwise matches over 2-6 views and 1-4 ellipse ids, with distances
    from a small set so that ties are common; a view pair may come in either
    order, and a pairing may repeat or conflict with another."""
    views = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    ids = [f"e{i}" for i in range(draw(st.integers(1, 4)))]
    match = st.tuples(st.sampled_from([0.5, 1.0, 1.0, 2.0]), st.sampled_from(views),
                      st.sampled_from(views), st.sampled_from(ids), st.sampled_from(ids))
    matches = [m for m in draw(st.lists(match, max_size=30)) if m[1] != m[2]]
    return matches + draw(st.lists(st.sampled_from(matches), max_size=5)) if matches else []


@settings(PROPERTY, max_examples=1000)
@given(matches=_pair_matches())
def test_merge_tracks_equals_union_find(matches):
    # Each match ends in its index, as a match ends in its solve row in
    # reconstruct_gated, so that a two-view track names the match that formed it.
    got = _merge_tracks([(*match, index) for index, match in enumerate(matches)])
    want = reference_merge_tracks(matches)
    tracks = [track for track, _ in got]
    assert tracks == want
    assert [list(track.items()) for track in tracks] == [list(track.items()) for track in want]
    for track, index in got:
        if len(track) == 2:
            _, vid_l, vid_k, eid_l, eid_k = matches[index]
            assert list(track.items()) == [(vid_l, eid_l), (vid_k, eid_k)]
        elif len(track) == 1:
            assert index is None
