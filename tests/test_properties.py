"""Property-based checks of the closed forms and of pair scoring (needs
``hypothesis``)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    center_from_single_view,
    look_at_view,
    reference_best_pair,
    reference_convergence_angle,
    reference_network_overlap,
)
from spherefit import (  # noqa: E402
    DEFAULT_MIN_ANGLE,
    CameraView,
    DegenerateGeometry,
    DegenerateProjection,
    ImageNetwork,
    NoAdmissiblePair,
    PairScore,
    Sphere,
    SphereModel,
    TiePoint,
    apply_scale,
    best_pair,
    project_sphere,
    project_sphere_into_view,
    reconstruct_sphere,
    tau,
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
