"""Property-based checks of the closed forms and of pair scoring (needs
``hypothesis``)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    reference_best_pair,
    reference_convergence_angle,
    reference_network_overlap,
)
from spherefit import (  # noqa: E402
    DEFAULT_MIN_ANGLE,
    CameraView,
    ImageNetwork,
    NoAdmissiblePair,
    PairScore,
    Sphere,
    TiePoint,
    best_pair,
    center_from_single_view,
    project_sphere,
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
