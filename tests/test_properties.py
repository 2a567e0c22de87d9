"""Property-based checks of the closed forms (needs ``hypothesis``)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spherefit import Sphere, center_from_single_view, project_sphere, tau  # noqa: E402

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
