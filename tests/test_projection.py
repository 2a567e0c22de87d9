import math

import numpy as np
import pytest

from oracles import (
    center_from_single_view,
    look_at_view,
    pinhole_pixel,
    projected_sphere_center,
    silhouette_ellipse,
)
from spherefit import (
    CameraView,
    DegenerateProjection,
    EllipseObservation,
    Sphere,
    fold_axis_angle,
    project_sphere,
    radius_from_depth,
    world_to_camera,
)
from spherefit.projection import PIXEL_LIMIT, is_psd, pinhole


def identity_view(f=1.0, px=0.0, py=0.0):
    return CameraView(image_id="cam", f=f, px=px, py=py,
                      rot=np.eye(3), t=np.zeros(3))


def project(view, point):
    return np.array(pinhole(world_to_camera(point, view), view.f, view.px, view.py))


class TestProjectiveMatrix:
    def test_principal_axis_point(self):
        assert np.allclose(project(identity_view(), [0, 0, 1]), [0, 0])

    def test_hand_computed_pixel(self):
        view = identity_view(f=1000.0, px=500.0, py=500.0)
        assert np.allclose(project(view, [1, 0, 10]), [600, 500])

    def test_on_axis_point_with_translation(self):
        view = CameraView(image_id="cam", f=1000.0, px=320.0, py=240.0,
                          rot=np.eye(3), t=np.array([0.0, 0.0, 5.0]))
        assert np.allclose(project(view, [0, 0, 5]), [320, 240])


class TestRigidTransform:
    def test_identity_pose(self):
        view = identity_view()
        p = np.array([1.2, -0.3, 4.0])
        assert np.allclose(world_to_camera(p, view), p)

    def test_quarter_turn_about_z(self):
        # camera frame rotated +90 deg about Z relative to the world
        rot = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        view = CameraView(image_id="cam", f=1.0, px=0.0, py=0.0,
                          rot=rot, t=np.zeros(3))
        assert np.allclose(world_to_camera([1, 0, 0], view), [0, -1, 0])

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            view = look_at_view("cam", rng.normal(size=3) * 5 + 10, rng.normal(size=3))
            p = rng.normal(size=3) * 3
            back = view.rot.T @ (world_to_camera(p, view) - view.t)
            assert np.allclose(back, p, atol=1e-12)
            assert np.allclose(world_to_camera(view.center, view), 0.0, atol=1e-12)


class TestProjectSphere:
    def test_on_axis_sphere_is_circle_at_principal_point(self):
        e = project_sphere(Sphere([0, 0, 10], 1.0, frame="camera"), 1000.0, 500.0, 500.0)
        expected = 1000.0 / math.sqrt(99.0)
        assert math.isclose(e.a_e, expected, rel_tol=1e-12)
        assert math.isclose(e.b_e, expected, rel_tol=1e-12)
        assert (e.x_ce, e.y_ce) == (500.0, 500.0)
        assert e.theta == 0.0

    def test_off_axis_sphere_closed_form(self):
        e = project_sphere(Sphere([1, 0, 10], 1.0, frame="camera"), 1000.0, 500.0, 500.0)
        assert math.isclose(e.a_e, 10000.0 / 99.0, rel_tol=1e-12)
        assert math.isclose(e.b_e, 1000.0 / math.sqrt(99.0), rel_tol=1e-12)
        assert math.isclose(e.x_ce, 500.0 + 10000.0 / 99.0, rel_tol=1e-12)
        assert math.isclose(e.y_ce, 500.0, abs_tol=1e-12)
        assert e.theta == 0.0

    def test_off_axis_sphere_against_silhouette_oracle(self):
        e = project_sphere(Sphere([1, 0, 10], 1.0, frame="camera"), 1000.0, 500.0, 500.0)
        x0, y0, a, b, _ = silhouette_ellipse([1, 0, 10], 1.0, 1000.0, 500.0, 500.0)
        assert math.isclose(e.x_ce, x0, rel_tol=1e-6)
        assert math.isclose(e.y_ce, y0, rel_tol=1e-6)
        assert math.isclose(e.a_e, a, rel_tol=1e-6)
        assert math.isclose(e.b_e, b, rel_tol=1e-6)

    def test_sphere_above_axis_has_vertical_major_axis(self):
        e = project_sphere(Sphere([0, 2, 8], 0.5, frame="camera"), 1000.0, 500.0, 500.0)
        assert math.isclose(abs(e.theta), math.pi / 2.0)

    @pytest.mark.parametrize("z", [0.5, 1.0, 1.0 + 1e-12])
    def test_depth_must_clear_radius(self, z):
        with pytest.raises(DegenerateProjection):
            project_sphere(Sphere([0, 0, z], 1.0, frame="camera"), 1000.0, 500.0, 500.0)

    def test_oracle_equivalence_random_configurations(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            z = rng.uniform(5.0, 30.0)
            x = rng.uniform(0.05, 0.5) * z * rng.choice([-1.0, 1.0])
            y = rng.uniform(0.05, 0.5) * z * rng.choice([-1.0, 1.0])
            r = rng.uniform(0.2, z / 4.0)
            f = rng.uniform(800.0, 3000.0)
            px, py = rng.uniform(300.0, 2000.0, 2)
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), f, px, py)
            x0, y0, a, b, theta = silhouette_ellipse([x, y, z], r, f, px, py)
            assert math.isclose(e.x_ce, x0, rel_tol=1e-6)
            assert math.isclose(e.y_ce, y0, rel_tol=1e-6)
            assert math.isclose(e.a_e, a, rel_tol=1e-6)
            assert math.isclose(e.b_e, b, rel_tol=1e-6)
            dtheta = abs(fold_axis_angle(e.theta - theta))
            assert dtheta <= 1e-6 * max(1.0, abs(e.theta))

    def test_axis_ordering(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(3.0, 50.0)
            x, y = rng.uniform(-0.6, 0.6, 2) * z
            r = rng.uniform(0.1, z / 3.5)
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), 1500.0, 960.0, 540.0)
            assert e.a_e >= e.b_e
            if x * x + y * y > 0.0:
                assert e.a_e > e.b_e
        on_axis = project_sphere(Sphere([0, 0, 7], 1.0, frame="camera"), 1500.0, 0.0, 0.0)
        assert abs(on_axis.a_e - on_axis.b_e) <= 1e-12 * on_axis.a_e


class TestProjectedSphereCenter:
    def test_collapses_at_principal_point(self):
        e = EllipseObservation("", "e", 500.0, 500.0, 120.0, 100.0, 0.0)
        assert np.allclose(projected_sphere_center(e, 1000.0, 500.0, 500.0), [500, 500])

    def test_equals_direct_projection_of_center(self):
        e = project_sphere(Sphere([1, 0, 10], 1.0, frame="camera"), 1000.0, 500.0, 500.0)
        corrected = projected_sphere_center(e, 1000.0, 500.0, 500.0)
        assert abs(corrected[0] - 600.0) <= 1e-9
        assert abs(corrected[1] - 500.0) <= 1e-9

    def test_vanishing_minor_axis_limit(self):
        e = EllipseObservation("", "e", 700.0, 300.0, 1.0, 1e-9, 0.0)
        assert np.allclose(projected_sphere_center(e, 1000.0, 500.0, 500.0),
                           [700.0, 300.0], atol=1e-12)

    def test_eccentricity_displacement_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.uniform(4.0, 40.0)
            x, y = rng.uniform(-0.5, 0.5, 2) * z
            r = rng.uniform(0.2, z / 4.0)
            f, px, py = 2000.0, 960.0, 540.0
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), f, px, py)
            corrected = projected_sphere_center(e, f, px, py)
            direct = pinhole_pixel([x, y, z], f, px, py)
            assert np.linalg.norm(corrected - direct) < 1e-9
            if x * x + y * y > 0.0 and e.b_e > 1.0:
                displacement = np.hypot(e.x_ce - corrected[0], e.y_ce - corrected[1])
                assert displacement > 1e-12


class TestSingleViewRecovery:
    def test_unit_radius_at_principal_point(self):
        e = EllipseObservation("", "e", 500.0, 500.0, 1000.0, 1000.0, 0.0)
        sphere = center_from_single_view(e, 1000.0, 500.0, 500.0, 1.0)
        assert np.allclose(sphere.center, [0.0, 0.0, math.sqrt(2.0)], rtol=1e-12)

    def test_round_trip_recovers_center(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = rng.uniform(0.1, 2.0)
            z = rng.uniform(3.0 * r, 100.0 * r)
            x, y = rng.uniform(-0.5, 0.5, 2) * z
            f, px, py = rng.uniform(500.0, 4000.0), 1000.0, 600.0
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), f, px, py)
            back = center_from_single_view(e, f, px, py, r)
            assert np.linalg.norm(back.center - [x, y, z]) < 1e-9 * np.linalg.norm([x, y, z])

    def test_center_scales_linearly_with_radius(self):
        e = project_sphere(Sphere([2, -1, 12], 0.7, frame="camera"), 1500.0, 400.0, 300.0)
        one = center_from_single_view(e, 1500.0, 400.0, 300.0, 1.0)
        two = center_from_single_view(e, 1500.0, 400.0, 300.0, 2.0)
        assert np.allclose(two.center, 2.0 * one.center, rtol=1e-14)


class TestRadiusFromDepth:
    def test_equal_focal_and_minor_axis(self):
        assert math.isclose(radius_from_depth(1.0, 1000.0, 1000.0), 1.0 / math.sqrt(2.0))

    def test_inverse_of_unit_example(self):
        assert math.isclose(radius_from_depth(math.sqrt(2.0), 1000.0, 1000.0), 1.0,
                            rel_tol=1e-12)

    def test_inverts_projection_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            r = rng.uniform(0.05, 3.0)
            z = rng.uniform(1.5 * r, 80.0 * r)
            x, y = rng.uniform(-0.4, 0.4, 2) * z
            f = rng.uniform(400.0, 5000.0)
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), f, 0.0, 0.0)
            assert math.isclose(radius_from_depth(z, e.b_e, f), r, rel_tol=1e-12)


class TestValidation:
    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraView("cam", 1000.0, 0.0, 0.0, np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_reflection(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="proper rotation"):
            CameraView("cam", 1000.0, 0.0, 0.0, rot, np.zeros(3))

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError, match="focal"):
            CameraView("cam", 0.0, 0.0, 0.0, np.eye(3), np.zeros(3))

    def test_rejects_indefinite_iop_cov(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="iop_cov"):
            CameraView("cam", 1000.0, 0.0, 0.0, np.eye(3), np.zeros(3), iop_cov=bad)

    def test_rejects_non_finite_iop_cov(self):
        # An inf off-diagonal against a finite mirror passed the symmetry
        # test and reached the eigensolver, which raised LinAlgError.
        bad = np.eye(3)
        bad[0, 2] = math.inf
        with pytest.raises(ValueError, match="camera iop_cov must be finite"):
            CameraView("cam", 1000.0, 0.0, 0.0, np.eye(3), np.zeros(3), iop_cov=bad)

    @pytest.mark.parametrize("cov", [
        np.triu(np.ones((4, 4))),              # not symmetric
        np.diag([1.0, 1.0, 1.0, -1.0]),        # indefinite
        np.full((4, 4), math.nan)])            # non-finite
    def test_rejects_invalid_ellipse_cov(self, cov):
        # The only check an ellipse covariance gets: the gate trusts it.
        with pytest.raises(ValueError, match="cov"):
            EllipseObservation("", "e", 0.0, 0.0, 2.0, 1.0, 0.0, cov=cov)

    def test_rejects_swapped_axes(self):
        with pytest.raises(ValueError, match="semi-major"):
            EllipseObservation("", "e", 0.0, 0.0, 1.0, 2.0, 0.0)

    def test_folds_theta_into_half_open_interval(self):
        e = EllipseObservation("", "e", 0.0, 0.0, 2.0, 1.0, math.pi / 2.0)
        assert e.theta == -math.pi / 2.0
        assert fold_axis_angle(math.pi) == 0.0
        assert fold_axis_angle(-math.pi / 2.0) == -math.pi / 2.0

    @pytest.mark.parametrize("field", ["x_ce", "y_ce", "a_e", "b_e", "theta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_ellipse_parameters(self, field, value):
        params = dict(x_ce=0.0, y_ce=0.0, a_e=2.0, b_e=1.0, theta=0.0)
        params[field] = value
        with pytest.raises(ValueError, match="finite"):
            EllipseObservation("", "e", **params)

    @pytest.mark.parametrize("field, value", [
        ("f", math.inf), ("px", math.nan), ("py", math.nan),
        ("rot", np.full((3, 3), math.nan)), ("t", [0.0, math.nan, 0.0])])
    def test_rejects_non_finite_camera(self, field, value):
        params = dict(f=1000.0, px=0.0, py=0.0, rot=np.eye(3), t=np.zeros(3))
        params[field] = value
        with pytest.raises(ValueError, match="finite"):
            CameraView("cam", **params)

    @pytest.mark.parametrize("field, value, message", [
        ("f", 2.0 ** 201, r"camera f must lie within 2\^200 px"),
        ("px", -1e300, r"camera px must lie within 2\^200 px"),
        ("py", 1e300, r"camera py must lie within 2\^200 px"),
        ("rot", np.eye(3) * 1e300, r"\|\|R\^T R - I\|\| = inf")],
        ids=["f", "px", "py", "rot"])
    def test_rejects_huge_camera(self, field, value, message):
        # Finite, but the gate's closed forms (f, px, py) or R^T R (rot)
        # would overflow, a warning and so an error under the test suite.
        params = dict(f=1000.0, px=0.0, py=0.0, rot=np.eye(3), t=np.zeros(3))
        params[field] = value
        with pytest.raises(ValueError, match=message):
            CameraView("cam", **params)

    def test_accepts_camera_at_pixel_limit(self):
        view = CameraView("cam", PIXEL_LIMIT, -PIXEL_LIMIT, PIXEL_LIMIT, np.eye(3), np.zeros(3))
        assert (view.f, view.px, view.py) == (PIXEL_LIMIT, -PIXEL_LIMIT, PIXEL_LIMIT)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_sphere_center(self, value):
        with pytest.raises(ValueError, match="finite"):
            Sphere([0.0, value, 5.0], 1.0)

    @pytest.mark.parametrize("x, y, a, b", [(1e308, 0.0, 5.0, 4.0), (0.0, -2.0 ** 201, 5.0, 4.0),
                                            (0.0, 0.0, 2.0 ** 201, 4.0),
                                            (0.0, 0.0, 5.0, 2.0 ** -201)])
    def test_rejects_ellipse_beyond_pixel_limit(self, x, y, a, b):
        with pytest.raises(ValueError, match=r"2\^-?200 px"):
            EllipseObservation("", "e", x, y, a, b, 0.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Sphere([0, 0, 5], 0.0)


@pytest.mark.parametrize("m, psd", [
    ([[1e308, 1e308], [1e308, 1e308]], True),     # m + m.T overflowed
    ([[1.0, 1e308], [-1e308, 1.0]], False),       # m - m.T overflowed
    ([[1e308, 1.7e308], [1.7e308, 1e308]], False),  # indefinite; the trace overflowed
    ([[1.7e308, 0.0, 1.0], [0.0, 1.7e308, 0.0], [1.0, 0.0, 1.0]], True),
    (np.diag([1e308, 1e308, -3e299]), False),     # the diagonal's trace overflowed
    (np.diag([1e307, 1e307, -3e298]), False),
    (np.diag([1e308, 1e308, -1e299]), True)])
def test_is_psd_near_the_float_limit(m, psd):
    # Finite matrices: the right answer, and no overflow warning (an error
    # under the test suite's warning filter).
    assert is_psd(np.array(m)) is psd
