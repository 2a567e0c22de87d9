import dataclasses
import math

import numpy as np
import pytest

from oracles import golden_section_minimize, look_at_view, midpoint_triangulation
from spherefit import (
    CameraView,
    DegenerateGeometry,
    DegenerateProjection,
    EllipseObservation,
    EmptyInput,
    InvalidAnchor,
    Sphere,
    SphereModel,
    apply_scale,
    metric_scale,
    project_point,
    project_sphere_into_view,
    reconstruct_sphere,
    reconstruct_tracks,
    triangulate_center,
    view_record,
)


def two_view_rig(angle_deg=40.0, distance=10.0, f=1000.0):
    half = math.radians(angle_deg) / 2.0
    centers = [distance * np.array([math.sin(sign * half), 0.0, -math.cos(half)])
               for sign in (-1.0, 1.0)]
    return [look_at_view(f"cam{i}", c, [0.0, 0.0, 0.0], f=f) for i, c in enumerate(centers)]


def arc_rig(n_views, arc_deg=90.0, distance=10.0, f=1000.0):
    views = []
    for i in range(n_views):
        phi = math.radians(arc_deg) * (i / max(n_views - 1, 1) - 0.5)
        center = distance * np.array([math.sin(phi), 0.0, -math.cos(phi)])
        views.append(look_at_view(f"cam{i}", center, [0.0, 0.0, 0.0], f=f))
    return views


class TestTriangulateCenter:
    def test_two_exact_views(self):
        views = two_view_rig()
        point = np.array([0.3, -0.2, 0.5])
        obs = [(v, project_point(point, v)) for v in views]
        assert np.linalg.norm(triangulate_center(obs) - point) < 1e-9

    def test_point_on_common_baseline_is_degenerate(self):
        # Two parallel cameras with the target on their shared viewing axis:
        # both rays coincide, so no unique intersection exists.
        a = CameraView("a", 1000.0, 500.0, 500.0, np.eye(3), np.zeros(3))
        b = CameraView("b", 1000.0, 500.0, 500.0, np.eye(3), np.array([0.0, 0.0, 5.0]))
        point = np.array([0.0, 0.0, 5.0])
        obs = [(a, project_point(point, a)), (b, project_point(point, b))]
        with pytest.raises(DegenerateGeometry):
            triangulate_center(obs)

    def test_needs_two_views(self):
        view = two_view_rig()[0]
        with pytest.raises(ValueError):
            triangulate_center([(view, np.array([500.0, 500.0]))])

    def test_noise_statistics_match_midpoint_oracle(self):
        views = arc_rig(10)
        point = np.array([0.1, 0.2, 0.3])
        rng = np.random.default_rng(21)
        errors_dlt, errors_mid = [], []
        for _ in range(100):
            pixels = [project_point(point, v) + rng.normal(0.0, 0.5, 2) for v in views]
            est = triangulate_center(list(zip(views, pixels)))
            rays = []
            for v, pix in zip(views, pixels):
                direction = v.rot.T @ np.array([(pix[0] - v.px) / v.f,
                                                (pix[1] - v.py) / v.f, 1.0])
                rays.append((v.center, direction))
            mid = midpoint_triangulation(rays)
            errors_dlt.append(np.linalg.norm(est - point))
            errors_mid.append(np.linalg.norm(mid - point))
        rms_dlt = math.sqrt(np.mean(np.square(errors_dlt)))
        rms_mid = math.sqrt(np.mean(np.square(errors_mid)))
        assert 0.5 <= rms_dlt / rms_mid <= 2.0


class TestReconstructSphere:
    def test_exact_two_view_round_trip(self):
        views = two_view_rig(angle_deg=40.0)
        sphere = Sphere([0.0, 0.0, 0.0], 1.0)
        matched = [(v, project_sphere_into_view(sphere, v)) for v in views]
        model = reconstruct_sphere(matched)
        assert np.linalg.norm(model.sphere.center - sphere.center) < 1e-9
        assert abs(model.sphere.radius - 1.0) < 1e-9
        assert model.radius_spread < 1e-9
        assert model.triangulation_residual < 1e-6

    def test_exact_for_any_view_count_and_convergence(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = rng.integers(2, 7)
            angle = rng.uniform(6.0, 174.0)
            views = arc_rig(int(n), arc_deg=angle)
            sphere = Sphere(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.2, 1.5))
            matched = [(v, project_sphere_into_view(sphere, v)) for v in views]
            model = reconstruct_sphere(matched)
            err_c = np.linalg.norm(model.sphere.center - sphere.center)
            scale = max(np.linalg.norm(sphere.center), sphere.radius)
            assert err_c < 1e-9 * scale
            assert abs(model.sphere.radius - sphere.radius) < 1e-9 * sphere.radius
            radii = [r for _, r in model.per_view_radii]
            assert math.isclose(model.sphere.radius, float(np.mean(radii)), rel_tol=1e-12)

    def test_permutation_invariance(self):
        views = arc_rig(6, arc_deg=70.0)
        sphere = Sphere([0.2, -0.1, 0.4], 0.8)
        matched = [(v, project_sphere_into_view(sphere, v)) for v in views]
        forward = reconstruct_sphere(matched)
        backward = reconstruct_sphere(matched[::-1])
        assert np.allclose(forward.sphere.center, backward.sphere.center, atol=1e-12)
        assert math.isclose(forward.sphere.radius, backward.sphere.radius,
                            abs_tol=1e-12)

    def test_consistent_radius_ratios_across_spheres(self):
        views = arc_rig(5, arc_deg=80.0)
        spheres = [Sphere([0.4, 0.1, 0.0], 0.5), Sphere([-0.5, -0.2, 0.1], 0.9),
                   Sphere([0.0, 0.4, -0.2], 0.25)]
        estimates = []
        for s in spheres:
            matched = [(v, project_sphere_into_view(s, v)) for v in views]
            estimates.append(reconstruct_sphere(matched).sphere.radius)
        for i in range(len(spheres)):
            for j in range(i + 1, len(spheres)):
                truth = spheres[i].radius / spheres[j].radius
                assert math.isclose(estimates[i] / estimates[j], truth, rel_tol=1e-6)

    def test_center_behind_camera_is_degenerate_projection(self):
        views = two_view_rig()
        sphere = Sphere([0.0, 0.0, 0.0], 1.0)
        matched = [(v, project_sphere_into_view(sphere, v)) for v in views]
        # A camera looking away from the triangulated center sees it at
        # negative depth.
        away = look_at_view("away", [0.0, 0.0, -10.0], [0.0, 0.0, -20.0])
        fake = project_sphere_into_view(sphere, views[0])
        fake = type(fake)(away.image_id, "fake", fake.x_ce, fake.y_ce,
                          fake.a_e, fake.b_e, fake.theta)
        with pytest.raises(DegenerateProjection):
            reconstruct_sphere(matched + [(away, fake)])

class TestBatchedTracks:
    def test_degenerate_rows_are_dropped_and_good_rows_unchanged(self):
        views = arc_rig(3, arc_deg=60.0)
        spheres = [Sphere([0.2, -0.1, 0.3], 0.6), Sphere([-0.4, 0.2, 0.0], 0.4),
                   Sphere([0.0, 0.3, -0.2], 0.3)]
        seen = {v.image_id: [project_sphere_into_view(s, v, ellipse_id=f"s{i}")
                             for i, s in enumerate(spheres)] for v in views}
        # Behind a camera: the third view looks away from the center.
        away = look_at_view("away", [0.0, 0.0, -10.0], [0.0, 0.0, -20.0])
        seen["away"] = [dataclasses.replace(seen["cam2"][0], image_id="away")]
        # Rank-deficient: both cameras see the point on their shared axis.
        a = CameraView("a", 1000.0, 500.0, 500.0, np.eye(3), np.zeros(3))
        b = CameraView("b", 1000.0, 500.0, 500.0, np.eye(3), np.array([0.0, 0.0, 5.0]))
        on_axis = project_sphere_into_view(Sphere([0.0, 0.0, 5.0], 0.5), a, ellipse_id="p")
        seen["a"], seen["b"] = [on_axis], [dataclasses.replace(on_axis, image_id="b")]
        records = [view_record(v, seen[v.image_id]) for v in views + [away, a, b]]
        pairs = {(r.view.image_id, e.ellipse_id): (r.view, e) for r in records for e in r.ellipses}

        def track(ellipse_id, *image_ids):
            return {image_id: ellipse_id for image_id in image_ids}

        behind, coaxial = track("s0", "cam0", "cam1", "away"), track("p", "a", "b")
        tracks = [track("s0", "cam0", "cam1", "cam2"), behind,
                  track("s1", "cam0", "cam1", "cam2"), coaxial,
                  track("s2", "cam0", "cam1", "cam2"), track("s1", "cam0", "cam1")]
        models = reconstruct_tracks(records, tracks)
        assert models[1] is None and models[3] is None
        for t, model in zip(tracks, models):
            if model is None:
                continue
            single = reconstruct_sphere([pairs[key] for key in t.items()])
            assert np.array_equal(model.sphere.center, single.sphere.center)
            assert model.sphere.radius == single.sphere.radius
            assert model.per_view_radii == single.per_view_radii
            assert model.radius_spread == single.radius_spread
            assert model.triangulation_residual == single.triangulation_residual
        with pytest.raises(DegenerateProjection, match="'away'"):
            reconstruct_sphere([pairs[key] for key in behind.items()])
        with pytest.raises(DegenerateGeometry, match="rank-deficient"):
            reconstruct_sphere([pairs[key] for key in coaxial.items()])


def on_axis_track(radii, distance=10.0, f=1000.0):
    """One view per radius, each seeing a circle at its principal point whose
    size makes that view's radius estimate the given value.

    The views all look at the origin from ``distance``, so the corrected
    centers triangulate to the origin at that depth in every view.
    """
    views = arc_rig(len(radii), arc_deg=60.0, distance=distance, f=f)
    track = []
    for v, r in zip(views, radii):
        b = r * f / math.sqrt(distance * distance - r * r)
        track.append((v, EllipseObservation(v.image_id, "s", v.px, v.py, b, b, 0.0)))
    return track


class TestRadiusLeastSquares:
    def test_identical_values(self):
        model = reconstruct_sphere(on_axis_track([1.0, 1.0, 1.0]))
        radii = [r for _, r in model.per_view_radii]
        assert radii[0] == radii[1] == radii[2]
        assert math.isclose(radii[0], 1.0, rel_tol=1e-12)
        assert math.isclose(model.sphere.radius, radii[0], rel_tol=1e-15)
        assert model.radius_spread < 1e-15

    def test_symmetric_pair(self):
        model = reconstruct_sphere(on_axis_track([0.9, 1.1]))
        radii = [r for _, r in model.per_view_radii]
        assert math.isclose(radii[0], 0.9, rel_tol=1e-12)
        assert math.isclose(radii[1], 1.1, rel_tol=1e-12)
        assert math.isclose(model.sphere.radius, 1.0, rel_tol=1e-12)
        assert math.isclose(model.radius_spread, 0.1, rel_tol=1e-10)

    def test_mean_minimizes_sum_of_squares(self):
        # Noisy semi-axes make the per-view radii differ; the model radius is
        # their least-squares fit.
        rng = np.random.default_rng(17)
        for _ in range(20):
            views = arc_rig(int(rng.integers(2, 9)), arc_deg=60.0)
            sphere = Sphere(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.2, 1.5))
            matched = []
            for v in views:
                e = project_sphere_into_view(sphere, v)
                grow = 1.0 + rng.normal(0.0, 0.01)
                matched.append((v, EllipseObservation(v.image_id, "s", e.x_ce, e.y_ce,
                                                      grow * e.a_e, grow * e.b_e, e.theta)))
            model = reconstruct_sphere(matched)
            radii = np.array([r for _, r in model.per_view_radii])
            wide = radii.astype(np.longdouble)

            def cost(r):
                # extended precision keeps the cost resolvable near the
                # minimum, where float64 differences fall below round-off
                return np.sum((np.longdouble(r) - wide) ** 2)

            best = golden_section_minimize(cost, radii.min(), radii.max())
            assert math.isclose(model.sphere.radius, float(best), abs_tol=1e-9)


class TestMetricScale:
    def test_single_anchor_ratio(self):
        result = metric_scale([(10.0, 5.0)])
        assert result.s_r == 2.0

    def test_consistent_anchors(self):
        result = metric_scale([(10.0, 10.0), (6.0, 6.0)])
        assert result.s_r == 1.0
        assert result.residual_rmse < 1e-15

    def test_norm_ratio_for_inconsistent_anchors(self):
        result = metric_scale([(2.0, 1.0), (2.0, 2.0)])
        assert math.isclose(result.s_r, 1.2649110640673518, rel_tol=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InvalidAnchor):
            metric_scale([(1.0, 0.0)])
        with pytest.raises(InvalidAnchor):
            metric_scale([(-1.0, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            metric_scale([])


class TestApplyScale:
    def test_identity(self):
        sphere = Sphere([1.0, 2.0, 3.0], 2.0)
        scaled = apply_scale(sphere, 1.0)
        assert np.allclose(scaled.center, sphere.center)
        assert scaled.radius == sphere.radius

    def test_half_scale(self):
        scaled = apply_scale(Sphere([1.0, 2.0, 3.0], 2.0), 0.5)
        assert np.allclose(scaled.center, [0.5, 1.0, 1.5])
        assert scaled.radius == 1.0

    def test_group_inverse(self):
        sphere = Sphere([0.3, -0.7, 1.9], 0.41)
        back = apply_scale(apply_scale(sphere, 3.7), 1.0 / 3.7)
        assert np.allclose(back.center, sphere.center, atol=1e-12)
        assert math.isclose(back.radius, sphere.radius, abs_tol=1e-12)

    def test_model_scaling_tracks_factor(self):
        model = SphereModel(sphere=Sphere([1.0, 0.0, 0.0], 1.0),
                            per_view_radii=[("a", 0.9), ("b", 1.1)],
                            radius_spread=0.1, triangulation_residual=0.2)
        scaled = apply_scale(model, 2.0)
        assert scaled.scale_applied == 2.0
        assert scaled.per_view_radii == [("a", 1.8), ("b", 2.2)]
        assert scaled.radius_spread == 0.2
        assert scaled.triangulation_residual == 0.2  # pixel-space diagnostic
        again = apply_scale(scaled, 3.0)
        assert again.scale_applied == 6.0

    def test_points_array(self):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.allclose(apply_scale(pts, 2.0), pts * 2.0)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            apply_scale(Sphere([0, 0, 1], 1.0), 0.0)
