import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    calibration_matrix,
    center_sigma,
    epipolar_distance,
    fundamental_from_views,
    look_at_view,
    projected_sphere_center,
    reference_dlt_rows,
    reference_match_ellipses,
    record_of,
    reference_reconstruct_sphere,
    reprojection_distance,
)
from spherefit import (
    CameraView,
    DegenerateGeometry,
    EllipseObservation,
    SceneConfig,
    Sphere,
    best_pair,
    generate_scene,
    perturb_observations,
    fundamental_matrix,
    gather_ellipses,
    match_ellipses,
    project_sphere_into_view,
    reconstruct_sphere,
    reconstruct_subset,
    tau,
    view_records,
    world_to_camera,
)
from spherefit.projection import camera_arrays, pinhole
from spherefit.reconstruct import (_EIGH_TOL, AT_INFINITY, BEHIND_CAMERA, OK, RANK_DEFICIENT,
                                   _Solve, _solve)


def fundamental(view_l, view_k):
    """``fundamental_matrix`` of two views with no ellipses; it equals the
    per-pair reference to the bit."""
    f_mat = fundamental_matrix(record_of(view_l, []), record_of(view_k, []))
    assert f_mat.tobytes() == fundamental_from_views(view_l, view_k).tobytes()
    return f_mat


def translated_pair():
    left = CameraView("l", 1.0, 0.0, 0.0, np.eye(3), np.zeros(3))
    right = CameraView("k", 1.0, 0.0, 0.0, np.eye(3), np.array([-1.0, 0.0, 0.0]))
    return left, right


class TestFundamental:
    def test_pure_translation_along_x(self):
        left, right = translated_pair()
        f = fundamental(left, right)
        target = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        target = target / np.linalg.norm(target)
        assert min(np.abs(f - target).max(), np.abs(f + target).max()) < 1e-12

    def test_rank_two_for_random_poses(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = look_at_view("a", rng.normal(size=3) * 4 + [6, 0, 0], rng.normal(size=3))
            b = look_at_view("b", rng.normal(size=3) * 4 - [6, 0, 0], rng.normal(size=3))
            f = fundamental(a, b)
            s = np.linalg.svd(f, compute_uv=False)
            assert s[1] / s[0] > 1e-9
            assert s[2] / s[0] < 1e-12

    def test_projected_points_satisfy_constraint(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = look_at_view("a", [-2.0, 0.5, -8.0], [0.0, 0.0, 0.0])
            b = look_at_view("b", [3.0, -1.0, -7.0], [0.0, 0.0, 0.0])
            point = rng.uniform(-1.0, 1.0, 3)
            f = fundamental(a, b)
            xa = pinhole(world_to_camera(point, a), a.f, a.px, a.py)
            xb = pinhole(world_to_camera(point, b), b.f, b.px, b.py)
            assert epipolar_distance(f, xa, xb) < 1e-9

    def test_coincident_centers_raise(self):
        a = CameraView("a", 1000.0, 0.0, 0.0, np.eye(3), np.zeros(3))
        rot_b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        b = CameraView("b", 1000.0, 0.0, 0.0, rot_b, np.zeros(3))
        with pytest.raises(DegenerateGeometry):
            fundamental(a, b)


def nine_sphere_rig(f=3000.0):
    views = [look_at_view("l", [-1.5, -1.2, 1.2], [0.0, 0.0, 0.0], f=f,
                          px=1920.0, py=1080.0),
             look_at_view("k", [1.6, -1.1, 1.1], [0.0, 0.0, 0.0], f=f,
                          px=1920.0, py=1080.0)]
    spheres = []
    radii = [0.1, 0.06, 0.08, 0.09, 0.07, 0.085, 0.075, 0.095, 0.065]
    idx = 0
    for gx in (-0.35, 0.0, 0.35):
        for gy in (-0.35, 0.0, 0.35):
            spheres.append((f"ball-{idx}", Sphere([gx, gy, radii[idx]], radii[idx])))
            idx += 1
    obs = {v.image_id: [project_sphere_into_view(s, v, ellipse_id=sid)
                        for sid, s in spheres]
           for v in views}
    return views, spheres, obs


class TestEpipolarCandidates:
    """The epipolar prefilter of ``match_ellipses`` at a fixed tolerance."""

    def test_true_match_is_retained_exactly(self):
        views, spheres, obs = nine_sphere_rig()
        for e_l in obs["l"]:
            true_match = [e for e in obs["k"] if e.ellipse_id == e_l.ellipse_id]
            result = match_ellipses(record_of(views[0], [e_l]),
                                    record_of(views[1], true_match), tol=3.0)
            assert len(result.matches) == 1
            assert result.matches[0].epipolar_distance < 1e-9

    def test_displaced_candidate_is_removed(self):
        views, spheres, obs = nine_sphere_rig()
        e_l = obs["l"][0]
        e_k = obs["k"][0]
        shifted = EllipseObservation(e_k.image_id, e_k.ellipse_id,
                                     e_k.x_ce, e_k.y_ce + 50.0,
                                     e_k.a_e, e_k.b_e, e_k.theta)
        result = match_ellipses(record_of(views[0], [e_l]),
                                record_of(views[1], [shifted]), tol=3.0)
        assert result.matches == []
        assert result.unmatched_k == [shifted.ellipse_id]

    def test_noisy_retention_rate(self):
        views, spheres, obs = nine_sphere_rig()
        rng = np.random.default_rng(3)
        retained = 0
        trials = 1000
        for _ in range(trials):
            e_l = obs["l"][int(rng.integers(len(obs["l"])))]
            e_k = next(e for e in obs["k"] if e.ellipse_id == e_l.ellipse_id)

            def jitter(e):
                da, db, dx, dy = rng.normal(0.0, 0.5, 4)
                a, b = e.a_e + da, e.b_e + db
                if b > a:
                    a, b = b, a
                return EllipseObservation(e.image_id, e.ellipse_id,
                                          e.x_ce + dx, e.y_ce + dy, a, b, e.theta)

            result = match_ellipses(record_of(views[0], [jitter(e_l)]),
                                    record_of(views[1], [jitter(e_k)]), tol=3.0)
            retained += bool(result.matches)
        assert retained / trials >= 0.99


class TestReprojectionDistance:
    def e(self, x, y, a, b):
        return EllipseObservation("img", "e", x, y, a, b, 0.0)

    def test_identical(self):
        assert reprojection_distance(self.e(1, 2, 30, 20), self.e(1, 2, 30, 20)) == 0.0

    def test_pythagorean_centers(self):
        assert reprojection_distance(self.e(0, 0, 30, 20), self.e(3, 4, 30, 20)) == 5.0

    def test_unit_offsets(self):
        assert reprojection_distance(self.e(0, 0, 30, 20), self.e(1, 1, 31, 21)) == 2.0

    def test_cross_image_comparison_rejected(self):
        other = EllipseObservation("other", "e", 0.0, 0.0, 30.0, 20.0, 0.0)
        with pytest.raises(ValueError):
            reprojection_distance(self.e(0, 0, 30, 20), other)


class TestViewRecord:
    def test_arrays_follow_sorted_ids(self, lab_scene):
        view = lab_scene.views[0]
        ellipses = perturb_observations(lab_scene, 0.5, 7).observations[view.image_id][::-1]
        table = gather_ellipses([view], {view.image_id: ellipses})
        [record] = view_records([view], table, np.ones(len(ellipses), bool))
        ordered = sorted(ellipses, key=lambda e: e.ellipse_id)
        assert record.ids == [e.ellipse_id for e in ordered]
        assert record.hom[:, 2].tolist() == [1.0] * len(ordered)
        cov_of = dict(zip(table.keys, table.cov))
        for e, params, center, sigma in zip(ordered, record.params, record.hom[:, :2],
                                            record.sigmas):
            assert params.tolist() == [e.x_ce, e.y_ce, e.a_e, e.b_e]
            assert cov_of[view.image_id, e.ellipse_id].tobytes() == e.cov.tobytes()
            assert np.allclose(center, projected_sphere_center(e, view.f, view.px, view.py),
                               rtol=0.0, atol=1e-9)
            assert sigma == center_sigma(e) > 0.0
        assert table.has_cov.all()
        assert record.k_inv.tobytes() == np.linalg.inv(calibration_matrix(view)).tobytes()
        for center, normal in zip(record.hom[:, :2], record.normal):
            rows = reference_dlt_rows(view, center)
            assert np.allclose(normal, rows.T @ rows, rtol=0.0, atol=1e-15)

    def test_rows_without_cov_and_accepted_rows(self, lab_scene):
        view, other = lab_scene.views[:2]
        noisy = perturb_observations(lab_scene, 0.5, 7).observations[view.image_id]
        ellipses = [e if i % 2 else dataclasses.replace(e, cov=None)
                    for i, e in enumerate(noisy)]
        table = gather_ellipses([view, other], {view.image_id: ellipses, other.image_id:
                                                lab_scene.observations[other.image_id]})
        mine = np.arange(len(table.keys)) < len(ellipses)
        [record] = view_records([view], table, mine)  # rows of other images are left out
        by_id = {e.ellipse_id: e for e in ellipses}
        assert table.has_cov[mine].tolist() == [e.cov is not None for e in ellipses]
        assert not table.cov[~table.has_cov].any()
        has_cov = np.array([by_id[i].cov is not None for i in record.ids])
        assert not record.sigmas[~has_cov].any()
        # The gate's mask is over table rows; a record keeps its view's
        # accepted rows.
        accepted = np.arange(len(table.keys)) % 3 == 0
        [kept] = view_records([view], table, accepted)
        keep = np.array([accepted[table.keys.index((view.image_id, i))] for i in record.ids])
        assert kept.ids == [i for i, k in zip(record.ids, keep) if k]
        for name in ("params", "hom", "sigmas", "normal"):
            assert getattr(kept, name).tobytes() == getattr(record, name)[keep].tobytes()
        assert kept.image_id == view.image_id and kept.k_inv.tobytes() == record.k_inv.tobytes()
        [every] = view_records([view], table, np.ones(len(table.keys), bool))
        assert all(np.array_equal(a, b) for a, b in zip(every, record))

    def test_repeated_ellipse_id_rejected(self):
        scene = generate_scene(SceneConfig(seed=1))
        view = scene.view("img-00")
        ellipses = scene.observations["img-00"]
        twice = ellipses + [next(e for e in ellipses if e.ellipse_id == "ball-0")]
        with pytest.raises(ValueError) as raised:
            gather_ellipses([view], {"img-00": twice})
        assert str(raised.value) == "image 'img-00' repeats ellipse id 'ball-0'"
        with pytest.raises(ValueError) as gated:
            reconstruct_subset([view], {"img-00": twice})
        assert str(gated.value) == str(raised.value)

    def test_ellipses_of_another_image_rejected(self):
        scene = generate_scene(SceneConfig(seed=1))
        with pytest.raises(ValueError, match="'img-05'.*'img-00'"):
            gather_ellipses([scene.view("img-00")], {"img-00": scene.observations["img-05"]})
        untagged = [dataclasses.replace(e, image_id="") for e in scene.observations["img-05"]]
        table = gather_ellipses([scene.view("img-05")], {"img-05": untagged})
        assert table.keys == [("img-05", e.ellipse_id) for e in untagged]


class TestMatchEllipses:
    def test_zero_noise_matches_all_nine(self):
        views, spheres, obs = nine_sphere_rig()
        result = match_ellipses(record_of(views[0], obs["l"]), record_of(views[1], obs["k"]))
        assert len(result.matches) == 9
        assert result.unmatched_l == result.unmatched_k == []
        for m in result.matches:
            assert m.ellipse_l == m.ellipse_k
            assert m.reprojection_distance < 1e-6

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_invalid_tolerance(self, tol):
        views, _, obs = nine_sphere_rig()
        with pytest.raises(ValueError, match="tolerance"):
            match_ellipses(record_of(views[0], obs["l"]), record_of(views[1], obs["k"]),
                           tol=tol)

    def test_true_pairs_beat_false_pairs(self):
        views, spheres, obs = nine_sphere_rig()
        true_dist = {}
        false_best = math.inf
        for e_l in obs["l"]:
            for e_k in obs["k"]:
                single = match_ellipses(record_of(views[0], [e_l]),
                                        record_of(views[1], [e_k]), tol=1e9)
                if not single.matches:
                    continue
                d = single.matches[0].reprojection_distance
                if e_l.ellipse_id == e_k.ellipse_id:
                    true_dist[e_l.ellipse_id] = d
                else:
                    false_best = min(false_best, d)
        assert len(true_dist) == 9
        assert max(true_dist.values()) < false_best

    def test_single_candidate_pair(self):
        views, spheres, obs = nine_sphere_rig()
        left = record_of(views[0], obs["l"][:1])
        result = match_ellipses(left, record_of(views[1], obs["k"][:1]))
        assert len(result.matches) == 1
        off = match_ellipses(left, record_of(views[1], obs["k"][3:4]))
        assert off.matches == [] or off.matches[0].reprojection_distance > 1.0

    def test_swap_symmetry(self):
        views, spheres, obs = nine_sphere_rig()
        left, right = record_of(views[0], obs["l"]), record_of(views[1], obs["k"])
        forward = match_ellipses(left, right)
        backward = match_ellipses(right, left)
        fwd = {frozenset((m.ellipse_l, m.ellipse_k)) for m in forward.matches}
        bwd = {frozenset((m.ellipse_l, m.ellipse_k)) for m in backward.matches}
        assert fwd == bwd

    def test_winning_hypothesis_reprojects_as_silhouette(self):
        views, spheres, obs = nine_sphere_rig()
        result = match_ellipses(record_of(views[0], obs["l"]), record_of(views[1], obs["k"]))
        by_id = {side: {e.ellipse_id: e for e in obs[side]} for side in obs}
        for m in result.matches:
            model = reconstruct_sphere([(views[0], by_id["l"][m.ellipse_l]),
                                        (views[1], by_id["k"][m.ellipse_k])])
            for v in views:
                pred = project_sphere_into_view(model.sphere, v)
                assert abs(tau(pred, v.f, v.px, v.py)) < 1e-9

    def test_noisy_match_rate(self, lab_scene):
        pair = best_pair(lab_scene.network)
        view_l, view_k = lab_scene.view(pair.i), lab_scene.view(pair.j)
        rng = np.random.default_rng(99)
        cov = np.eye(4) * 0.25

        def jitter(e):
            da, db, dx, dy = rng.normal(0.0, 0.5, 4)
            a, b = e.a_e + da, e.b_e + db
            if b > a:
                a, b = b, a
            return EllipseObservation(e.image_id, e.ellipse_id, e.x_ce + dx,
                                      e.y_ce + dy, a, b, e.theta, cov=cov)

        correct = total = 0
        for _ in range(1000):
            result = match_ellipses(
                record_of(view_l, [jitter(e) for e in lab_scene.observations[pair.i]]),
                record_of(view_k, [jitter(e) for e in lab_scene.observations[pair.j]]))
            for m in result.matches:
                total += 1
                correct += (m.ellipse_l == m.ellipse_k)
        assert total > 0
        assert correct / total >= 0.95


def assert_same_matching(view_l, ellipses_l, view_k, ellipses_k):
    """The array matcher against the per-candidate reference loop; each
    matched pair's two-view sphere against the scalar reconstruction."""
    got = match_ellipses(record_of(view_l, ellipses_l), record_of(view_k, ellipses_k))
    want = reference_match_ellipses(view_l, ellipses_l, view_k, ellipses_k)
    assert [(m.ellipse_l, m.ellipse_k) for m in got.matches] == \
        [(m.ellipse_l, m.ellipse_k) for m in want.matches]
    assert got.unmatched_l == want.unmatched_l
    assert got.unmatched_k == want.unmatched_k
    by_id_l = {e.ellipse_id: e for e in ellipses_l}
    by_id_k = {e.ellipse_id: e for e in ellipses_k}
    for g, w in zip(got.matches, want.matches):
        assert abs(g.epipolar_distance - w.epipolar_distance) <= 1e-6
        assert abs(g.reprojection_distance - w.reprojection_distance) <= 1e-6
        matched = [(view_l, by_id_l[g.ellipse_l]), (view_k, by_id_k[g.ellipse_k])]
        model, ref = reconstruct_sphere(matched), reference_reconstruct_sphere(matched)
        scale = np.abs(ref.sphere.center).max()
        assert np.abs(model.sphere.center - ref.sphere.center).max() <= 1e-9 * scale
        assert math.isclose(model.sphere.radius, ref.sphere.radius, rel_tol=1e-9)
        assert [i for i, _ in model.per_view_radii] == [i for i, _ in ref.per_view_radii]
        assert abs(model.radius_spread - ref.radius_spread) <= 1e-6
        assert abs(model.triangulation_residual - ref.triangulation_residual) <= 1e-6
    return len(got.matches)


class TestArrayMatchingEqualsReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_default_scene(self, seed):
        noisy = perturb_observations(generate_scene(SceneConfig(seed=seed)), 0.5, seed)
        pair = best_pair(noisy.network)
        pairs = [(pair.i, pair.j)] + [(f"img-{i:02d}", f"img-{j:02d}")
                                      for i, j in ((0, 1), (0, 29), (3, 17), (12, 14), (28, 5))]
        kept = 0
        for i, j in pairs:
            kept += assert_same_matching(noisy.view(i), noisy.observations[i],
                                         noisy.view(j), noisy.observations[j])
        assert kept > 0

    def test_cluttered_ring(self):
        # Clutter inflated by only 2% sits inside the epipolar band often
        # enough to compete with the true silhouettes for partners.
        config = SceneConfig(n_cameras=12, placement="ring", clutter_per_image=10,
                             clutter_inflation=1.02, seed=4)
        noisy = perturb_observations(generate_scene(config), 0.5, 4)
        kept = 0
        for a in range(12):
            for b in range(a + 1, 12):
                view_l, view_k = noisy.views[a], noisy.views[b]
                kept += assert_same_matching(view_l, noisy.observations[view_l.image_id],
                                             view_k, noisy.observations[view_k.image_id])
        assert kept > 0

    def test_empty_view(self):
        views, _, obs = nine_sphere_rig()
        result = match_ellipses(record_of(views[0], []), record_of(views[1], obs["k"]))
        assert result.matches == [] and result.unmatched_l == []
        assert result.unmatched_k == sorted(e.ellipse_id for e in obs["k"])


class TestDegenerateHypotheses:
    """Hand-built records whose hypotheses take the SVD fallback or
    degenerate.  With every pairing admissible, the matcher equals the
    per-candidate reference by ``tobytes``, and its solve equals, array by
    array, the solve of all pairings called directly with the views' camera
    arrays."""

    SPHERES = [Sphere([x, y, 5.0], 0.1) for x, y in ((-0.5, 0.2), (0.0, 0.0), (0.4, -0.3))]

    @staticmethod
    def translated(baseline):
        left = CameraView("l", 1000.0, 500.0, 500.0, np.eye(3), np.zeros(3))
        right = CameraView("k", 1000.0, 500.0, 500.0, np.eye(3),
                           np.array([-baseline, 0.0, 0.0]))
        return left, right

    def silhouettes(self, view):
        return [project_sphere_into_view(s, view, ellipse_id=f"s{i}")
                for i, s in enumerate(self.SPHERES)]

    @staticmethod
    def matched(left, ellipses_l, right, ellipses_k, exact=True):
        record_l, record_k = record_of(left, ellipses_l), record_of(right, ellipses_k)
        got = match_ellipses(record_l, record_k, tol=1e9)
        want = reference_match_ellipses(left, ellipses_l, right, ellipses_k, tol=1e9)
        assert [(m.ellipse_l, m.ellipse_k) for m in got.matches] == \
            [(m.ellipse_l, m.ellipse_k) for m in want.matches]
        assert (got.unmatched_l, got.unmatched_k) == (want.unmatched_l, want.unmatched_k)
        if exact:
            distances = [np.array([(m.epipolar_distance, m.reprojection_distance)
                                   for m in result.matches]).tobytes() for result in (got, want)]
            assert distances[0] == distances[1]
        il, ik = np.divmod(np.arange(len(ellipses_l) * len(ellipses_k)), len(ellipses_k))
        hom = np.stack([record_l.hom[il], record_k.hom[ik]], axis=1)
        b_e = np.stack([record_l.params[il, 3], record_k.params[ik, 3]], axis=1)
        normal = record_l.normal[il] + record_k.normal[ik]
        f, px, py, rot, t = camera_arrays([left, right])
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = _solve(f, px, py, np.concatenate((rot, t[:, :, None]), axis=2),
                            hom[..., 0], hom[..., 1], b_e, normal)
        for name in _Solve._fields:
            assert getattr(got.solve, name).tobytes() == getattr(direct, name).tobytes(), name
        w = np.linalg.eigh(normal)[0]
        return got, ~(w[:, 1] > _EIGH_TOL * w[:, 3])

    @pytest.mark.parametrize("baseline", [1e-3, 1e-6])
    def test_near_coincident_baseline_takes_the_svd(self, baseline):
        left, right = self.translated(baseline)
        got, ill = self.matched(left, self.silhouettes(left), right, self.silhouettes(right))
        assert ill.any()
        assert set(got.solve.reason[ill].tolist()) == {OK}
        assert BEHIND_CAMERA in got.solve.reason
        assert sorted((m.ellipse_l, m.ellipse_k) for m in got.matches) == \
            [(f"s{i}", f"s{i}") for i in range(3)]

    def test_rank_deficient_rows_are_dropped(self):
        left, right = self.translated(1e-10)
        got, ill = self.matched(left, self.silhouettes(left), right, self.silhouettes(right),
                                exact=False)
        reason = got.solve.reason
        assert (reason[ill] == RANK_DEFICIENT).any()
        assert all(reason[row] == OK for row in got.rows)

    def test_parallel_rays_meet_at_infinity(self):
        left, right = self.translated(1.0)
        e = EllipseObservation("", "p", 600.0, 500.0, 30.0, 29.0, 0.0)
        got, _ = self.matched(left, [e], right, [e])
        assert got.solve.reason.tolist() == [AT_INFINITY] and got.matches == []

    def test_rays_crossing_behind_the_cameras(self):
        left, right = self.translated(1.0)
        e_l = EllipseObservation("", "p", 400.0, 500.0, 30.0, 29.0, 0.0)
        e_k = EllipseObservation("", "p", 500.0, 500.0, 30.0, 29.0, 0.0)
        got, _ = self.matched(left, [e_l], right, [e_k])
        assert got.solve.reason.tolist() == [BEHIND_CAMERA] and got.matches == []
