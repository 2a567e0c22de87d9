import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from oracles import p_rmse_combined, reference_generate_scene
from spherefit import (
    ConfigInfeasible,
    DegenerateGeometry,
    EmptyInput,
    SceneConfig,
    Sphere,
    SphereModel,
    best_pair,
    classify_spherical,
    generate_scene,
    monte_carlo_views,
    p_rmse,
    perturb_observations,
    reconstruct_subset,
)
from spherefit import synth
from spherefit.cli import main


class TestGenerateScene:
    def test_camera_looking_straight_down(self):
        # Distance 0 puts every camera above the target, its axis along -z.
        scene = generate_scene(SceneConfig(n_cameras=2, camera_distance=0.0))
        for view in scene.views:
            assert np.allclose(view.rot @ view.rot.T, np.eye(3), atol=1e-12)
            assert np.isclose(np.linalg.det(view.rot), 1.0)
            assert np.allclose(view.rot[2], [0.0, 0.0, -1.0])

    def test_on_axis_sphere_projects_to_circles(self):
        config = SceneConfig(n_cameras=2, arc_span_deg=60.0,
                             spheres=[["s", [0.0, 0.0, 0.0], 0.1]],
                             n_tie_points=6)
        scene = generate_scene(config)
        for view in scene.views:
            (e,) = scene.observations[view.image_id]
            assert math.isclose(e.a_e, e.b_e, rel_tol=1e-12)
            assert math.isclose(e.x_ce, view.px, abs_tol=1e-9)
            assert math.isclose(e.y_ce, view.py, abs_tol=1e-9)

    def test_view_lookup_by_id(self):
        scene = generate_scene(SceneConfig(n_cameras=4, n_tie_points=8))
        assert all(scene.view(v.image_id) is v for v in scene.views)
        with pytest.raises(KeyError):
            scene.view("img-04")

    def test_determinism(self):
        a = generate_scene(SceneConfig(clutter_per_image=3))
        b = generate_scene(SceneConfig(clutter_per_image=3))
        assert [v.image_id for v in a.views] == [v.image_id for v in b.views]
        for vid in a.observations:
            for ea, eb in zip(a.observations[vid], b.observations[vid]):
                assert (ea.x_ce, ea.y_ce, ea.a_e, ea.b_e, ea.theta) == \
                       (eb.x_ce, eb.y_ce, eb.a_e, eb.b_e, eb.theta)
        for ta, tb in zip(a.tie_points, b.tie_points):
            assert np.array_equal(ta.xyz, tb.xyz)
            assert ta.visible_in == tb.visible_in

    def test_default_scene_observations_pass_gate(self, lab_scene):
        count = 0
        for view in lab_scene.views:
            for e in lab_scene.observations[view.image_id]:
                report = classify_spherical(e, view.f, view.px, view.py, k=2.0)
                assert report.accepted
                count += 1
        assert count == 30 * 9

    def test_clutter_fails_gate(self):
        scene = generate_scene(SceneConfig(clutter_per_image=4))
        checked = 0
        for view in scene.views:
            for e in scene.observations[view.image_id]:
                if e.ellipse_id in scene.clutter_ids:
                    report = classify_spherical(e, view.f, view.px, view.py, k=2.0)
                    assert not report.accepted
                    checked += 1
        assert checked == 30 * 4

    def test_infeasible_sphere_raises(self):
        config = SceneConfig(spheres=[["s", [4.0, 0.0, 1.0], 0.1]])
        with pytest.raises(ConfigInfeasible, match="sphere 's' does not clear camera 'img-"):
            generate_scene(config)

    def test_placements(self):
        for placement in ("ring", "arc", "hemisphere"):
            scene = generate_scene(SceneConfig(n_cameras=6, placement=placement,
                                               n_tie_points=10))
            assert len(scene.views) == 6
        with pytest.raises(ValueError, match="placement"):
            generate_scene(SceneConfig(placement="grid"))

    def test_config_round_trip(self):
        config = SceneConfig(n_cameras=12, clutter_per_image=2, seed=9)
        text = json.dumps(dataclasses.asdict(config), sort_keys=True)
        back = SceneConfig.from_dict(json.loads(text))
        # from_dict turns lists into tuples, so compare the JSON text.
        assert json.dumps(dataclasses.asdict(back), sort_keys=True) == text
        with pytest.raises(ValueError, match="unknown scene config key"):
            SceneConfig.from_dict({"n_camera": 5})

    @pytest.mark.parametrize("data, match", [
        ({"spheres": None}, "'spheres'"),
        ({"spheres": [["ball", [0.0, 0.0], 0.1]]}, "'spheres'"),
        ({"spheres": [[1, [0.0, 0.0, 0.0], 0.1]]}, "'spheres'"),
        ([], "object"),
        ({"n_cameras": None}, "'n_cameras'"),
        ({"n_cameras": 4.0}, "'n_cameras'"),
        ({"seed": True}, "'seed'"),
        ({"f": "3000"}, "'f'"),
        ({"placement": 3}, "'placement'"),
        ({"look_at": [0.0, 0.0]}, "'look_at'"),
        # Sphere centers and radii and look_at are bounded by WORLD_LIMIT, as
        # cameras and tie points are: these used to overflow in scene
        # generation, fail with a message naming neither the key nor the
        # sphere, or end as an infeasible scene.
        ({"spheres": [["a", [1.7e308, -1.7e308, 1.7e308], 0.1]]}, "'spheres' sphere 'a'"),
        ({"spheres": [["a", [1e100, 0.0, 0.5], 0.1]]}, "'spheres' sphere 'a'"),
        ({"spheres": [["a", [0.0, math.nan, 0.5], 0.1]]}, "'spheres' sphere 'a'"),
        ({"spheres": [["b", [0.0, 0.0, 0.5], 1e308]]}, "'spheres' sphere 'b'"),
        ({"spheres": [["b", [0.0, 0.0, 0.5], math.nan]]}, "'spheres' sphere 'b'"),
        ({"look_at": [1e308, 0.0, 0.0]}, "'look_at'"),
        ({"look_at": [0.0, math.nan, 0.0]}, "'look_at'"),
        ({"look_at": [0.0, 0.0, -math.inf]}, "'look_at'"),
    ])
    def test_from_dict_rejects_mistyped_values(self, data, match):
        with pytest.raises(ValueError, match=match):
            SceneConfig.from_dict(data)

    def test_from_dict_accepts_integer_floats(self):
        config = SceneConfig.from_dict({"camera_distance": 3, "look_at": [0, 0, 1]})
        assert config.camera_distance == 3 and config.look_at == (0, 0, 1)


def _hex(values):
    return [float(x).hex() for x in values]


def _scene_bits(build, config):
    """Every value of the scene ``build(config)`` builds, floats as hex, or
    the type and text of the error it raises."""
    try:
        scene = build(config)
    except (ConfigInfeasible, ValueError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)
    return ([(v.image_id, _hex([v.f, v.px, v.py, *v.rot.ravel(), *v.t]), v.iop_cov)
             for v in scene.views],
            [(sid, _hex([*s.center, s.radius]), s.frame) for sid, s in scene.spheres],
            [(image_id, [(e.image_id, e.ellipse_id, e.cov,
                          _hex([e.x_ce, e.y_ce, e.a_e, e.b_e, e.theta])) for e in ellipses])
             for image_id, ellipses in scene.observations.items()],
            [(_hex(tp.xyz), sorted(tp.visible_in)) for tp in scene.tie_points],
            sorted(scene.clutter_ids), scene.config is config)


class TestArrayScene:
    """generate_scene's array passes against the scene built one item at a
    time: bit for bit, and the same error where the config fails."""

    @pytest.mark.parametrize("placement", ["arc", "ring", "hemisphere"])
    @pytest.mark.parametrize("clutter", [0, 3, 30])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_the_item_loops(self, placement, clutter, seed):
        config = SceneConfig(placement=placement, clutter_per_image=clutter, seed=seed)
        assert _scene_bits(generate_scene, config) == \
            _scene_bits(reference_generate_scene, config)

    @pytest.mark.parametrize("changes", [
        {"n_cameras": 0}, {"n_cameras": 1}, {"n_cameras": 0, "clutter_per_image": 3},
        {"spheres": []}, {"spheres": [], "n_tie_points": 0, "clutter_per_image": 2},
        {"n_tie_points": 0}, {"clutter_inflation": 1.02, "clutter_per_image": 5},
        {"clutter_inflation": 0.5, "clutter_per_image": 3}, {"tie_point_extent": 5.0},
        {"width": 100.0, "height": 50.0, "clutter_per_image": 2},
        {"placement": "ring", "n_cameras": 2, "camera_height": 0.0},
        {"f": 1.0, "clutter_per_image": 200}],
        ids=["no-cameras", "one-camera", "no-cameras-clutter", "no-spheres", "clutter-only",
             "no-tie-points", "inflation-1.02", "inflation-0.5", "wide-tie-points",
             "small-frame", "level-ring", "short-focal-clutter"])
    def test_edge_configs_are_bit_identical(self, changes):
        # With f = 1 px the clutter's squares are not swamped by f^2: there,
        # x * x in place of Python's x ** 2 (libm's pow) changes some a_e.
        config = SceneConfig.from_dict(changes)
        assert _scene_bits(generate_scene, config) == \
            _scene_bits(reference_generate_scene, config)

    def test_infeasible_config_text(self):
        config = SceneConfig.from_dict({"camera_distance": 0.3, "camera_height": 0.1})
        with pytest.raises(ConfigInfeasible) as caught:
            generate_scene(config)
        assert str(caught.value) == ("sphere 'ball-1' does not clear camera 'img-00' "
                                     "(sphere depth 0.00969976 does not clear radius 0.06)")
        assert _scene_bits(reference_generate_scene, config) == \
            ("ConfigInfeasible", str(caught.value))

    @pytest.mark.parametrize("spheres", [
        [["tiny", [-0.35, -0.35, 0.1], 1e-65], ["ball-1", [0.0, -0.35, 0.06], 0.06]],
        [["ball-1", [0.0, -0.35, 0.06], 0.06], ["tiny", [-0.35, -0.35, 0.1], 1e-65]],
        [["far", [1e200, 1e200, 1e200], 1e199]],
        [["huge", [1.7e308, -1.7e308, 1.7e308], 0.1]]],
        ids=["tiny-first", "infeasible-first", "far", "overflow"])
    @pytest.mark.parametrize("warn", ["error", "ignore"])
    def test_first_failing_sphere_raises_as_before(self, spheres, warn):
        # The first failing (view, sphere) in view-major order raises: a
        # semi-minor length below 2^-200 px, a depth that does not clear the
        # radius, or a center that overflows in the camera frame (which,
        # with RuntimeWarnings ignored, is a center that is not finite).
        config = SceneConfig(camera_distance=0.3, camera_height=0.1, spheres=spheres)
        with warnings.catch_warnings():
            warnings.simplefilter(warn, RuntimeWarning)
            got = _scene_bits(generate_scene, config)
            assert isinstance(got[0], str)
            assert got == _scene_bits(reference_generate_scene, config)

    def test_tie_point_at_depth_zero(self, monkeypatch):
        # Camera img-00 of a level ring of four sits at (2, 0, 0) and looks
        # along -x: the board points (2, 0.5) and (2, 0) have depth exactly 0
        # there (the second is its center), which is not in front and must
        # raise no division warning.
        class FixedDraws:
            def __init__(self, *key):
                self.values = iter([2.0, 0.5, 2.0, 0.0, 0.1, -0.2])

            def uniform(self, low, high, size=None):
                if size is None:
                    return next(self.values)
                return np.array([next(self.values) for _ in range(math.prod(size))],
                                dtype=float).reshape(size)

        monkeypatch.setattr(synth, "_rng", FixedDraws)
        monkeypatch.setattr(oracles, "_rng", FixedDraws)
        config = SceneConfig(placement="ring", n_cameras=4, camera_height=0.0, n_tie_points=3)
        got = _scene_bits(generate_scene, config)
        assert got == _scene_bits(reference_generate_scene, config)
        # The two at x = 2 are seen by img-02 alone, the last by all four.
        assert [sorted(tp.visible_in) for tp in generate_scene(config).tie_points] == \
            [["img-00", "img-01", "img-02", "img-03"]]


class TestPerturb:
    def test_zero_sigma_is_identity(self, lab_scene):
        same = perturb_observations(lab_scene, 0.0, 1)
        assert same is lab_scene

    def test_sample_mean_is_unbiased(self):
        # Clearly eccentric silhouette: with a - b >> sigma the ordering
        # repair never fires, so the noise must average out.
        config = SceneConfig(n_cameras=2, spheres=[["s", [0.4, 0.3, 0.1], 0.1]],
                             n_tie_points=0)
        scene = generate_scene(config)
        truth = scene.observations["img-00"][0].x_ce
        sigma = 0.5
        n = 100_000
        draws = np.empty(n)
        for s in range(n):
            noisy = perturb_observations(scene, sigma, s)
            draws[s] = noisy.observations["img-00"][0].x_ce
        assert abs(draws.mean() - truth) < 4.0 * sigma / math.sqrt(n)

    @pytest.mark.parametrize("sigma", [0.5, [0.1, 0.2, 0.3, 0.4]])
    def test_seeded_output_equals_per_row_draws(self, sigma):
        scene = generate_scene(SceneConfig(n_cameras=4, clutter_per_image=2,
                                           n_tie_points=8))
        seed = 11
        noisy = perturb_observations(scene, sigma, seed)
        # The stream perturb_observations draws from: child 1 of the seed,
        # one normal 4-vector per ellipse in sorted-image order.
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        sig = np.asarray(sigma, dtype=float) * np.ones(4)
        for image_id in sorted(scene.observations):
            for e, got in zip(scene.observations[image_id], noisy.observations[image_id]):
                da, db, dx, dy = rng.normal(0.0, sig)
                a, b = e.a_e + da, e.b_e + db
                if b > a:
                    a, b = b, a
                assert (got.x_ce, got.y_ce, got.a_e, got.b_e) == \
                    (e.x_ce + dx, e.y_ce + dy, max(a, max(b, 1e-6)), max(b, 1e-6))

    def test_stored_covariance_is_truthful(self, noisy_lab_scene):
        for obs in noisy_lab_scene.observations.values():
            for e in obs:
                assert np.array_equal(e.cov, np.eye(4) * 0.25)

    def test_invalid_noisy_row_rejected(self, lab_scene):
        # Rows are checked once, in column form, not as each is built.
        with pytest.raises(ValueError, match="noisy ellipse .* of image .* 2\\^200 px"):
            perturb_observations(lab_scene, 2.0 ** 200, 2)
        with pytest.raises(ValueError, match="sigma"):  # its covariance would overflow
            perturb_observations(lab_scene, 1e308, 2)

    def test_noisy_rows_share_one_read_only_covariance(self, noisy_lab_scene):
        covs = {id(e.cov) for obs in noisy_lab_scene.observations.values() for e in obs}
        assert len(covs) == 1
        e = noisy_lab_scene.observations["img-00"][0]
        with pytest.raises(ValueError):
            e.cov[0, 0] = 1.0

    def test_axis_order_preserved(self, lab_scene):
        noisy = perturb_observations(lab_scene, 3.0, 5)
        for obs in noisy.observations.values():
            for e in obs:
                assert e.a_e >= e.b_e > 0.0

    def test_per_parameter_sigma(self, lab_scene):
        noisy = perturb_observations(lab_scene, [0.0, 0.0, 1.0, 1.0], 3)
        exact = lab_scene.observations["img-00"][0]
        jittered = noisy.observations["img-00"][0]
        assert jittered.a_e == exact.a_e and jittered.b_e == exact.b_e
        assert jittered.x_ce != exact.x_ce
        assert np.array_equal(jittered.cov, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_rejects_negative_sigma(self, lab_scene):
        with pytest.raises(ValueError):
            perturb_observations(lab_scene, -0.1, 0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, [0.5, 0.5, math.nan, 0.5]])
    def test_rejects_non_finite_sigma(self, lab_scene, sigma):
        # NaN used to return the scene unchanged, as if sigma were 0.
        with pytest.raises(ValueError, match="sigma"):
            perturb_observations(lab_scene, sigma, 0)


class TestPRmse:
    def test_exact_estimate(self):
        truth = Sphere([1.0, 2.0, 3.0], 0.5)
        assert p_rmse(truth, truth) == (0.0, 0.0)

    def test_center_percentage(self):
        truth = Sphere([0.0, 0.0, 0.0], 2.0)
        est = Sphere([0.02, 0.0, 0.0], 2.0)  # offset 1% of the radius
        center, radius = p_rmse(est, truth)
        assert math.isclose(center, 1.0, rel_tol=1e-12)
        assert radius == 0.0

    def test_radius_percentage(self):
        truth = Sphere([0.0, 0.0, 0.0], 1.0)
        est = Sphere([0.0, 0.0, 0.0], 1.0062)
        center, radius = p_rmse(est, truth)
        assert math.isclose(radius, 0.62, rel_tol=1e-9)

    def test_accepts_models_and_checks_frames(self):
        truth = Sphere([0.0, 0.0, 0.0], 1.0)
        model = SphereModel(sphere=Sphere([0.01, 0.0, 0.0], 1.0),
                            per_view_radii=[("a", 1.0), ("b", 1.0)],
                            radius_spread=0.0, triangulation_residual=0.0)
        center, _ = p_rmse(model, truth)
        assert math.isclose(center, 1.0)
        with pytest.raises(ValueError, match="frame"):
            p_rmse(Sphere([0, 0, 1], 1.0, frame="camera:x"), truth)

    def test_combined_value(self):
        truth = Sphere([0.0, 0.0, 0.0], 1.0)
        est = Sphere([0.01, 0.0, 0.0], 1.01)
        combined = p_rmse_combined(est, truth)
        assert math.isclose(combined, 100.0 * math.sqrt((0.01 ** 2 + 0.01 ** 2) / 4.0))


@pytest.fixture(scope="module")
def small_scene():
    return generate_scene(SceneConfig(n_cameras=8, n_tie_points=16))


class TestMonteCarlo:
    def test_subset_counts(self, small_scene):
        stats = monte_carlo_views(small_scene, [2, 8], seed=0, timing=False)
        assert stats[0].k == 2 and stats[0].p == min(50, math.comb(8, 2))
        assert stats[1].k == 8 and stats[1].p == 1

    def test_lab_subset_count_is_capped(self, noisy_lab_scene):
        stats = monte_carlo_views(noisy_lab_scene, [2], seed=1, timing=False)
        assert stats[0].p == 50  # min(50, C(30, 2) = 435)

    def test_zero_noise_is_exact_for_every_k(self, small_scene):
        stats = monte_carlo_views(small_scene, [2, 4, 8], seed=3, timing=False)
        for s in stats:
            assert s.failures == 0
            assert s.center_max < 1e-6
            assert s.radius_max < 1e-6
            assert s.center_min <= s.center_mean <= s.center_max
            assert s.radius_min <= s.radius_mean <= s.radius_max

    def test_seed_determinism(self, small_scene):
        noisy = perturb_observations(small_scene, 0.5, 7)
        a = monte_carlo_views(noisy, [2, 4], seed=5, timing=False)
        b = monte_carlo_views(noisy, [2, 4], seed=5, timing=False)
        assert a == b

    def test_rejects_bad_subset_size(self, small_scene):
        with pytest.raises(ValueError):
            monte_carlo_views(small_scene, [1], seed=0)
        with pytest.raises(ValueError):
            monte_carlo_views(small_scene, [9], seed=0)

    def test_degenerate_trial_is_counted_and_left_out(self):
        # A 5-camera arc over 360 deg puts img-00 and img-04 at one center:
        # that pair of the 10 raises DegenerateGeometry, counts as the one
        # failed trial, and the statistics are those of the other 9.
        scene = generate_scene(SceneConfig(n_cameras=5, arc_span_deg=360.0))
        ids = [v.image_id for v in scene.views]
        subsets = list(itertools.combinations(ids, 2))
        with pytest.raises(DegenerateGeometry):
            reconstruct_subset([scene.view(i) for i in ("img-00", "img-04")], scene.observations)
        stats, _ = monte_carlo_views(scene, [2], 0, timing=False)
        others = [s for s in subsets if s != ("img-00", "img-04")]
        assert len(others) == 9
        rows = synth._trial_rows(scene, others)
        assert stats == dataclasses.replace(
            synth._trial_stats(2, "random", rows, False), p=10, failures=1)

    def test_a_trial_without_associated_spheres_fails(self):
        scene = generate_scene(SceneConfig(n_cameras=5, spheres=[]))
        for stats in monte_carlo_views(scene, [2, 3], 0, timing=False):
            assert stats.failures == stats.p > 0
            assert all(math.isnan(getattr(stats, name)) for name in (
                "center_mean", "center_min", "center_max", "radius_mean", "radius_min",
                "radius_max"))
            assert stats.mean_ms == 0.0

    def test_a_track_named_by_clutter_is_not_associated(self):
        config = SceneConfig(clutter_per_image=3, clutter_inflation=1.02, seed=3)
        scene = perturb_observations(generate_scene(config), 0.5, 3)
        models = reconstruct_subset([scene.view(i) for i in ("img-19", "img-23")],
                                    scene.observations)
        clutter = [model for track, model in models if track["img-19"] in scene.clutter_ids]
        assert len(clutter) == 1 and len(models) == 10
        assoc = synth._associate(models, dict(scene.spheres))
        assert sorted(assoc) == [sid for sid, _ in scene.spheres]
        assert all(model is not clutter[0] for model in assoc.values())

    def test_fails_before_the_first_trial(self, small_scene, tmp_path, monkeypatch):
        # A bad k, and a network with no admissible pair, fail while the
        # sweep's jobs are listed, before any trial runs.
        calls = []
        monkeypatch.setattr(synth, "_workers", lambda: 1)
        monkeypatch.setattr(synth, "reconstruct_subset", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"subset size 99 outside \[2, 8\]"):
            monte_carlo_views(small_scene, [2, 99], 0)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"arc_span_deg": 10, "n_cameras": 4}))
        assert main(["simulate", "--k", "2", "--config", str(config),
                     "--out", str(tmp_path / "s.csv")]) == 4
        assert calls == []


    def test_best_pair_beats_random_pairs_in_aggregate(self):
        # Aggregated over independent scenes, the scored pair should be at
        # least as accurate as the average randomly drawn admissible pair.
        def combined_error(scene, noisy, view_ids):
            truth = dict(scene.spheres)
            models = reconstruct_subset([scene.view(v) for v in view_ids],
                                        noisy.observations)
            values = [p_rmse_combined(model, truth[max(set(track.values()),
                                                       key=list(track.values()).count)])
                      for track, model in models]
            return float(np.mean(values))

        rng = np.random.default_rng(123)
        best_vals, random_vals = [], []
        for seed in range(20):
            scene = generate_scene(SceneConfig(seed=seed))
            noisy = perturb_observations(scene, 0.5, seed)
            pair = best_pair(scene.network)
            best_vals.append(combined_error(scene, noisy, (pair.i, pair.j)))
            ids = [v.image_id for v in scene.views]
            for _ in range(10):
                i, j = rng.choice(len(ids), size=2, replace=False)
                random_vals.append(combined_error(scene, noisy, (ids[i], ids[j])))
        assert float(np.mean(best_vals)) <= float(np.mean(random_vals))


class TestParallelSweep:
    """The sweep's trials run in forked workers, one per CPU of the
    process's affinity set; ``synth._workers`` patched to 1 runs them in
    this process, patched to 2 or 3 in that many workers whatever the CPU
    count."""

    def sweep(self, monkeypatch, workers, *args):
        monkeypatch.setattr(synth, "_workers", lambda: workers)
        return monte_carlo_views(*args, timing=False)

    def test_one_worker_per_cpu_of_the_affinity_set(self):
        assert synth._workers() == len(os.sched_getaffinity(0))

    def test_parallel_equals_serial(self, noisy_lab_scene, monkeypatch):
        serial = self.sweep(monkeypatch, 1, noisy_lab_scene, [2, 4, 8, 16, 30], 0)
        for workers in (2, 3):
            assert self.sweep(monkeypatch, workers, noisy_lab_scene, [2, 4, 8, 16, 30],
                              0) == serial
        assert multiprocessing.active_children() == []

    def test_parallel_equals_serial_with_a_failed_trial(self, monkeypatch):
        scene = generate_scene(SceneConfig(n_cameras=5, arc_span_deg=360.0))
        serial = self.sweep(monkeypatch, 1, scene, [2, 3, 4, 5], 0)
        assert [s.failures for s in serial] == [1, 3, 3, 1, 0]  # subsets with img-00 and img-04
        for workers in (2, 3):
            assert self.sweep(monkeypatch, workers, scene, [2, 3, 4, 5], 0) == serial

    def test_chunks_run_largest_first_and_rows_return_in_order(self, lab_scene, monkeypatch):
        ran = []  # each chunk's subsets, in the order they were handed out
        monkeypatch.setattr(synth, "_workers", lambda: 2)
        monkeypatch.setattr(synth, "_map_chunks",
                            lambda scene, chunks, workers: ran.extend(chunks) or chunks)
        monkeypatch.setattr(synth, "_trial_stats",
                            lambda k, selection, rows, timing: (k, selection, rows))
        ids = [v.image_id for v in lab_scene.views]
        pair = best_pair(lab_scene.network)
        # Costs k^2 x trials: with 50 trials a k block costs 50 k^2 and k=30,
        # one trial, 900; each block runs in two contiguous halves, the pair
        # (cost 4) last.
        for k_values, order, sizes in (
                ([2, 4, 8, 16, 30], [16, 8, 30, 4, 2],
                 [(16, 25), (16, 25), (8, 25), (8, 25), (30, 1), (4, 25), (4, 25), (2, 25),
                  (2, 25)]),
                ([2, 8], [8, 2], [(8, 25), (8, 25), (2, 25), (2, 25)]),
                ([2, 4, 8], [8, 4, 2], [(8, 25), (8, 25), (4, 25), (4, 25), (2, 25), (2, 25)])):
            ran.clear()
            blocks = monte_carlo_views(lab_scene, k_values, 0, timing=False)
            drawn = {k: synth._draw_subsets(ids, k, min(50, math.comb(30, k)),
                                            synth._rng(0, 2, k)) for k in k_values}
            # Each block's rows come back in subset order, and the blocks in k order.
            assert blocks == [(k, "random", drawn[k]) for k in k_values] + [
                (2, "best_pair", [(pair.i, pair.j)])]
            assert [(len(chunk[0]), len(chunk)) for chunk in ran] == [*sizes, (2, 1)]
            assert list(itertools.chain(*ran)) == [*itertools.chain(*map(drawn.get, order)),
                                                   (pair.i, pair.j)]

    def test_a_worker_error_reaches_the_caller(self, small_scene, monkeypatch):
        def fail(views, observations):
            raise EmptyInput(f"raised in process {os.getpid()}")

        monkeypatch.setattr(synth, "reconstruct_subset", fail)
        with pytest.raises(EmptyInput, match=r"raised in process \d+") as raised:
            self.sweep(monkeypatch, 2, small_scene, [2, 8], 0)
        assert str(raised.value) != f"raised in process {os.getpid()}"
        assert multiprocessing.active_children() == []

    def test_importing_the_cli_loads_no_process_pool(self):
        src = str(pathlib.Path(synth.__file__).resolve().parent.parent)
        code = ("import sys, spherefit.cli; print([name for name in ('multiprocessing', "
                "'concurrent.futures') if name in sys.modules])")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.stdout == "[]\n", result.stderr
