import itertools
import math

import numpy as np
import pytest

from oracles import reference_match_ellipses, reference_reconstruct_sphere
from spherefit import (
    CameraView,
    DegenerateGeometry,
    DegenerateProjection,
    EllipseObservation,
    SceneConfig,
    gate_views,
    generate_scene,
    perturb_observations,
    reconstruct_gated,
    reconstruct_subset,
)
from spherefit.pipeline import _merge_tracks


def inflated(e, factor):
    """``e`` with its semi-major axis stretched, so that it fails the gate
    when the interior orientation is exact."""
    return EllipseObservation(e.image_id, e.ellipse_id, e.x_ce, e.y_ce,
                              factor * e.a_e, e.b_e, e.theta)


class TestGateViews:
    def test_follows_view_and_input_order(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        views = scene.views[::-1]
        observations = {v.image_id: scene.observations[v.image_id][::-1] for v in views}
        gated = gate_views(views, observations)
        assert list(gated) == [v.image_id for v in views]
        for view in views:
            assert [e for e, _ in gated[view.image_id]] == observations[view.image_id]
            assert all(report.accepted for _, report in gated[view.image_id])

    def test_repeated_ellipse_id_rejected(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        view = scene.views[1]
        first, second = scene.observations[view.image_id][:2]
        twin = EllipseObservation(view.image_id, first.ellipse_id, second.x_ce, second.y_ce,
                                  second.a_e, second.b_e, second.theta)
        with pytest.raises(ValueError, match=f"{view.image_id}.*{first.ellipse_id}"):
            gate_views(scene.views, {view.image_id: [first, twin]})

    def test_default_sigma_covers_ellipses_without_covariance(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        view = scene.views[0]
        stretched = {view.image_id: [inflated(scene.observations[view.image_id][0], 1.05)]}
        ((_, tight),) = gate_views([view], stretched)[view.image_id]
        ((_, loose),) = gate_views([view], stretched, default_sigma=20.0)[view.image_id]
        assert not tight.accepted
        assert loose.accepted


class TestReconstructSubset:
    def test_gate_uses_view_iop_cov(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        vid = "img-01"
        observations = dict(scene.observations)
        stretched = inflated(observations[vid][0], 1.05)
        observations[vid] = [stretched] + observations[vid][1:]
        loose = [CameraView(v.image_id, v.f, v.px, v.py, v.rot, v.t,
                            iop_cov=np.eye(3) * 1e6 if v.image_id == vid else None)
                 for v in scene.views]

        def members(views):
            return {(image_id, ellipse_id)
                    for track, _ in reconstruct_subset(views, observations)
                    for image_id, ellipse_id in track.items()}

        key = (vid, stretched.ellipse_id)
        assert key not in members(scene.views)
        assert key in members(loose)


def reference_reconstruct_gated(views, gated):
    """``reconstruct_gated`` rebuilt from the scalar references: per-pair
    reference matching, the package's track merge, then one scalar sphere
    recovery per track."""
    accepted = {v.image_id: [e for e, report in gated[v.image_id] if report.accepted]
                for v in views}
    pair_matches = []
    for view_l, view_k in itertools.combinations(views, 2):
        result = reference_match_ellipses(view_l, accepted[view_l.image_id],
                                          view_k, accepted[view_k.image_id])
        pair_matches.extend((m.reprojection_distance, view_l.image_id, view_k.image_id,
                             m.ellipse_l, m.ellipse_k) for m in result.matches)
    by_id = {(v.image_id, e.ellipse_id): (v, e) for v in views for e in accepted[v.image_id]}
    out = []
    for track in _merge_tracks(pair_matches):
        if len(track) < 2:
            continue
        try:
            model = reference_reconstruct_sphere(
                [by_id[v.image_id, track[v.image_id]] for v in views if v.image_id in track])
        except (DegenerateGeometry, DegenerateProjection):
            continue
        out.append((track, model))
    return out


def assert_same_reconstruction(views, observations):
    gated = gate_views(views, observations)
    got = reconstruct_gated(views, gated)
    want = reference_reconstruct_gated(views, gated)
    assert [track for track, _ in got] == [track for track, _ in want]
    for (_, model), (_, ref) in zip(got, want):
        scale = np.abs(ref.sphere.center).max()
        assert np.abs(model.sphere.center - ref.sphere.center).max() <= 1e-9 * scale
        assert math.isclose(model.sphere.radius, ref.sphere.radius, rel_tol=1e-9)
    return len(got)


class TestReconstructGatedEqualsReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_default_scene_k8(self, seed):
        noisy = perturb_observations(generate_scene(SceneConfig(seed=seed)), 0.5, seed)
        picked = np.sort(np.random.default_rng(seed).choice(len(noisy.views), 8, replace=False))
        assert assert_same_reconstruction([noisy.views[i] for i in picked],
                                          noisy.observations) > 0

    def test_cluttered_ring(self):
        config = SceneConfig(n_cameras=12, placement="ring", clutter_per_image=10,
                             clutter_inflation=1.02, seed=4)
        noisy = perturb_observations(generate_scene(config), 0.5, 4)
        assert assert_same_reconstruction(noisy.views, noisy.observations) > 0
