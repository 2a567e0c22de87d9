import numpy as np
import pytest

from spherefit import (
    CameraView,
    EllipseObservation,
    SceneConfig,
    gate_views,
    generate_scene,
    reconstruct_subset,
)


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
