import dataclasses
import itertools
import math

import numpy as np
import pytest

from oracles import reference_match_ellipses, reference_reconstruct_sphere, reference_view_record
from spherefit import (
    CameraView,
    DegenerateGeometry,
    DegenerateProjection,
    EllipseObservation,
    SceneConfig,
    classify_view,
    gate_views,
    gather_ellipses,
    generate_scene,
    perturb_observations,
    reconstruct_gated,
    reconstruct_sphere,
    reconstruct_subset,
    reconstruct_tracks,
    view_records,
)
from spherefit.pipeline import _merge_tracks


def inflated(e, factor):
    """``e`` with its semi-major axis stretched, so that it fails the gate
    when the interior orientation is exact."""
    return EllipseObservation(e.image_id, e.ellipse_id, e.x_ce, e.y_ce,
                              factor * e.a_e, e.b_e, e.theta)


def gated_records(views, observations, **gate):
    """The gathered table of ``views``, its gate arrays and the views'
    records of the accepted rows."""
    table = gather_ellipses(views, observations)
    tau, sigma_tau, accepted = gate_views(views, table, **gate)
    return table, (tau, sigma_tau, accepted), view_records(views, table, accepted)


class TestGateViews:
    def test_follows_view_order_and_sorts_by_id(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        views = scene.views[::-1]
        observations = {v.image_id: scene.observations[v.image_id][::-1] for v in views}
        table, gate, records = gated_records(views, observations)
        assert table.keys == [(v.image_id, e.ellipse_id) for v in views
                              for e in observations[v.image_id]]
        assert [r.view for r in records] == views
        for r, view in zip(records, views):
            assert r.ids == sorted(e.ellipse_id for e in observations[view.image_id])
        assert all(a.shape == (len(table.keys),) for a in gate)
        assert gate[2].all()

    def test_repeated_ellipse_id_rejected(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        view = scene.views[1]
        first, second = scene.observations[view.image_id][:2]
        twin = EllipseObservation(view.image_id, first.ellipse_id, second.x_ce, second.y_ce,
                                  second.a_e, second.b_e, second.theta)
        with pytest.raises(ValueError, match=f"{view.image_id}.*{first.ellipse_id}"):
            gather_ellipses(scene.views, {view.image_id: [first, twin]})

    def test_unknown_image_rejected(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        table = gather_ellipses(scene.views, scene.observations)
        with pytest.raises(ValueError) as raised:
            gate_views(scene.views[:1], table)
        image_id, ellipse_id = table.keys[len(scene.observations[scene.views[0].image_id])]
        assert str(raised.value) == (f"ellipse {ellipse_id!r} references unknown "
                                     f"image {image_id!r}")

    def test_default_sigma_covers_ellipses_without_covariance(self):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=8))
        view = scene.views[0]
        stretched = {view.image_id: [inflated(scene.observations[view.image_id][0], 1.05)]}
        _, (_, _, tight), _ = gated_records([view], stretched)
        _, (_, _, loose), _ = gated_records([view], stretched, default_sigma=20.0)
        assert tight.tolist() == [False]
        assert loose.tolist() == [True]

    def test_one_pass_equals_per_view_calls(self):
        # One call over a shuffled table of views that differ in f, px and
        # py, some with an interior-orientation covariance and some without,
        # gives per-view classify_view's answers to the bit.
        config = SceneConfig(n_cameras=6, clutter_per_image=4, seed=3)
        noisy = perturb_observations(generate_scene(config), 0.5, 3)
        views = [CameraView(v.image_id, v.f * (1.0 + 1e-3 * i), v.px + 0.3 * i, v.py - 0.2 * i,
                            v.rot, v.t, iop_cov=np.diag([0.5, 0.4, 3.0]) * i if i % 2 else None)
                 for i, v in enumerate(noisy.views)]
        observations = {image_id: [e if i % 3 else dataclasses.replace(e, cov=None)
                                   for i, e in enumerate(ellipses)]
                        for image_id, ellipses in noisy.observations.items()}
        table = gather_ellipses(views, observations)
        table = table.take(np.random.default_rng(3).permutation(len(table.keys)))
        got = gate_views(views, table, k_sigma=2.5, default_sigma=0.7)
        want = [np.empty(len(table.keys)), np.empty(len(table.keys)),
                np.empty(len(table.keys), bool)]
        for view in views:
            rows = [row for row, (image_id, _) in enumerate(table.keys)
                    if image_id == view.image_id]
            part = table.take(rows)
            for whole, piece in zip(want, classify_view(
                    part.params, part.cov, part.has_cov, view.f, view.px, view.py,
                    iop_cov=view.iop_cov, k=2.5, default_sigma=0.7)):
                whole[rows] = piece
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[2].any() and not got[2].all()


    @pytest.mark.parametrize("empty", [0, 2, 4])
    def test_one_pass_records_equal_per_view_records(self, empty):
        # One pass over a shuffled table of views that differ in f, px, py
        # and pose gives each view the record of its own accepted rows to the
        # bit, with a view that keeps no row, rows of an image left out of
        # the views and rows without a covariance.
        config = SceneConfig(n_cameras=6, clutter_per_image=4, seed=4)
        noisy = perturb_observations(generate_scene(config), 0.5, 4)
        every = [CameraView(v.image_id, v.f * (1.0 + 1e-3 * i), v.px + 0.3 * i,
                            v.py - 0.2 * i, v.rot, v.t) for i, v in enumerate(noisy.views)]
        observations = {image_id: [e if i % 3 else dataclasses.replace(e, cov=None)
                                   for i, e in enumerate(ellipses)]
                        for image_id, ellipses in noisy.observations.items()}
        table = gather_ellipses(every, observations)
        table = table.take(np.random.default_rng(4).permutation(len(table.keys)))
        _, _, accepted = gate_views(every, table)
        views = every[1:]  # the rows of every[0] are left out
        image_ids = [image_id for image_id, _ in table.keys]
        accepted &= np.array([image_id != views[empty].image_id for image_id in image_ids])
        records = view_records(views, table, accepted)
        assert len(records) == len(views) and records[empty].ids == []
        assert not accepted.all() and not table.has_cov.all()
        for view, record in zip(views, records):
            rows = sorted((ellipse_id, row) for row, (image_id, ellipse_id)
                          in enumerate(table.keys) if accepted[row] and image_id == view.image_id)
            want = reference_view_record(view, table.take([row for _, row in rows]))
            assert record.view is view and record.ids == want.ids
            for got, expected in zip(record[2:], want[2:]):
                got, expected = np.asarray(got), np.asarray(expected)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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


def reference_reconstruct_gated(views, observations, table, accepted):
    """``reconstruct_gated`` rebuilt from the scalar references: per-pair
    reference matching of the ellipses the gate accepted, the package's
    track merge, then one scalar sphere recovery per track."""
    kept = set(itertools.compress(table.keys, accepted))
    accepted = {v.image_id: [e for e in observations[v.image_id]
                             if (v.image_id, e.ellipse_id) in kept] for v in views}
    pair_matches = []
    for view_l, view_k in itertools.combinations(views, 2):
        result = reference_match_ellipses(view_l, accepted[view_l.image_id],
                                          view_k, accepted[view_k.image_id])
        pair_matches.extend((m.reprojection_distance, view_l.image_id, view_k.image_id,
                             m.ellipse_l, m.ellipse_k, row) for row, m in enumerate(result.matches))
    by_id = {(v.image_id, e.ellipse_id): (v, e) for v in views for e in accepted[v.image_id]}
    out = []
    for track, _ in _merge_tracks(pair_matches):
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
    table, (_, _, accepted), records = gated_records(views, observations)
    got = reconstruct_gated(records)
    want = reference_reconstruct_gated(views, observations, table, accepted)
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


def assert_two_view_spheres_reuse_the_match_solve(scene, records):
    """Each two-view model of ``reconstruct_gated`` equals, bit for bit, the
    one ``reconstruct_tracks`` recovers for its track alone, and is within
    1e-9 relative of ``reconstruct_sphere`` on the same two ellipses."""
    views = [r.view for r in records]
    by_id = {(e.image_id, e.ellipse_id): e for v in views for e in scene.observations[v.image_id]}
    count = 0
    for track, model in reconstruct_gated(records):
        if len(track) != 2:
            continue
        [alone] = reconstruct_tracks(records, [track])
        assert model.sphere.center.tobytes() == alone.sphere.center.tobytes()
        assert [(i, r.hex()) for i, r in model.per_view_radii] == \
            [(i, r.hex()) for i, r in alone.per_view_radii]
        for name in ("radius_spread", "triangulation_residual"):
            assert getattr(model, name).hex() == getattr(alone, name).hex()
        assert model.sphere.radius.hex() == alone.sphere.radius.hex()
        one = reconstruct_sphere([(v, by_id[v.image_id, track[v.image_id]])
                                  for v in views if v.image_id in track])
        scale = np.abs(one.sphere.center).max()
        assert np.abs(model.sphere.center - one.sphere.center).max() <= 1e-9 * scale
        assert math.isclose(model.sphere.radius, one.sphere.radius, rel_tol=1e-9)
        count += 1
    return count


class TestTwoViewSpheresAreMatchSolves:
    @pytest.mark.parametrize("seed", range(5))
    def test_default_scene_every_pair(self, seed):
        noisy = perturb_observations(generate_scene(SceneConfig(seed=seed)), 0.5, seed)
        _, _, records = gated_records(noisy.views, noisy.observations)
        assert sum(assert_two_view_spheres_reuse_the_match_solve(noisy, pair)
                   for pair in itertools.combinations(records, 2)) > 0

    def test_cluttered_ring(self):
        config = SceneConfig(n_cameras=12, placement="ring", clutter_per_image=10,
                             clutter_inflation=1.02, seed=4)
        noisy = perturb_observations(generate_scene(config), 0.5, 4)
        _, _, records = gated_records(noisy.views, noisy.observations)
        assert sum(assert_two_view_spheres_reuse_the_match_solve(noisy, pair)
                   for pair in itertools.combinations(records, 2)) > 0
        # Runs of three neighbouring views mix two-view and three-view tracks.
        ring = records + records
        assert sum(assert_two_view_spheres_reuse_the_match_solve(noisy, ring[i:i + 3])
                   for i in range(12)) > 0
