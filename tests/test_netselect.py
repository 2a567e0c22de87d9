import itertools
import math

import numpy as np
import pytest

from oracles import (
    NoSharedPoints,
    look_at_view,
    reference_best_pair,
    reference_convergence_angle,
    reference_network_overlap,
    reference_pair_angles,
)
from spherefit import (
    CameraView,
    ImageNetwork,
    NoAdmissiblePair,
    SceneConfig,
    TiePoint,
    anchor_network,
    best_pair,
    generate_scene,
)
from spherefit import netselect
from spherefit.netselect import pair_angles


def tie(xyz, *ids):
    return TiePoint(xyz=np.asarray(xyz, dtype=float), visible_in=frozenset(ids))


def convergence_angle(a, b, ties, *others):
    """alpha of the pair (a, b) from the array pass over a network of the
    two views (and ``others``); NaN when they share no tie point."""
    network = ImageNetwork([a, b, *others], ties)
    _, _, (alpha,), _, _ = pair_angles(network, [a.image_id, b.image_id])
    return alpha


def network_overlap(network):
    """Per-image overlap as best_pair normalizes it."""
    ids = sorted(v.image_id for v in network.views)
    *_, seen = pair_angles(network, ids)
    return dict(zip(ids, (seen / seen.max()).tolist()))


def by_pair(network, ids):
    """``(alpha, shared)`` of ``pair_angles`` keyed by the pair of view ids."""
    iu, ju, alpha, shared, _ = pair_angles(network, ids)
    return {(ids[a], ids[b]): (value, count) for a, b, value, count in zip(
        iu.tolist(), ju.tolist(), alpha.tolist(), shared.tolist())}


def assert_matches_reference(network, rel=1e-12):
    """Every pair's alpha within ``rel`` of the scalar reference and equal
    to the full-matrix pass at (b, a), the same shared-point verdicts, and
    the same chosen pair and score."""
    ids = sorted(v.image_id for v in network.views)
    iu, ju, alpha, shared, _ = pair_angles(network, ids)
    full_alpha, _, _ = reference_pair_angles(network, ids)
    pairs = list(itertools.combinations(range(len(ids)), 2))
    assert list(zip(iu.tolist(), ju.tolist())) == pairs
    for p, (a, b) in enumerate(pairs):
        view_a, view_b = network.view(ids[a]), network.view(ids[b])
        try:
            expected = reference_convergence_angle(view_a, view_b, network.tie_points)
        except NoSharedPoints:
            assert shared[p] == 0 and math.isnan(alpha[p])
            continue
        assert shared[p] > 0
        assert alpha[p] == full_alpha[b, a]
        assert math.isclose(alpha[p], expected, rel_tol=rel), (ids[a], ids[b])
    got, want = best_pair(network), reference_best_pair(network)
    assert (got.i, got.j, got.ov_i, got.ov_j) == (want.i, want.j, want.ov_i, want.ov_j)
    assert math.isclose(got.alpha_ij, want.alpha_ij, rel_tol=rel)
    assert math.isclose(got.theta_ij, want.theta_ij, rel_tol=rel)


class TestConvergenceAngle:
    def test_isoceles_geometry(self):
        a = look_at_view("a", [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        b = look_at_view("b", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        ties = [tie([0.0, 0.0, 1.0], "a", "b")]
        for angle in (convergence_angle(a, b, ties), reference_convergence_angle(a, b, ties)):
            assert math.isclose(angle, 2.0 * math.atan(1.0), rel_tol=1e-12)

    def test_coincident_centers_give_zero(self):
        rot_b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        a = CameraView("a", 1000.0, 0.0, 0.0, np.eye(3), np.zeros(3))
        b = CameraView("b", 1000.0, 0.0, 0.0, rot_b, np.zeros(3))
        ties = [tie([0.0, 0.0, 5.0], "a", "b")]
        assert convergence_angle(a, b, ties) == 0.0
        assert reference_convergence_angle(a, b, ties) == 0.0

    def test_mean_over_shared_points_matches_enumeration(self):
        a = look_at_view("a", [-2.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        b = look_at_view("b", [2.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        points = [np.array([0.0, 0.0, 0.0]), np.array([0.3, 0.2, 0.0]),
                  np.array([-0.4, 0.1, 0.2])]
        ties = [tie(p, "a", "b") for p in points]
        expected = []
        for p in points:
            ra = a.center - p
            rb = b.center - p
            expected.append(math.acos(
                float(ra @ rb) / (np.linalg.norm(ra) * np.linalg.norm(rb))))
        for angle in (convergence_angle(a, b, ties), reference_convergence_angle(a, b, ties)):
            assert math.isclose(angle, float(np.mean(expected)), rel_tol=1e-12)

    def test_no_shared_points(self):
        a = look_at_view("a", [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        b = look_at_view("b", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        c = look_at_view("c", [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        ties = [tie([0.0, 0.0, 1.0], "a", "c")]
        assert math.isnan(convergence_angle(a, b, ties, c))
        with pytest.raises(NoSharedPoints):
            reference_convergence_angle(a, b, ties)

    def test_tie_point_at_a_camera_center_is_skipped(self):
        a = look_at_view("a", [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        b = look_at_view("b", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        c = look_at_view("c", [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        ties = [tie(a.center, "a", "b", "c"), tie([0.0, 0.0, 1.0], "a", "b", "c")]
        network = ImageNetwork([a, b, c], ties)
        iu, ju, alpha, shared, seen = pair_angles(network, ["a", "b", "c"])
        assert iu.tolist() == [0, 0, 1] and ju.tolist() == [1, 2, 2]
        # The first point gives view a no ray: pairs with a keep one point.
        assert shared[0] == shared[1] == 1 and shared[2] == 2
        assert seen.tolist() == [2, 2, 2]  # visibility still counts it
        assert math.isclose(alpha[0], 2.0 * math.atan(1.0), rel_tol=1e-12)
        assert math.isclose(alpha[0], reference_convergence_angle(a, b, ties),
                            rel_tol=1e-12)
        assert_matches_reference(network)

    def test_only_point_at_a_camera_center_leaves_no_pair(self):
        a = look_at_view("a", [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        b = look_at_view("b", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        network = ImageNetwork([a, b], [tie(b.center, "a", "b")])
        assert math.isnan(convergence_angle(a, b, network.tie_points))
        for select in (best_pair, reference_best_pair):
            with pytest.raises(NoAdmissiblePair, match="no image pair shares tie points"):
                select(network)


class TestTiePoint:
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_rejects_non_finite_xyz(self, value):
        with pytest.raises(ValueError, match="finite"):
            tie([0.0, 0.0, value], "a", "b")


class TestNetworkOverlap:
    def test_uniform_visibility(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("abc")]
        ties = [tie([0.1 * j, 0.0, 0.0], "a", "b", "c") for j in range(4)]
        network = ImageNetwork(views, ties)
        assert network_overlap(network) == reference_network_overlap(network)
        assert network_overlap(network) == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_image_with_no_points_scores_zero(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("abc")]
        ties = [tie([0.0, 0.0, 0.0], "a", "b")]
        network = ImageNetwork(views, ties)
        ov = network_overlap(network)
        assert ov == reference_network_overlap(network)
        assert ov["c"] == 0.0 and ov["a"] == 1.0

    def test_count_ratios(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("abc")]
        ties = []
        ties += [tie([j * 0.01, 0.0, 0.0], "a", "b") for j in range(5)]
        ties += [tie([j * 0.01, 0.1, 0.0], "a", "c") for j in range(2)]
        ties += [tie([j * 0.01, 0.2, 0.0], "a", "b", "c") for j in range(3)]
        # counts: a=10, b=8, c=5
        network = ImageNetwork(views, ties)
        assert network_overlap(network) == reference_network_overlap(network)
        assert network_overlap(network) == {"a": 1.0, "b": 0.8, "c": 0.5}

    def test_no_tie_points_is_an_error(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("ab")]
        for select in (best_pair, reference_best_pair):
            with pytest.raises(ValueError, match="tie points"):
                select(ImageNetwork(views, []))


class TestBestPair:
    def rig(self, angles_deg, distance=5.0):
        views = []
        for i, ang in enumerate(angles_deg):
            phi = math.radians(ang)
            center = distance * np.array([math.sin(phi), 0.0, -math.cos(phi)])
            views.append(look_at_view(f"v{i}", center, [0.0, 0.0, 0.0]))
        ties = [tie([0.0, 0.0, 0.0], *[v.image_id for v in views])]
        return ImageNetwork(views, ties)

    def test_single_admissible_pair_scores_two(self):
        network = self.rig([-20.0, 20.0])
        score = best_pair(network)
        assert (score.i, score.j) == ("v0", "v1")
        assert math.isclose(score.alpha_ij, math.radians(40.0), rel_tol=1e-9)
        assert math.isclose(score.theta_ij, 2.0, rel_tol=1e-12)

    def test_all_pairs_below_floor(self):
        network = self.rig([-5.0, 5.0])
        with pytest.raises(NoAdmissiblePair, match="10.00 deg"):
            best_pair(network)

    def test_rejects_a_single_view(self):
        with pytest.raises(ValueError, match="need at least two views"):
            best_pair(ImageNetwork([look_at_view("v0", [0.0, 0.0, -5.0], [0.0, 0.0, 0.0])], []))

    @pytest.mark.parametrize("min_angle", [math.nan, -0.1, math.inf])
    def test_rejects_invalid_floor(self, min_angle):
        with pytest.raises(ValueError, match="angle"):
            best_pair(self.rig([-20.0, 20.0]), min_angle=min_angle)

    def test_matches_exhaustive_enumeration(self):
        angles = [-50.0, -20.0, 0.0, 25.0, 55.0]
        network = self.rig(angles)
        got = best_pair(network)
        ov = reference_network_overlap(network)
        scores = {}
        alphas = {}
        for i, j in itertools.combinations(sorted(v.image_id for v in network.views), 2):
            alphas[(i, j)] = reference_convergence_angle(network.view(i), network.view(j),
                                                         network.tie_points)
        amax = max(alphas.values())
        for pair, alpha in alphas.items():
            if alpha > math.radians(20.0):
                scores[pair] = alpha / amax + (ov[pair[0]] + ov[pair[1]]) / 2.0
        expected = max(sorted(scores), key=lambda p: scores[p])
        assert (got.i, got.j) == expected
        assert math.isclose(got.theta_ij, scores[expected], rel_tol=1e-12)

    def test_similarity_invariance(self):
        angles = [-45.0, -10.0, 15.0, 40.0]
        base = self.rig(angles, distance=5.0)
        scaled_views = []
        for v in base.views:
            center = v.center * 7.5
            scaled_views.append(CameraView(v.image_id, v.f, v.px, v.py,
                                           v.rot, -v.rot @ center))
        scaled_ties = [TiePoint(tp.xyz * 7.5, tp.visible_in) for tp in base.tie_points]
        scaled = ImageNetwork(scaled_views, scaled_ties)
        a = best_pair(base)
        b = best_pair(scaled)
        assert (a.i, a.j) == (b.i, b.j)
        assert math.isclose(a.alpha_ij, b.alpha_ij, rel_tol=1e-9)
        assert math.isclose(a.theta_ij, b.theta_ij, rel_tol=1e-9)

    def test_angle_symmetry(self):
        network = self.rig([-30.0, 30.0])
        ties = network.tie_points
        assert by_pair(network, ["v0", "v1"])["v0", "v1"][0] == \
            by_pair(network, ["v1", "v0"])["v1", "v0"][0]
        ab = convergence_angle(network.view("v0"), network.view("v1"), ties)
        ba = convergence_angle(network.view("v1"), network.view("v0"), ties)
        assert abs(ab - ba) < 1e-12

    def test_overlap_normalization(self, lab_scene):
        ov = network_overlap(lab_scene.network)
        assert math.isclose(max(ov.values()), 1.0)

    def test_thirty_view_network_matches_enumeration(self, lab_scene):
        network = lab_scene.network
        got = best_pair(network)
        ov = reference_network_overlap(network)
        alphas = {}
        for i, j in itertools.combinations(sorted(v.image_id for v in network.views), 2):
            try:
                alphas[(i, j)] = reference_convergence_angle(network.view(i), network.view(j),
                                                             network.tie_points)
            except NoSharedPoints:
                continue
        amax = max(alphas.values())
        omax = max(ov.values())
        admissible = {p: a / amax + (ov[p[0]] + ov[p[1]]) / (2.0 * omax)
                      for p, a in alphas.items() if a > math.radians(20.0)}
        expected = max(sorted(admissible), key=lambda p: admissible[p])
        assert (got.i, got.j) == expected
        assert math.isclose(got.theta_ij, admissible[expected], rel_tol=1e-12)

    def test_anchor_network_fallback(self):
        views = self.rig([-40.0, 0.0, 40.0]).views
        network = anchor_network(views, [0.0, 0.0, 0.0])
        score = best_pair(network)
        assert (score.i, score.j) == ("v0", "v2")  # widest pair wins

    def test_validation(self):
        views = self.rig([-30.0, 30.0]).views
        with pytest.raises(ValueError, match="unknown images"):
            ImageNetwork(views, [tie([0, 0, 0], "v0", "nope")])
        with pytest.raises(ValueError, match="two views"):
            ImageNetwork(views, [tie([0, 0, 0], "v0")])
        with pytest.raises(ValueError, match="duplicate"):
            ImageNetwork(views + [views[0]], [])
        network = ImageNetwork(views, [])
        assert all(network.view(v.image_id) is v for v in views)
        with pytest.raises(KeyError):
            network.view("nope")


class TestArrayPass:
    """best_pair's one array pass against the per-pair scalar reference."""

    def test_lab_scene_matches_reference(self, lab_scene):
        assert_matches_reference(lab_scene.network)

    @pytest.mark.parametrize("placement", ["arc", "ring"])
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_scenes_match_reference(self, placement, seed):
        scene = generate_scene(SceneConfig(placement=placement, seed=seed))
        assert_matches_reference(scene.network)

    def test_pair_without_shared_points_is_left_out(self):
        views = [look_at_view(i, c, [0.0, 0.0, 0.0]) for i, c in
                 [("a", [-3.0, 0.0, 1.0]), ("b", [3.0, 0.0, 1.0]),
                  ("c", [0.0, -3.0, 1.0]), ("d", [0.0, 3.0, 1.0])]]
        # a-b converge widely but share nothing with c or d.
        ties = [tie([0.1 * k, 0.0, 0.0], "a", "b") for k in range(3)]
        ties += [tie([0.0, 0.1 * k, 0.0], "c", "d") for k in range(2)]
        network = ImageNetwork(views, ties)
        pairs = by_pair(network, ["a", "b", "c", "d"])
        assert [pairs[p][1] for p in [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]] == [0] * 4
        got = best_pair(network)
        assert (got.i, got.j) == ("a", "b")
        assert_matches_reference(network)

    def test_exact_score_tie_goes_to_smallest_pair(self):
        # Two opposite pairs through one tie point: both converge at pi and
        # score exactly 2.0; view order puts the larger pair first.
        views = [look_at_view(i, c, [0.0, 0.0, 0.0]) for i, c in
                 [("d", [1.0, 0.0, 0.0]), ("b", [-1.0, 0.0, 0.0]),
                  ("c", [0.0, -1.0, 0.0]), ("a", [0.0, 1.0, 0.0])]]
        ties = [tie([0.0, 0.0, 0.0], "a", "b", "c", "d")]
        network = ImageNetwork(views, ties)
        pairs = by_pair(network, ["a", "b", "c", "d"])
        assert pairs["a", "c"][0] == pairs["b", "d"][0]  # (a, c) and (b, d) tie exactly
        for select in (best_pair, reference_best_pair):
            got = select(network)
            assert (got.i, got.j) == ("a", "c") and got.theta_ij == 2.0

    def test_blocks_give_the_one_block_result(self, monkeypatch):
        scene = generate_scene(SceneConfig(n_cameras=12, n_tie_points=40, seed=3))
        network = scene.network
        ids = sorted(v.image_id for v in network.views)
        whole = pair_angles(network, ids)
        one = best_pair(network)
        # 12 x 12 x 3: blocks of three tie points, the last one short.
        monkeypatch.setattr(netselect, "_BLOCK_ELEMENTS", 3 * 12 * 12)
        blocked = pair_angles(network, ids)
        np.testing.assert_array_equal(blocked[0], whole[0])
        np.testing.assert_array_equal(blocked[1], whole[1])
        np.testing.assert_allclose(blocked[2], whole[2], rtol=1e-12)
        np.testing.assert_array_equal(blocked[3], whole[3])
        np.testing.assert_array_equal(blocked[4], whole[4])
        many = best_pair(network)
        assert (many.i, many.j, many.ov_i, many.ov_j) == (one.i, one.j, one.ov_i, one.ov_j)
        assert math.isclose(many.theta_ij, one.theta_ij, rel_tol=1e-12)


def _cluttered_network(seed):
    """Twelve views around the origin and 60 tie points, each seen by a
    random subset of two or more views; one lies at a camera center, and
    some view pairs share nothing."""
    rng = np.random.default_rng(seed)
    views = [look_at_view(f"v{k:02d}", rng.normal(size=3) * 3.0 + [0.0, 0.0, 4.0],
                          rng.normal(size=3) * 0.1) for k in range(12)]
    ids = [v.image_id for v in views]
    ties = [tie(rng.normal(size=3) * 0.5, *rng.choice(ids, rng.integers(2, 6), replace=False))
            for _ in range(59)]
    ties.append(tie(views[3].center, "v03", "v07", "v08"))
    return ImageNetwork(views, ties)


class TestUpperTriangle:
    """pair_angles computes the pairs of the upper triangle only; at each it
    must be bit-identical to the full-matrix pass, at (a, b) and (b, a)."""

    @staticmethod
    def assert_equals_full_pass(network, ids):
        iu, ju, alpha, shared, seen = pair_angles(network, ids)
        want_alpha, want_shared, want_seen = reference_pair_angles(network, ids)
        want_iu, want_ju = np.triu_indices(len(ids), 1)
        np.testing.assert_array_equal(iu, want_iu, strict=True)
        np.testing.assert_array_equal(ju, want_ju, strict=True)
        np.testing.assert_array_equal(alpha, want_alpha[iu, ju], strict=True)
        np.testing.assert_array_equal(shared, want_shared[iu, ju], strict=True)
        np.testing.assert_array_equal(seen, want_seen, strict=True)
        assert (iu < ju).all()  # no view is paired with itself
        np.testing.assert_array_equal(alpha, want_alpha[ju, iu], strict=True)

    @pytest.mark.parametrize("scene", ["arc", "ring", "hemisphere", "cluttered"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_the_full_matrix_pass(self, scene, seed):
        network = (_cluttered_network(seed) if scene == "cluttered" else
                   generate_scene(SceneConfig(placement=scene, seed=seed)).network)
        ids = [v.image_id for v in network.views]
        self.assert_equals_full_pass(network, sorted(ids))
        # Views in another order, and a subset of them.
        order = np.random.default_rng(seed).permutation(len(ids))
        self.assert_equals_full_pass(network, [ids[k] for k in order])
        self.assert_equals_full_pass(network, [ids[k] for k in order[:5]])

    @pytest.mark.parametrize("elements", [1, 3 * 12 * 12, 7 * 30 * 30])
    def test_bit_identical_in_blocks(self, monkeypatch, elements):
        monkeypatch.setattr(netselect, "_BLOCK_ELEMENTS", elements)
        for network in (_cluttered_network(4), generate_scene(SceneConfig(seed=4)).network):
            ids = [v.image_id for v in network.views]
            self.assert_equals_full_pass(network, sorted(ids))
            self.assert_equals_full_pass(network, ids[::-2])

    @pytest.mark.parametrize("scene", ["arc", "ring", "hemisphere", "cluttered"])
    def test_centers_are_those_of_each_view(self, scene):
        for seed in range(6):
            network = (_cluttered_network(seed) if scene == "cluttered" else
                       generate_scene(SceneConfig(placement=scene, seed=seed)).network)
            got = netselect._centers(network.views)
            assert got.tobytes() == np.array([v.center for v in network.views]).tobytes()
        assert netselect._centers([]).shape == (0, 3)

    def test_visibility_is_each_tie_points_views(self):
        network = _cluttered_network(0)
        ids = [v.image_id for v in network.views]
        assert network._visible.tolist() == [[i in tp.visible_in for i in ids]
                                             for tp in network.tie_points]
        assert ImageNetwork(network.views)._visible.shape == (0, 12)
