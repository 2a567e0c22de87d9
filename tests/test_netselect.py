import itertools
import math

import numpy as np
import pytest

from oracles import look_at_view
from spherefit import (
    CameraView,
    ImageNetwork,
    NoAdmissiblePair,
    NoSharedPoints,
    TiePoint,
    anchor_network,
    best_pair,
    convergence_angle,
    network_overlap,
)


def tie(xyz, *ids):
    return TiePoint(xyz=np.asarray(xyz, dtype=float), visible_in=frozenset(ids))


class TestConvergenceAngle:
    def test_isoceles_geometry(self):
        a = look_at_view("a", [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        b = look_at_view("b", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        angle = convergence_angle(a, b, [tie([0.0, 0.0, 1.0], "a", "b")])
        assert math.isclose(angle, 2.0 * math.atan(1.0), rel_tol=1e-12)

    def test_coincident_centers_give_zero(self):
        rot_b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        a = CameraView("a", 1000.0, 0.0, 0.0, np.eye(3), np.zeros(3))
        b = CameraView("b", 1000.0, 0.0, 0.0, rot_b, np.zeros(3))
        assert convergence_angle(a, b, [tie([0.0, 0.0, 5.0], "a", "b")]) == 0.0

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
        assert math.isclose(convergence_angle(a, b, ties),
                            float(np.mean(expected)), rel_tol=1e-12)

    def test_no_shared_points(self):
        a = look_at_view("a", [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        b = look_at_view("b", [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(NoSharedPoints):
            convergence_angle(a, b, [tie([0.0, 0.0, 1.0], "a", "c")])


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
        ov = network_overlap(ImageNetwork(views, ties))
        assert ov == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_image_with_no_points_scores_zero(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("abc")]
        ties = [tie([0.0, 0.0, 0.0], "a", "b")]
        ov = network_overlap(ImageNetwork(views, ties))
        assert ov["c"] == 0.0 and ov["a"] == 1.0

    def test_count_ratios(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("abc")]
        ties = []
        ties += [tie([j * 0.01, 0.0, 0.0], "a", "b") for j in range(5)]
        ties += [tie([j * 0.01, 0.1, 0.0], "a", "c") for j in range(2)]
        ties += [tie([j * 0.01, 0.2, 0.0], "a", "b", "c") for j in range(3)]
        # counts: a=10, b=8, c=5
        ov = network_overlap(ImageNetwork(views, ties))
        assert ov == {"a": 1.0, "b": 0.8, "c": 0.5}

    def test_no_tie_points_is_an_error(self):
        views = [look_at_view(i, [float(k), 0.0, -3.0], [0, 0, 0])
                 for k, i in enumerate("ab")]
        with pytest.raises(ValueError, match="tie points"):
            network_overlap(ImageNetwork(views, []))


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

    @pytest.mark.parametrize("min_angle", [math.nan, -0.1, math.inf])
    def test_rejects_invalid_floor(self, min_angle):
        with pytest.raises(ValueError, match="angle"):
            best_pair(self.rig([-20.0, 20.0]), min_angle=min_angle)

    def test_matches_exhaustive_enumeration(self):
        angles = [-50.0, -20.0, 0.0, 25.0, 55.0]
        network = self.rig(angles)
        got = best_pair(network)
        ov = network_overlap(network)
        scores = {}
        alphas = {}
        for i, j in itertools.combinations(sorted(v.image_id for v in network.views), 2):
            alphas[(i, j)] = convergence_angle(network.view(i), network.view(j),
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
        ab = convergence_angle(network.view("v0"), network.view("v1"), ties)
        ba = convergence_angle(network.view("v1"), network.view("v0"), ties)
        assert abs(ab - ba) < 1e-12

    def test_overlap_normalization(self, lab_scene):
        ov = network_overlap(lab_scene.network)
        assert math.isclose(max(ov.values()), 1.0)

    def test_thirty_view_network_matches_enumeration(self, lab_scene):
        network = lab_scene.network
        got = best_pair(network)
        ov = network_overlap(network)
        alphas = {}
        for i, j in itertools.combinations(sorted(v.image_id for v in network.views), 2):
            try:
                alphas[(i, j)] = convergence_angle(network.view(i), network.view(j),
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
