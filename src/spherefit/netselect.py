"""Image-pair scoring: convergence angle, network overlap, best-pair pick.

A pair of views is good for sphere reconstruction when the rays to the scene
meet at a wide angle and both images see much of the network.  Each pair is
scored by

    score_ij = alpha_ij / alpha_max + (ov_i + ov_j) / (2 * ov_max)

where alpha_ij is the mean angle subtended at the shared tie points by the
two camera centers and ov_i is the tie-point count of image i normalized by
the best-covered image.  Pairs must clear a minimum convergence angle
(20 degrees by default) to be admissible at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NoAdmissiblePair, NoSharedPoints
from .projection import CameraView, _require_finite

DEFAULT_MIN_ANGLE = math.radians(20.0)


@dataclass
class TiePoint:
    """A world point with the set of image ids that observe it."""

    xyz: np.ndarray
    visible_in: frozenset

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(3)
        _require_finite("tie point", xyz=self.xyz)
        self.visible_in = frozenset(self.visible_in)


@dataclass
class ImageNetwork:
    """A set of calibrated views plus tie-point visibility."""

    views: list[CameraView]
    tie_points: list[TiePoint] = field(default_factory=list)

    def __post_init__(self):
        self._by_id = {v.image_id: v for v in self.views}
        if len(self._by_id) != len(self.views):
            raise ValueError("duplicate image ids in network")
        for tp in self.tie_points:
            missing = tp.visible_in.difference(self._by_id)
            if missing:
                raise ValueError(f"tie point references unknown images {sorted(missing)}")
            if len(tp.visible_in) < 2:
                raise ValueError("each tie point must be visible in at least two views")

    def view(self, image_id: str) -> CameraView:
        return self._by_id[image_id]


@dataclass
class PairScore:
    """Score components of one image pair."""

    i: str
    j: str
    alpha_ij: float
    ov_i: float
    ov_j: float
    theta_ij: float


def convergence_angle(view_i: CameraView, view_j: CameraView,
                      tie_points: Iterable[TiePoint]) -> float:
    """Mean angle (radians) subtended at shared tie points by the two centers."""
    ci = view_i.center
    cj = view_j.center
    angles = []
    for tp in tie_points:
        if view_i.image_id not in tp.visible_in or view_j.image_id not in tp.visible_in:
            continue
        ri = ci - tp.xyz
        rj = cj - tp.xyz
        ni = np.linalg.norm(ri)
        nj = np.linalg.norm(rj)
        if ni <= 0.0 or nj <= 0.0:
            continue  # tie point coincides with a camera center
        cosang = float(np.clip(ri @ rj / (ni * nj), -1.0, 1.0))
        angles.append(math.acos(cosang))
    if not angles:
        raise NoSharedPoints(
            f"views {view_i.image_id!r} and {view_j.image_id!r} share no tie points")
    return float(np.mean(angles))


def network_overlap(network: ImageNetwork) -> dict:
    """Tie-point count per image, normalized so the best-covered image is 1."""
    counts = {v.image_id: 0 for v in network.views}
    for tp in network.tie_points:
        for image_id in tp.visible_in:
            counts[image_id] += 1
    top = max(counts.values(), default=0)
    if top <= 0:
        raise ValueError("network has no tie points; overlap is undefined")
    return {image_id: c / top for image_id, c in counts.items()}


def best_pair(network: ImageNetwork,
              min_angle: float = DEFAULT_MIN_ANGLE) -> PairScore:
    """Highest-scoring admissible image pair.

    The normalizers are taken over all pairs (alpha_max) and all images
    (ov_max); admissibility requires alpha_ij strictly above ``min_angle``.
    Ties are broken toward the lexicographically smallest (i, j).
    """
    if not 0.0 <= min_angle < math.inf:
        raise ValueError(f"minimum convergence angle must be finite and >= 0, got {min_angle}")
    if len(network.views) < 2:
        raise ValueError("need at least two views")
    ov = network_overlap(network)
    ids = sorted(v.image_id for v in network.views)
    alphas = {}
    for i, j in itertools.combinations(ids, 2):
        try:
            alphas[(i, j)] = convergence_angle(
                network.view(i), network.view(j), network.tie_points)
        except NoSharedPoints:
            continue
    if not alphas:
        raise NoAdmissiblePair("no image pair shares tie points")
    alpha_max = max(alphas.values())
    if alpha_max <= 0.0:
        raise NoAdmissiblePair("all pairwise convergence angles are zero")
    ov_max = max(ov.values())
    best = None
    for (i, j), alpha in sorted(alphas.items()):
        if alpha <= min_angle:
            continue
        score = alpha / alpha_max + (ov[i] + ov[j]) / (2.0 * ov_max)
        if best is None or score > best.theta_ij:
            best = PairScore(i=i, j=j, alpha_ij=alpha, ov_i=ov[i], ov_j=ov[j],
                             theta_ij=score)
    if best is None:
        raise NoAdmissiblePair(
            f"no image pair exceeds the {math.degrees(min_angle):.1f} deg floor "
            f"(largest convergence angle found: {math.degrees(alpha_max):.2f} deg)")
    return best


def anchor_network(views: Sequence[CameraView], anchor_xyz) -> ImageNetwork:
    """Network with a single synthetic tie point seen by every view.

    Fallback for pose sets without tie points: pair scores then rank purely
    by the angle subtended at the anchor, with uniform overlap.
    """
    anchor = TiePoint(xyz=np.asarray(anchor_xyz, dtype=float),
                      visible_in=frozenset(v.image_id for v in views))
    return ImageNetwork(views=list(views), tie_points=[anchor])
