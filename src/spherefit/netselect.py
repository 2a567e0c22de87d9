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
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NoAdmissiblePair
from .projection import CameraView, _require_finite, _require_world, _trusted, camera_arrays

DEFAULT_MIN_ANGLE = math.radians(20.0)


@dataclass
class TiePoint:
    """A world point with the set of image ids that observe it."""

    xyz: np.ndarray
    visible_in: frozenset
    _trusted = classmethod(_trusted)

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(3)
        _require_finite("tie point", xyz=self.xyz)
        _require_world("tie point", "xyz", self.xyz)
        self.visible_in = frozenset(self.visible_in)


@dataclass
class ImageNetwork:
    """A set of calibrated views plus tie-point visibility.  The image-id
    index and the visibility table are built at construction, so the views
    and tie points are not changed afterwards."""

    views: list[CameraView]
    tie_points: list[TiePoint] = field(default_factory=list)

    def __post_init__(self):
        self._column = {v.image_id: c for c, v in enumerate(self.views)}
        if len(self._column) != len(self.views):
            raise ValueError("duplicate image ids in network")
        # Which views see which tie point, (tie points x views), by one
        # membership test per pair run in C.  A tie point seen by fewer
        # views than it holds ids names an unknown image.
        n, sets = len(self.views), [tp.visible_in for tp in self.tie_points]
        pairs = map(operator.contains, itertools.chain.from_iterable(
            itertools.repeat(ids, n) for ids in sets), itertools.cycle(self._column))
        self._visible = np.fromiter(pairs, bool, len(sets) * n).reshape(len(sets), n)
        counts = np.fromiter(map(len, sets), np.intp, len(sets))
        for tp in itertools.compress(self.tie_points,
                                     (self._visible.sum(axis=1) < counts) | (counts < 2)):
            missing = tp.visible_in.difference(self._column)
            if missing:
                raise ValueError(f"tie point references unknown images {sorted(missing)}")
            raise ValueError("each tie point must be visible in at least two views")

    def view(self, image_id: str) -> CameraView:
        return self.views[self._column[image_id]]


@dataclass
class PairScore:
    """Score components of one image pair."""

    i: str
    j: str
    alpha_ij: float
    ov_i: float
    ov_j: float
    theta_ij: float


# Elements of one (tie points x views x views) block of ``pair_angles``:
# 8 MB per float64 temporary up to 1,024 views, one tie point per block above.
_BLOCK_ELEMENTS = 1 << 20


def _centers(views: Sequence[CameraView]) -> np.ndarray:
    """The ``CameraView.center`` of each view, -rot^T t, in one batched product."""
    _, _, _, rot, t = camera_arrays(views)
    return (-rot.transpose(0, 2, 1) @ t.reshape(-1, 3, 1))[..., 0]


def pair_angles(network: ImageNetwork, ids: Sequence[str]):
    """``(iu, ju, alpha, shared, seen)`` over the views ``ids``, in one array pass.

    One entry per pair ``ids[iu[p]]``, ``ids[ju[p]]`` of the row-major upper
    triangle: ``alpha[p]`` is the mean angle (radians) subtended by their
    centers at the ``shared[p]`` tie points both see (NaN if none); a tie
    point at a camera center gives that view no ray.  ``seen[a]`` counts the
    tie points ``ids[a]`` sees.
    """
    columns = [network._column[image_id] for image_id in ids]
    centers = _centers([network.views[c] for c in columns])
    points = np.array([tp.xyz for tp in network.tie_points]).reshape(-1, 3)
    visible = network._visible[:, columns]
    # The pairs (iu, ju) of the upper triangle, taken in C order so that the
    # sums run in tie-point order.
    iu, ju = np.triu_indices(len(ids), 1)
    upper, total, pairs = iu * len(ids) + ju, np.zeros(len(iu)), np.zeros(len(iu), np.int64)
    step = max(1, _BLOCK_ELEMENTS // len(ids) ** 2)
    for block in (slice(t, t + step) for t in range(0, len(points), step)):
        rays = centers - points[block, None, :]
        norms = np.sqrt(np.einsum("tvk,tvk->tv", rays, rays))
        ok = visible[block] & (norms > 0.0)
        both = ok.take(iu, axis=1) & ok.take(ju, axis=1)
        cos = (rays @ rays.transpose(0, 2, 1)).reshape(len(rays), -1).take(upper, axis=1)
        cos /= np.where(both, norms.take(iu, axis=1) * norms.take(ju, axis=1), 1.0)
        total += np.where(both, np.arccos(np.clip(cos, -1.0, 1.0)), 0.0).sum(axis=0)
        pairs += both.sum(axis=0)
    with np.errstate(invalid="ignore"):
        return iu, ju, total / pairs, pairs, visible.sum(axis=0)


def best_pair(network: ImageNetwork,
              min_angle: float = DEFAULT_MIN_ANGLE) -> PairScore:
    """Highest-scoring admissible image pair.

    The normalizers are taken over all pairs (alpha_max) and all images
    (ov_max); admissibility requires alpha_ij strictly above ``min_angle``.
    Pairs that share no tie point are not scored.  Ties are broken toward
    the lexicographically smallest (i, j).
    """
    if not 0.0 <= min_angle < math.inf:
        raise ValueError(f"minimum convergence angle must be finite and >= 0, got {min_angle}")
    if len(network.views) < 2:
        raise ValueError("need at least two views")
    ids = sorted(v.image_id for v in network.views)
    iu, ju, alpha, shared, seen = pair_angles(network, ids)
    if seen.max() <= 0:
        raise ValueError("network has no tie points; overlap is undefined")
    ov = seen / seen.max()
    # Row-major over sorted ids: the pairs in lexicographic (i, j) order.
    rows, cols, alphas = (a[shared > 0] for a in (iu, ju, alpha))
    if rows.size == 0:
        raise NoAdmissiblePair("no image pair shares tie points")
    alpha_max = alphas.max()
    if alpha_max <= 0.0:
        raise NoAdmissiblePair("all pairwise convergence angles are zero")
    scores = alphas / alpha_max + (ov[rows] + ov[cols]) / (2.0 * ov.max())
    admissible = np.flatnonzero(alphas > min_angle)
    if admissible.size == 0:
        raise NoAdmissiblePair(
            f"no image pair exceeds the {math.degrees(min_angle):.1f} deg floor "
            f"(largest convergence angle found: {math.degrees(alpha_max):.2f} deg)")
    best = admissible[np.argmax(scores[admissible])]  # first maximum wins ties
    a, b = rows[best], cols[best]
    return PairScore(i=ids[a], j=ids[b], alpha_ij=float(alphas[best]),
                     ov_i=float(ov[a]), ov_j=float(ov[b]), theta_ij=float(scores[best]))


def anchor_network(views: Sequence[CameraView], anchor_xyz) -> ImageNetwork:
    """Network with a single synthetic tie point seen by every view.

    Fallback for pose sets without tie points: pair scores then rank purely
    by the angle subtended at the anchor, with uniform overlap.
    """
    anchor = TiePoint(xyz=np.asarray(anchor_xyz, dtype=float),
                      visible_in=frozenset(v.image_id for v in views))
    return ImageNetwork(views=list(views), tie_points=[anchor])
