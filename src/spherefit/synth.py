"""Synthetic scenes and the Monte-Carlo accuracy/runtime protocol.

Scenes mirror a tabletop calibration setup: a handful of spheres resting on
a board, observed by a ring/arc/hemisphere of identical pinhole cameras, with
board-level tie points providing the network geometry.  Observations are the
exact closed-form silhouette ellipses, optionally perturbed with Gaussian
parameter noise; clutter ellipses deliberately violate the sphere-silhouette
identity by an axis inflation factor.

The view sweep draws p = min(50, C(n, k)) unique k-view subsets per requested
k, runs the pipeline of ``pipeline.reconstruct_subset`` (gate -> pairwise
matching of all view pairs in the subset, merged into one-ellipse-per-view
tracks -> multi-view reconstruction) on each subset, and aggregates
percentage parameter errors and per-trial wall time.  The highest-scoring
pair of the full network is evaluated as a distinguished extra data point.
Every trial is listed before the first runs; the trials then run in forked
worker processes sent only the scene, one per CPU of the process's affinity
set, whole k blocks largest first, and their statistics equal a serial sweep's.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigInfeasible, DegenerateGeometry, DegenerateProjection
from .netselect import ImageNetwork, best_pair
from .pipeline import reconstruct_subset
from .projection import (
    DEPTH_MARGIN,
    PIXEL_LIMIT,
    WORLD_LIMIT,
    CameraView,
    EllipseObservation,
    Sphere,
    _require_finite,
    camera_arrays,
    ellipse_checks,
    fold_axis_angle,
    pinhole,
    silhouette,
)
from .reconstruct import SphereModel

# Not called here: bench/spans.py wraps these names in this module.
from .gate import classify_spherical  # noqa: F401
from .match import match_ellipses  # noqa: F401
from .reconstruct import reconstruct_sphere  # noqa: F401

_DEFAULT_SPHERES = [
    ("ball-0", (-0.35, -0.35, 0.100), 0.100),
    ("ball-1", (0.00, -0.35, 0.060), 0.060),
    ("ball-2", (0.35, -0.35, 0.080), 0.080),
    ("ball-3", (-0.35, 0.00, 0.090), 0.090),
    ("ball-4", (0.00, 0.00, 0.070), 0.070),
    ("ball-5", (0.35, 0.00, 0.085), 0.085),
    ("ball-6", (-0.35, 0.35, 0.075), 0.075),
    ("ball-7", (0.00, 0.35, 0.095), 0.095),
    ("ball-8", (0.35, 0.35, 0.065), 0.065),
]


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class SceneConfig:
    """Recipe for a synthetic camera network observing spheres.

    ``spheres`` is a list of (sphere_id, center_xyz, radius); the default is
    a 3x3 grid of tabletop balls.  ``placement`` is one of ring / arc /
    hemisphere.  The master seed fully determines tie points, clutter, and
    any later noise.
    """

    n_cameras: int = 30
    placement: str = "arc"
    camera_distance: float = 2.0
    camera_height: float = 1.0
    arc_span_deg: float = 120.0
    look_at: tuple = (0.0, 0.0, 0.0)
    f: float = 3000.0
    px: float = 1920.0
    py: float = 1080.0
    width: float = 3840.0
    height: float = 2160.0
    spheres: list = field(default_factory=lambda: [list(s) for s in _DEFAULT_SPHERES])
    n_tie_points: int = 40
    tie_point_extent: float = 0.6
    clutter_per_image: int = 0
    clutter_inflation: float = 1.2
    sigma_px: float = 0.5
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "SceneConfig":
        """Config from parsed JSON; ``ValueError`` names the first key whose
        value lacks the JSON type of its default (an integer in the float
        range may stand for a float), a count outside [0, 100000], a negative
        seed, a float beyond ``PIXEL_LIMIT`` or not finite, a width or height
        <= 0, or a look_at value or sphere center or radius not within
        ``WORLD_LIMIT``."""
        if not isinstance(data, dict):
            raise ValueError(f"scene config must be a JSON object, got {type(data).__name__}")
        cfg = cls()
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown scene config key {key!r}")
            if not _same_kind(value, getattr(cfg, key)):
                raise ValueError(f"scene config key {key!r} has the wrong type: {value!r}")
            setattr(cfg, key, value)
        for key in ("n_cameras", "n_tie_points", "clutter_per_image"):
            if not 0 <= getattr(cfg, key) <= _MAX_COUNT:
                raise ValueError(f"scene config key {key!r} must lie in [0, {_MAX_COUNT}], "
                                 f"got {getattr(cfg, key)}")
        if cfg.seed < 0:
            raise ValueError(f"scene config key 'seed' must be an integer >= 0, got {cfg.seed}")
        for key in [key for key, value in vars(cls()).items() if isinstance(value, float)]:
            value, positive = getattr(cfg, key), key in ("width", "height")
            if not (abs(value) <= PIXEL_LIMIT and (value > 0.0 or not positive)):
                raise ValueError(f"scene config key {key!r} must be {'positive, ' * positive}"
                                 f"finite and at most 2^200 in magnitude, got {value}")
        if not _is_xyz(cfg.look_at):
            raise ValueError(f"scene config key 'look_at' must be 3 numbers, got {cfg.look_at!r}")
        if not all(abs(x) <= WORLD_LIMIT for x in cfg.look_at):  # NaN fails too
            raise ValueError(f"scene config key 'look_at' must be finite and at most 2^300 "
                             f"in magnitude, got {cfg.look_at!r}")
        for entry in cfg.spheres:
            if not (_same_kind(entry, []) and len(entry) == 3 and _same_kind(entry[0], "")
                    and _is_xyz(entry[1]) and _same_kind(entry[2], 0.0)):
                raise ValueError(f"scene config key 'spheres' needs [id, [x, y, z], radius] "
                                 f"entries, got {entry!r}")
            if not all(abs(x) <= WORLD_LIMIT for x in (*entry[1], entry[2])):
                raise ValueError(f"scene config key 'spheres' sphere {entry[0]!r}: center and "
                                 f"radius must be finite and at most 2^300 in magnitude")
        cfg.spheres = [(sid, tuple(center), float(radius))
                       for sid, center, radius in cfg.spheres]
        cfg.look_at = tuple(cfg.look_at)
        return cfg


#: Bound on the counts of a scene config, which scene generation loops over.
_MAX_COUNT = 100_000


def _same_kind(value, default) -> bool:
    """Whether ``value`` has the JSON type of ``default``; no config value
    is boolean, and an integer may stand for a float in the float range."""
    if isinstance(value, int) and isinstance(default, float):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    kinds = {int: int, float: float, str: str}.get(type(default), (list, tuple))
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_xyz(value) -> bool:
    return _same_kind(value, []) and len(value) == 3 and all(_same_kind(x, 0.0) for x in value)


@dataclass
class SyntheticScene:
    """A generated scene: its camera network, ground truth and observations."""

    config: SceneConfig
    network: ImageNetwork
    spheres: list[tuple[str, Sphere]]
    observations: dict  # image_id -> list[EllipseObservation], clutter included
    clutter_ids: set = field(default_factory=set)

    @property
    def views(self) -> list[CameraView]:
        return self.network.views

    def view(self, image_id: str) -> CameraView:
        return self.network.view(image_id)


def _look_at_rotation(camera_center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation with the principal axis toward ``target``."""
    z_axis = target - camera_center
    norm = np.linalg.norm(z_axis)
    if norm <= 0.0:
        raise ValueError("camera center coincides with the look-at target")
    z_axis = z_axis / norm
    up = np.array([0.0, 0.0, 1.0])
    x_axis = np.cross(z_axis, up)
    if np.linalg.norm(x_axis) < 1e-9:
        up = np.array([0.0, 1.0, 0.0])  # camera looks straight up/down
        x_axis = np.cross(z_axis, up)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    return np.vstack([x_axis, y_axis, z_axis])


def _camera_centers(config: SceneConfig) -> list[np.ndarray]:
    n, d = config.n_cameras, config.camera_distance
    if config.placement == "ring":
        phis = [2.0 * math.pi * i / n for i in range(n)]
    elif config.placement == "arc":
        span = math.radians(config.arc_span_deg)
        phis = [-span / 2.0 + span * (i / max(n - 1, 1)) for i in range(n)]
    elif config.placement == "hemisphere":
        # Deterministic spiral over elevations 20..70 degrees.
        centers = []
        for i in range(n):
            elev = math.radians(20.0 + 50.0 * (i / max(n - 1, 1)))
            phi = 2.0 * math.pi * 1.618 * i
            centers.append(np.array([d * math.cos(elev) * math.cos(phi),
                                     d * math.cos(elev) * math.sin(phi),
                                     d * math.sin(elev)]))
        return centers
    else:
        raise ValueError(f"unknown placement {config.placement!r}")
    return [np.array([d * math.cos(phi), d * math.sin(phi), config.camera_height])
            for phi in phis]


def generate_scene(config: SceneConfig) -> SyntheticScene:
    """Build the exact scene: poses, tie points, silhouettes, clutter.

    Deterministic in ``config``, whose ``seed`` drives every random draw.
    Raises ConfigInfeasible when any sphere fails the depth-clears-radius
    requirement in any camera.  Each stage is one array pass over all views.
    """
    rng = _rng(config.seed, 0)
    target = np.asarray(config.look_at, dtype=float)
    centers = _camera_centers(config)
    rots = [_look_at_rotation(center, target) for center in centers]
    views = [CameraView(f"img-{i:02d}", config.f, config.px, config.py, rot, -rot @ center)
             for i, (center, rot) in enumerate(zip(centers, rots))]
    image_ids = [v.image_id for v in views]
    f, px, py, rot, t = (a[:, None] for a in camera_arrays(views))

    spheres = [(sid, Sphere(center, radius)) for sid, center, radius in config.spheres]
    radii = np.array([s.radius for _, s in spheres])
    # Each sphere center in each view.  Entries before the first, view-major,
    # whose center is not finite or depth does not clear its radius are built
    # (with libm's atan2, which numpy's need not match); then that one raises.
    cam = (rot @ np.array([s.center for _, s in spheres]).reshape(-1, 3, 1))[..., 0] + t
    bad = ~np.isfinite(cam).all(axis=2) | (cam[..., 2] <= radii * (1.0 + DEPTH_MARGIN))
    good = np.append(bad, True).argmax()
    x, y, z, r, fs, pxs, pys = (a.ravel()[:good] for a in (
        *np.moveaxis(cam, 2, 0), *np.broadcast_arrays(radii, f, px, py)))
    theta = [fold_axis_angle(math.atan2(yi, xi)) if ui > 0.0 else 0.0
             for xi, yi, ui in zip(x.tolist(), y.tolist(), (x * x + y * y).tolist())]
    projected = [EllipseObservation(image_id, sid, *values) for (image_id, sid), values in zip(
        itertools.product(image_ids, [sid for sid, _ in spheres]),
        zip(*(a.tolist() for a in silhouette(x, y, z, r, fs, pxs, pys)), theta))]
    if good < bad.size:
        (i, s), xyz = divmod(good, len(spheres)), cam.reshape(-1, 3)[good]
        _require_finite("sphere", center=xyz)  # as Sphere(xyz, radius) raises
        raise ConfigInfeasible(f"sphere {spheres[s][0]!r} does not clear camera {image_ids[i]!r} "
                               f"(sphere depth {xyz[2]:.6g} does not clear radius {radii[s]:.6g})")

    # Board-level tie points, kept only if at least two cameras image them.
    extent, w, h = config.tie_point_extent, config.width, config.height
    points = np.zeros((config.n_tie_points, 3))
    points[:, :2] = rng.uniform(-extent, extent, size=(config.n_tie_points, 2))
    cam = (rot @ points[:, :, None])[..., 0] + t
    with np.errstate(divide="ignore", invalid="ignore"):  # depth 0 is not in front
        u, v = pinhole(cam, f, px, py)
    seen = ((cam[..., 2] > 0.0) & (0.0 <= u) & (u <= w) & (0.0 <= v) & (v <= h)).T
    kept = seen.sum(axis=1) >= 2
    visible_in = [list(itertools.compress(image_ids, row)) for row in seen[kept].tolist()]

    # Clutter: ellipses built to satisfy the silhouette identity, then
    # inflated along the major axis so the gate must reject them.  Squares
    # are libm's pow, as Python's ** on a float is, which is not always x * x.
    n = config.clutter_per_image
    cx, cy, b, angle = rng.uniform([0.2 * w, 0.2 * h, 60.0, -math.pi / 2],
                                   [0.8 * w, 0.8 * h, 150.0, math.pi / 2],
                                   size=(len(views), n, 4)).transpose(2, 0, 1)
    dx2, dy2, f2, b2 = np.float_power(np.broadcast_arrays(cx - px, cy - py, f, b), 2)
    a = b * np.sqrt((dx2 + dy2) / (f2 + b2) + 1.0) * config.clutter_inflation
    rows = np.stack([cx, cy, np.maximum(a, b), np.minimum(a, b), fold_axis_angle(angle)], 2)
    clutter = [[EllipseObservation(image_id, f"clutter-{idx:02d}-{c:02d}", *row)
                for c, row in enumerate(view_rows)]
               for idx, (image_id, view_rows) in enumerate(zip(image_ids, rows.tolist()))]

    projected = iter(projected)
    observations = {image_id: [*itertools.islice(projected, len(spheres)), *ellipses]
                    for image_id, ellipses in zip(image_ids, clutter)}
    return SyntheticScene(config=config, network=ImageNetwork(views, points[kept], visible_in),
                          spheres=spheres, observations=observations,
                          clutter_ids={e.ellipse_id for ellipses in clutter for e in ellipses})


def perturb_observations(scene: SyntheticScene, sigma, seed: int) -> SyntheticScene:
    """Add zero-mean Gaussian noise to (a_e, b_e, x_ce, y_ce) of every ellipse.

    ``sigma`` is a scalar or per-parameter 4-sequence in pixels.  Every noisy
    observation shares one read-only array, the true diagonal covariance;
    the axis angle is left untouched, and axes are swapped back if noise
    inverts their ordering.  All but the observations is shared with
    ``scene``, which all-zero sigma returns as it is.  Raises ValueError
    unless every sigma lies in [0, ``PIXEL_LIMIT``], and for a noisy ellipse
    whose center or semi-major length lands beyond ``PIXEL_LIMIT``.
    """
    sig = np.asarray(sigma, dtype=float) * np.ones(4)
    if not all(0.0 <= value <= PIXEL_LIMIT for value in sig.tolist()):
        raise ValueError(f"noise sigma must be finite, >= 0 and at most 2^200 px, got {sigma}")
    if not sig.any():
        return scene
    cov = np.diag(sig ** 2)
    cov.flags.writeable = False
    image_ids = sorted(scene.observations)
    rows = [e for image_id in image_ids for e in scene.observations[image_id]]
    # One normal 4-vector per ellipse, in sorted-image order.
    noise = _rng(seed, 1).normal(0.0, sig, size=(len(rows), 4))
    params = np.array([(e.a_e, e.b_e, e.x_ce, e.y_ce) for e in rows]).reshape(-1, 4) + noise
    b, a = np.sort(params[:, :2], axis=1).T  # swapped back where noise inverts them
    b = np.maximum(b, 1e-6)  # keep the observation valid under extreme draws
    a = np.maximum(a, b)
    x, y = params[:, 2], params[:, 3]
    in_range = ellipse_checks(x, y, a, b)[2].tolist()
    if not all(in_range):
        e = rows[in_range.index(False)]
        raise ValueError(f"noisy ellipse {e.ellipse_id!r} of image {e.image_id!r} "
                         f"lies beyond 2^200 px")
    # Valid rows: only the theta fold of EllipseObservation is left to do.
    made = iter([EllipseObservation._trusted({
                     "image_id": e.image_id, "ellipse_id": e.ellipse_id, "x_ce": xi, "y_ce": yi,
                     "a_e": ai, "b_e": bi, "theta": fold_axis_angle(e.theta), "cov": cov})
                 for e, xi, yi, ai, bi in zip(rows, x.tolist(), y.tolist(), a.tolist(),
                                              b.tolist())])
    noisy = {image_id: list(itertools.islice(made, len(scene.observations[image_id])))
             for image_id in image_ids}
    return replace(scene, observations=noisy)


def p_rmse(estimated, truth: Sphere) -> tuple[float, float]:
    """Percentage parameter errors (center, radius) against ground truth.

    Center error is 100 * ||C_est - C_true|| / R_true and radius error
    100 * |R_est - R_true| / R_true, both normalized by the true radius so
    spheres of different sizes are comparable.
    """
    sphere = estimated.sphere if isinstance(estimated, SphereModel) else estimated
    if sphere.frame != truth.frame:
        raise ValueError(f"frame mismatch: {sphere.frame!r} vs {truth.frame!r}")
    center_pct = 100.0 * float(np.linalg.norm(sphere.center - truth.center)) / truth.radius
    radius_pct = 100.0 * abs(sphere.radius - truth.radius) / truth.radius
    return center_pct, radius_pct


@dataclass
class TrialStats:
    """Aggregate accuracy/runtime of p subsets of k views."""

    k: int
    p: int
    center_mean: float
    center_min: float
    center_max: float
    radius_mean: float
    radius_min: float
    radius_max: float
    mean_ms: float
    failures: int
    selection: str = "random"


def _associate(models: list[tuple[dict, SphereModel]],
               truth: dict) -> dict:
    """Assign each track to the ground-truth sphere named by the plurality of
    its member ellipse ids; keep the strongest track per sphere."""
    chosen: dict = {}
    for track, model in models:
        counts = Counter(track.values())
        top = max(counts.values())
        sid = min(eid for eid, c in counts.items() if c == top)
        if sid not in truth:
            continue
        score = (len(track), -model.triangulation_residual)
        if sid not in chosen or score > chosen[sid][0]:
            chosen[sid] = (score, model)
    return {sid: model for sid, (_, model) in chosen.items()}


def _draw_subsets(ids: Sequence[str], k: int, p: int,
                  rng: np.random.Generator) -> list[tuple[str, ...]]:
    total = math.comb(len(ids), k)
    if total <= p:
        return [tuple(c) for c in itertools.combinations(sorted(ids), k)]
    ids = sorted(ids)
    seen = set()
    subsets = []
    while len(subsets) < p:
        pick = tuple(sorted(rng.choice(len(ids), size=k, replace=False).tolist()))
        if pick in seen:
            continue
        seen.add(pick)
        subsets.append(tuple(ids[i] for i in pick))
    return subsets


def _trial_rows(scene: SyntheticScene, subsets) -> list:
    """One row per subset, in order: the trial's mean center and radius
    P-RMSE and the seconds ``reconstruct_subset`` took, or None if it failed."""
    truth = dict(scene.spheres)
    rows = []
    for subset in subsets:
        views = [scene.view(vid) for vid in subset]
        start = time.perf_counter()
        try:
            models = reconstruct_subset(views, scene.observations)
        except (DegenerateGeometry, DegenerateProjection):
            rows.append(None)
            continue
        elapsed = time.perf_counter() - start
        assoc = _associate(models, truth)
        if not assoc:
            # The gate is allowed to drop ~5% of true silhouettes per view, so
            # a subset may reconstruct fewer spheres than exist; only a trial
            # that produces nothing (or degenerates) counts as failed.
            rows.append(None)
            continue
        errors = [p_rmse(model, truth[sid]) for sid, model in sorted(assoc.items())]
        rows.append((float(np.mean([c for c, _ in errors])),
                     float(np.mean([r for _, r in errors])), elapsed))
    return rows


def _trial_stats(k: int, selection: str, rows, timing: bool) -> TrialStats:
    """Aggregate of one block's ``_trial_rows``, one per subset; failed
    trials are counted and left out of the statistics."""
    done = [row for row in rows if row is not None]
    if done:
        centers, radii, times = ([row[i] for row in done] for i in range(3))
        stats = (float(np.mean(centers)), float(np.min(centers)), float(np.max(centers)),
                 float(np.mean(radii)), float(np.min(radii)), float(np.max(radii)))
        mean_ms = 1000.0 * float(np.mean(times)) if timing else 0.0
    else:
        stats = (math.nan,) * 6
        mean_ms = math.nan if timing else 0.0
    return TrialStats(k=k, p=len(rows), center_mean=stats[0], center_min=stats[1],
                      center_max=stats[2], radius_mean=stats[3],
                      radius_min=stats[4], radius_max=stats[5],
                      mean_ms=mean_ms, failures=len(rows) - len(done), selection=selection)


def _workers() -> int:
    """Worker processes of a sweep: one per CPU in this process's affinity
    set, which OS tools such as ``taskset`` limit; 1 where the OS keeps no
    affinity set."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


#: The scene of the sweep a forked worker serves, set once in each worker by
#: ``_start_worker``; never set in the process that runs the sweep.
_worker_scene = None


def _start_worker(scene: SyntheticScene) -> None:
    global _worker_scene
    _worker_scene = scene


def _worker_rows(subsets) -> list:
    return _trial_rows(_worker_scene, subsets)


def _map_chunks(scene: SyntheticScene, chunks: list, workers: int) -> list:
    """``_trial_rows`` of each chunk of subsets, in order.

    With more than one worker, forked workers share the chunks, each taking
    the next one when it is free; the scene reaches them by the fork, not by
    pickling.  The pool forks every worker in its constructor, before its
    helper threads start, and every worker is ended and joined before this
    returns or raises.  An error that a trial raises reaches the caller
    with its type and message.  With one worker, or no ``fork`` start
    method, the chunks run here, in order.
    """
    workers = min(workers, len(chunks))
    if workers > 1:
        import multiprocessing  # here only, so that importing the CLI stays lean

        if "fork" in multiprocessing.get_all_start_methods():
            pool = multiprocessing.get_context("fork").Pool(
                workers, initializer=_start_worker, initargs=(scene,))
            try:
                return pool.map(_worker_rows, chunks, chunksize=1)
            finally:
                pool.terminate()
                pool.join()
    return [_trial_rows(scene, chunk) for chunk in chunks]


def monte_carlo_views(scene: SyntheticScene, k_values: Sequence[int], seed: int,
                      timing: bool = True) -> list[TrialStats]:
    """Accuracy/runtime sweep over random k-view subsets.

    For each k, p = min(50, C(n, k)) unique subsets are drawn with a stream
    derived from (seed, k); failed trials (degeneracy, or fewer tracks than
    ground-truth spheres) are counted and excluded from the statistics.  The
    highest-scoring pair of the full network is appended as a distinguished
    single-trial entry.  Every k is checked, every subset drawn and the pair
    chosen before the first trial runs.  The blocks of trials, one per k and
    the pair, run largest first by k^2 times their trial count (all-pairs
    matching grows like k^2), each cut into one contiguous chunk per worker
    of ``_map_chunks``: one forked process per CPU this process may use,
    sent only the scene.  Each trial is timed where it runs; ``mean_ms`` is
    0 unless ``timing``.  The statistics equal those of a serial sweep.
    """
    ids = [v.image_id for v in scene.views]
    n = len(ids)
    k_values = sorted(set(int(k) for k in k_values))
    for k in k_values:
        if k < 2 or k > n:
            raise ValueError(f"subset size {k} outside [2, {n}]")
    blocks = [(k, "random", _draw_subsets(ids, k, min(50, math.comb(n, k)), _rng(seed, 2, k)))
              for k in k_values]
    pair = best_pair(scene.network)
    blocks.append((2, "best_pair", [(pair.i, pair.j)]))
    order = sorted(range(len(blocks)), key=lambda b: -blocks[b][0] ** 2 * len(blocks[b][2]))
    workers = _workers()
    chunks = []  # each block in contiguous chunks whose sizes differ by at most one
    for subsets in (blocks[b][2] for b in order):
        parts = min(workers, len(subsets))
        chunks += [subsets[i * len(subsets) // parts:(i + 1) * len(subsets) // parts]
                   for i in range(parts)]
    rows = itertools.chain.from_iterable(_map_chunks(scene, chunks, workers))
    runs = {b: list(itertools.islice(rows, len(blocks[b][2]))) for b in order}
    return [_trial_stats(k, selection, runs[b], timing)
            for b, (k, selection, _) in enumerate(blocks)]
