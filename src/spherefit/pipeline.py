"""The reconstruction pipeline: gate, all-pairs matching, tracks, spheres.

One path serves the command line, the synthetic sweep and the library, in
stages over one ``EllipseTable`` of rows keyed (image_id, ellipse_id):

* ``gather_ellipses`` builds the table of a view subset's ellipse objects;
  the command line reads its table from the ellipse file;
* ``gate_views`` gates every row of a table in one array pass, with the
  interior orientation of the row's view, and returns the tau, sigma_tau
  and accepted arrays in table order; every command line command that
  reads ellipses gates the whole file in this one call;
* ``view_records`` builds each view's ``ViewRecord``, all in one array pass:
  once per view, what every pair it enters reads (its accepted rows with
  their corrected centers, center sigmas and normal matrices, its camera
  row, K^-1 and |t|); rows of views not asked for are left out, so the
  command line builds the chosen pair's records from the file's gate arrays;
* ``reconstruct_gated`` matches every pair of records, once per pair (F, the
  epipolar distances and the two-view solve of the admissible pairings),
  merges the pairwise matches into one-ellipse-per-view tracks and recovers
  one sphere per track: a two-view track's from the solve row of the match
  that formed it, longer ones once per track length;
* ``reconstruct_subset`` chains the four.

Views are processed in the order the caller gives them: pairs are matched
as (earlier, later), and each track's ellipses enter the reconstruction in
view order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .gate import DEFAULT_K, DEFAULT_SIGMA_PX, classify_view
from .match import ViewRecord, match_ellipses
from .projection import CameraView, EllipseTable, corrected_center
from .reconstruct import SphereModel, _models, _normal, reconstruct_tracks


def gather_ellipses(views: Sequence[CameraView], observations: dict) -> EllipseTable:
    """The ``EllipseTable`` of the ellipses of ``views``, view by view in
    ``views`` order; ``observations`` maps image ids to ellipse lists.  Rows
    are keyed by the view's image id, so untagged ellipses (image id "")
    take their view's.  Raises ValueError for an ellipse id that repeats in
    a view, or for an ellipse tagged with another image."""
    ellipses, keys = [], []
    for view in views:
        chosen = observations.get(view.image_id, [])
        ids = [e.ellipse_id for e in chosen]
        if len(set(ids)) != len(ids):
            raise ValueError(f"image {view.image_id!r} repeats ellipse id "
                             f"{max(ids, key=ids.count)!r}")
        foreign = next((e for e in chosen if e.image_id not in ("", view.image_id)), None)
        if foreign is not None:
            raise ValueError(f"ellipse {foreign.ellipse_id!r} of image {foreign.image_id!r} "
                             f"given for image {view.image_id!r}")
        ellipses.extend(chosen)
        keys.extend((view.image_id, ellipse_id) for ellipse_id in ids)
    return EllipseTable.of(ellipses, keys)


def gate_views(views: Sequence[CameraView], table: EllipseTable,
               k_sigma: float = DEFAULT_K, default_sigma: float = DEFAULT_SIGMA_PX,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate every row of ``table`` in one array pass, with the focal length,
    principal point and ``iop_cov`` (none: exactly known) of the view its
    image id names, and ``default_sigma`` pixels on every parameter of a row
    without a covariance.  Returns the tau, sigma_tau and accepted arrays in
    table order; raises ValueError naming the first row whose image is not
    in ``views``."""
    index = {view.image_id: i for i, view in enumerate(views)}
    try:
        position = [index[image_id] for image_id, _ in table.keys]
    except KeyError:
        image_id, ellipse_id = next(key for key in table.keys if key[0] not in index)
        raise ValueError(f"ellipse {ellipse_id!r} references unknown image {image_id!r}") from None
    f, px, py = np.array([(v.f, v.px, v.py) for v in views]).reshape(-1, 3).T[:, position]
    iop_cov = np.array([np.zeros((3, 3)) if v.iop_cov is None else v.iop_cov for v in views]
                       )[position] if any(v.iop_cov is not None for v in views) else None
    return classify_view(table.params, table.cov, table.has_cov, f, px, py, iop_cov=iop_cov,
                         k=k_sigma, default_sigma=default_sigma)


def view_records(views: Sequence[CameraView], table: EllipseTable,
                 accepted: np.ndarray) -> list[ViewRecord]:
    """The ``ViewRecord`` of each view, in ``views`` order, holding its rows
    of ``table`` where ``accepted`` is True, sorted by ellipse id; rows of
    other images are left out.  One array pass over the kept rows computes
    the corrected centers, the center sigmas (0 for a row without cov) and
    the normal matrices of every view, and one over the views their camera
    rows and K^-1, read off each row's f, px, py, 0 and 1."""
    position = {view.image_id: i for i, view in enumerate(views)}
    order = sorted([(at, key[1], row) for row in np.flatnonzero(accepted).tolist()
                    if (at := position.get((key := table.keys[row])[0])) is not None])
    at, ids, picked = zip(*order) if order else ((), (), ())
    bounds = [bisect.bisect_left(at, i) for i in range(len(views) + 1)]
    at, picked = np.array(at, dtype=np.intp), np.array(picked, dtype=np.intp)
    cameras = np.array([(v.f, v.px, v.py, *r0, t0, *r1, t1, *r2, t2, 0.0, 1.0) for v in views
                        for (r0, r1, r2), (t0, t1, t2) in [(v.rot.tolist(), v.t.tolist())]]
                       ).reshape(-1, 17)  # f, px, py, the pose [rot | t] by rows, 0 and 1
    camera = cameras[at]
    rows = np.concatenate((table.params[picked], np.ones((len(at), 3))), axis=1)
    rows[:, 4], rows[:, 5] = corrected_center(rows[:, 0], rows[:, 1], rows[:, 3], *camera[:, :3].T)
    cov = table.cov[picked]
    sigmas = np.sqrt(np.maximum(0.5 * (cov[:, 2, 2] + cov[:, 3, 3]), 0.0))
    normal = _normal(camera[:, 0], camera[:, 1:3], camera[:, 3:15].reshape(-1, 3, 4), rows[:, 4:6])
    k_inv = np.linalg.inv(cameras.take((0, 15, 1, 15, 0, 2, 15, 15, 16), axis=1).reshape(-1, 3, 3))
    return [ViewRecord(view, list(ids[a:b]), rows[a:b], sigmas[a:b], normal[a:b],
                       cameras[i:i + 1], k_inv[i], math.sqrt(view.t.dot(view.t)))
            for i, (view, a, b) in enumerate(zip(views, bounds, bounds[1:]))]


def _merge_tracks(pair_matches: list[tuple]) -> list[tuple[dict, Optional[int]]]:
    """Greedy merge of pairwise matches into one-ellipse-per-view tracks.

    Each match is (reprojection distance, image_l, image_k, ellipse_l,
    ellipse_k, row); matches are processed in that tuple order, so by
    ascending distance with ties broken by ids.  A match joins the tracks
    (dicts image_id -> ellipse_id) of its two ellipses, the left one taking
    in the right, unless they share a view: they are one track already, or
    joining would put two ellipses of one view into a track.  Returns
    (track, row) pairs sorted by the ellipse each track grew from, its first
    item; row is a two-view track's forming match's, None for one view."""
    track_of: dict = {}  # (image_id, ellipse_id) -> the track holding it
    joined: dict = {}  # id of a track -> the row of the last match joined into it while alive
    for _, vid_l, vid_k, eid_l, eid_k, row in sorted(pair_matches):
        track_l = track_of.setdefault((vid_l, eid_l), {vid_l: eid_l})
        track_k = track_of.setdefault((vid_k, eid_k), {vid_k: eid_k})
        if track_l.keys().isdisjoint(track_k):
            track_l.update(track_k)
            track_of.update(dict.fromkeys(track_k.items(), track_l))
            joined[id(track_l)] = row
    first = {next(iter(track.items())): track for track in track_of.values()}
    return [(track, joined[id(track)] if len(track) > 1 else None)  # one view: maybe a dead id
            for _, track in sorted(first.items())]


def reconstruct_gated(records: Sequence[ViewRecord],
                      tol: Optional[float] = None) -> list[tuple[dict, SphereModel]]:
    """Match the records of every view pair, merge the matches into tracks
    and recover one sphere per track.

    ``records`` hold the ellipses the gate accepted, as ``view_records``
    builds them.  A two-view track's sphere is the solve row of the match
    that formed it; longer tracks go through ``reconstruct_tracks``.
    Returns (track, model) pairs, where a track maps image ids to ellipse
    ids; tracks whose geometry degenerates are dropped.
    """
    pair_matches, solves = [], {}
    for left, right in itertools.combinations(records, 2):
        result = match_ellipses(left, right, tol=tol)
        ids = (left.view.image_id, right.view.image_id)
        solves[ids] = result.solve
        pair_matches += [(m.reprojection_distance, *ids, m.ellipse_l, m.ellipse_k, row)
                         for m, row in zip(result.matches, result.rows)]
    tracks = [(track, row) for track, row in _merge_tracks(pair_matches) if len(track) >= 2]
    longer = [index for index, (track, _) in enumerate(tracks) if len(track) > 2]
    models = dict(zip(longer, reconstruct_tracks(records, [tracks[i][0] for i in longer])))
    by_pair: dict = {}  # view pair -> {index of a two-view track: its row in the pair's solve}
    for index, (track, row) in enumerate(tracks):
        if len(track) == 2:
            by_pair.setdefault(tuple(track), {})[index] = row
    for ids, rows in by_pair.items():
        models.update(zip(rows, _models(solves[ids], list(rows.values()), [ids] * len(rows))))
    return [(track, models[index]) for index, (track, _) in enumerate(tracks)
            if models[index] is not None]


def reconstruct_subset(views: Sequence[CameraView],
                       observations: dict) -> list[tuple[dict, SphereModel]]:
    """Full pipeline on one view subset at the default gate and epipolar
    tolerance: gather, gate, records of the accepted ellipses, all-pairs
    matching, tracks, multi-view reconstruction.  Returns (track, model)
    pairs."""
    table = gather_ellipses(views, observations)
    _, _, accepted = gate_views(views, table)
    return reconstruct_gated(view_records(views, table, accepted))
