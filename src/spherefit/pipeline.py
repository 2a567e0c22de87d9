"""The reconstruction pipeline: gate, all-pairs matching, tracks, spheres.

One path serves the command line, the synthetic sweep and the library:

* ``gate_views`` reads each view's ellipses once into its ``ViewRecord``
  and runs the spherical-ellipse gate on the record's arrays, with the
  view's interior-orientation covariance and a default pixel sigma for
  ellipses that carry no covariance; it returns each record with its tau,
  sigma_tau and accepted arrays;
* ``reconstruct_gated`` keeps the accepted rows of each record, matches
  every view pair, merges the pairwise matches into one-ellipse-per-view
  tracks and recovers one sphere per track: a two-view track's from the
  solve that matching made, longer ones once per track length;
* ``reconstruct_subset`` chains the two.

Views are processed in the order the caller gives them: pairs are matched
as (earlier, later), and each track's ellipses enter the reconstruction in
view order.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .gate import DEFAULT_K, DEFAULT_SIGMA_PX, classify_view
from .match import ViewRecord, match_ellipses, view_record
from .projection import CameraView
from .reconstruct import SphereModel, _models, reconstruct_tracks


class GatedView(NamedTuple):
    """A view's ``ViewRecord`` and the gate's tau, sigma_tau and accepted
    arrays, one entry per record row."""

    record: ViewRecord
    tau: np.ndarray
    sigma_tau: np.ndarray
    accepted: np.ndarray


def gate_views(views: Sequence[CameraView], observations: dict,
               k_sigma: float = DEFAULT_K, default_sigma: float = DEFAULT_SIGMA_PX,
               ) -> list[GatedView]:
    """Gate the ellipses of each view in one array pass per view.

    ``observations`` maps image ids to ellipse lists.  Returns one
    ``GatedView`` per view, in ``views`` order, whose record holds the
    view's ellipses sorted by id.  Ellipses without a covariance use
    ``default_sigma`` pixels on every parameter; each view's ``iop_cov``
    enters the variance of tau.  ``view_record`` raises ``ValueError`` for
    an ellipse id that repeats in a view.
    """
    gated = []
    for view in views:
        record = view_record(view, observations.get(view.image_id, []))
        gated.append(GatedView(record, *classify_view(
            record.params, record.cov, record.has_cov, view.f, view.px, view.py,
            iop_cov=view.iop_cov, k=k_sigma, default_sigma=default_sigma)))
    return gated


def _merge_tracks(pair_matches: list[tuple[float, str, str, str, str]]) -> list[dict]:
    """Greedy union of pairwise matches into one-ellipse-per-view tracks.

    Each match is (reprojection distance, image_l, image_k, ellipse_l,
    ellipse_k); matches are processed in that tuple order, so by ascending
    distance with ties broken by ids.  A union is skipped when it would put
    two different ellipses of the same view into one track.  Returns dicts
    mapping image_id -> ellipse_id.
    """
    parent: dict = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    members: dict = {}
    for _, vid_l, vid_k, eid_l, eid_k in sorted(pair_matches):
        node_l = (vid_l, eid_l)
        node_k = (vid_k, eid_k)
        for node in (node_l, node_k):
            if node not in parent:
                parent[node] = node
                members[node] = {node[0]: node[1]}
        root_l, root_k = find(node_l), find(node_k)
        if root_l == root_k:
            continue
        views_l, views_k = members[root_l], members[root_k]
        overlap = set(views_l) & set(views_k)
        if any(views_l[v] != views_k[v] for v in overlap):
            continue  # conflicting assignment; keep tracks separate
        parent[root_k] = root_l
        views_l.update(views_k)
        del members[root_k]
    return [members[find(node)] for node in sorted(members)]


def reconstruct_gated(gated: Sequence[GatedView],
                      tol: Optional[float] = None) -> list[tuple[dict, SphereModel]]:
    """Match the accepted ellipses of every view pair, merge the matches
    into tracks and recover one sphere per track.

    ``gated`` is the output of ``gate_views``; the accepted rows of each
    view's record serve both steps.  A two-view track's sphere is the solve
    row of the match that formed it; longer tracks go through
    ``reconstruct_tracks``.  Returns (track, model) pairs, where a track maps
    image ids to ellipse ids; tracks whose geometry degenerates are dropped.
    """
    records = [g.record.take(g.accepted) for g in gated]
    pair_matches, solves, formed = [], {}, {}
    for left, right in itertools.combinations(records, 2):
        result = match_ellipses(left, right, tol=tol)
        ids = (left.view.image_id, right.view.image_id)
        solves[ids] = result.solve
        for m, row in zip(result.matches, result.rows):
            pair_matches.append((m.reprojection_distance, *ids, m.ellipse_l, m.ellipse_k))
            formed[frozenset(((ids[0], m.ellipse_l), (ids[1], m.ellipse_k)))] = ids, row
    tracks = [track for track in _merge_tracks(pair_matches) if len(track) >= 2]
    longer = [index for index, track in enumerate(tracks) if len(track) > 2]
    models = dict(zip(longer, reconstruct_tracks(records, [tracks[i] for i in longer])))
    by_pair: dict = {}  # view pair -> {index of a two-view track: its row in the pair's solve}
    for index, track in enumerate(tracks):
        if len(track) == 2:
            ids, row = formed[frozenset(track.items())]
            by_pair.setdefault(ids, {})[index] = row
    for ids, rows in by_pair.items():
        models.update(zip(rows, _models(solves[ids], list(rows.values()), [ids] * len(rows))))
    return [(track, models[index]) for index, track in enumerate(tracks)
            if models[index] is not None]


def reconstruct_subset(views: Sequence[CameraView],
                       observations: dict) -> list[tuple[dict, SphereModel]]:
    """Full pipeline on one view subset at the default gate and epipolar
    tolerance: gate, all-pairs matching, tracks, multi-view reconstruction.
    Returns (track, model) pairs."""
    return reconstruct_gated(gate_views(views, observations))
