"""The reconstruction pipeline: gate, all-pairs matching, tracks, spheres.

One path serves the command line, the synthetic sweep and the library:

* ``gate_views`` runs the spherical-ellipse gate on each view's ellipses,
  with the view's interior-orientation covariance and a default pixel
  sigma for ellipses that carry no covariance;
* ``reconstruct_gated`` matches the accepted ellipses of every view pair,
  merges the pairwise matches into one-ellipse-per-view tracks and recovers
  one sphere per track;
* ``reconstruct_subset`` chains the two.

Views are processed in the order the caller gives them: pairs are matched
as (earlier, later), and each track's ellipses enter the reconstruction in
view order.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .gate import DEFAULT_K, DEFAULT_SIGMA_PX, GateReport, classify_view
from .match import _require_unique_ids, match_ellipses, view_record
from .projection import CameraView, EllipseObservation
from .reconstruct import SphereModel, reconstruct_tracks


def gate_views(views: Sequence[CameraView], observations: dict,
               k_sigma: float = DEFAULT_K, default_sigma: float = DEFAULT_SIGMA_PX,
               ) -> dict[str, list[tuple[EllipseObservation, GateReport]]]:
    """Gate the ellipses of each view in one array pass per view.

    ``observations`` maps image ids to ellipse lists.  Returns, for every
    view in ``views`` order, its (ellipse, report) pairs in input order.
    Ellipses without a covariance use ``default_sigma`` pixels on every
    parameter; each view's ``iop_cov`` enters the variance of tau.  An
    ellipse id may appear only once per view (``ValueError``).
    """
    gated = {}
    for view in views:
        observed = observations.get(view.image_id, [])
        _require_unique_ids(view, observed)
        reports = classify_view(observed, view.f, view.px, view.py, iop_cov=view.iop_cov,
                                k=k_sigma, default_sigma=default_sigma)
        gated[view.image_id] = list(zip(observed, reports))
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


def reconstruct_gated(views: Sequence[CameraView], gated: dict,
                      tol: Optional[float] = None) -> list[tuple[dict, SphereModel]]:
    """Match the accepted ellipses of every view pair, merge the matches
    into tracks and recover one sphere per track.

    ``gated`` is the output of ``gate_views`` for ``views``; each view's
    accepted ellipses become one ``ViewRecord`` for both steps.  Returns
    (track, model) pairs, where a track maps image ids to ellipse ids;
    tracks whose geometry degenerates are dropped.
    """
    records = [view_record(view, [e for e, report in gated[view.image_id] if report.accepted])
               for view in views]
    pair_matches = []
    for left, right in itertools.combinations(records, 2):
        pair_matches.extend((m.reprojection_distance, left.view.image_id, right.view.image_id,
                             m.ellipse_l, m.ellipse_k)
                            for m in match_ellipses(left, right, tol=tol).matches)
    tracks = [track for track in _merge_tracks(pair_matches) if len(track) >= 2]
    models = reconstruct_tracks(records, tracks)
    return [(track, model) for track, model in zip(tracks, models) if model is not None]


def reconstruct_subset(views: Sequence[CameraView],
                       observations: dict) -> list[tuple[dict, SphereModel]]:
    """Full pipeline on one view subset at the default gate and epipolar
    tolerance: gate, all-pairs matching, tracks, multi-view reconstruction.
    Returns (track, model) pairs."""
    return reconstruct_gated(views, gate_views(views, observations))
