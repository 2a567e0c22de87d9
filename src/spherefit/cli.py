"""Command-line pipeline: filter, select-pair, match, reconstruct, scale, simulate.

``filter``, ``match`` and ``reconstruct`` read the camera and ellipse files
and gate every row of the ellipse file in one ``gate_views`` call before
anything else; ``match`` and ``reconstruct`` then build the chosen pair's
records from those gate arrays.  The JSON that ``select-pair``, ``match``
and ``scale`` print is the indented, key-sorted text the file writers use.

Exit codes: 0 success, 2 parse/validation error, 3 geometric degeneracy,
4 no admissible result.  Outputs are deterministic for fixed inputs, flags
and seed; the only intentionally non-reproducible quantity (wall time in the
simulate report) is disabled unless --timing is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import fileio
from .errors import (
    ConfigInfeasible,
    DegenerateGeometry,
    DegenerateProjection,
    EmptyInput,
    InvalidAnchor,
    InvalidCovariance,
    NoAdmissiblePair,
    UnknownAnchor,
)
from .match import match_ellipses
from .netselect import (
    DEFAULT_MIN_ANGLE,
    ImageNetwork,
    PairScore,
    anchor_network,
    best_pair,
    pair_angles,
)
from .pipeline import gate_views, reconstruct_gated, view_records
from .projection import WORLD_LIMIT
from .reconstruct import apply_scale, metric_scale, triangulate_center
from .synth import SceneConfig, generate_scene, monte_carlo_views, perturb_observations

# Not called here: bench/spans.py wraps this name in this module.
from .gate import classify_spherical  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_NO_RESULT = 4

_PARSE_ERRORS = (fileio.FileFormatError, InvalidAnchor, UnknownAnchor,
                 InvalidCovariance, EmptyInput, ValueError, OSError,
                 OverflowError, json.JSONDecodeError)
_DEGENERATE_ERRORS = (DegenerateGeometry, DegenerateProjection, ConfigInfeasible)
_NO_RESULT_ERRORS = (NoAdmissiblePair,)


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _read_gated(args):
    """The camera network, the ellipse table and the gate of every row of
    it: (network, table, tau, sigma_tau, accepted).  A row whose image is
    not in the camera file is a validation error."""
    network = fileio.load_network(args.cameras)
    table = fileio.read_ellipse_table(args.ellipses)
    try:
        return (network, table,
                *gate_views(network.views, table, args.k_sigma, args.default_sigma_px))
    except ValueError as exc:
        known = {view.image_id for view in network.views}
        key = next((key for key in table.keys if key[0] not in known), None)
        if key is None:
            raise
        line = fileio.ellipse_row_line(args.ellipses, key)
        raise fileio.FileFormatError(f"{args.ellipses}:{line}: {exc}") from exc


def _emit_json(payload, out=None) -> None:
    """Print ``payload`` as indented, key-sorted JSON, and write the same
    text to ``out`` if given."""
    text = fileio._dump_json(payload)
    if out:
        fileio.atomic_write_text(out, text)
    sys.stdout.write(text)


def cmd_filter(args) -> int:
    _, table, tau, sigma_tau, accepted = _read_gated(args)
    kept = table.take(np.flatnonzero(accepted))
    fileio.write_ellipse_table(kept, args.out)
    text = fileio.gate_report_text(table.keys, tau, sigma_tau, args.k_sigma, accepted)
    if args.report:
        fileio.atomic_write_text(args.report, text)
    else:
        sys.stdout.write(text)
    print(f"kept {len(kept.keys)} of {len(table.keys)} ellipses -> {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _select_pair(args, network: ImageNetwork, table=None, accepted=None) -> PairScore:
    """Best pair via tie points; without tie points fall back to the angle
    subtended at one anchor triangulated from the centers of the rows of
    ``table`` the gate ``accepted``."""
    min_angle = math.radians(args.min_angle_deg)
    if network.tie_points:
        return best_pair(network, min_angle=min_angle)
    if table is None:
        raise fileio.FileFormatError(
            "camera file has no tie_points; select-pair needs them "
            "(reconstruct can fall back to ellipse-based pair ranking)")
    _warn("camera file has no tie_points; ranking pairs by the angle "
          "subtended at an anchor triangulated from all corrected ellipse "
          "centers (crude fallback)")
    rays = [(record.view, center) for record in view_records(network.views, table, accepted)
            for center in record.hom[:, :2]]
    if len(rays) < 2:
        raise DegenerateGeometry("not enough gated ellipses to anchor pair ranking")
    anchor = triangulate_center(rays)
    return best_pair(anchor_network(network.views, anchor), min_angle=min_angle)


def cmd_select_pair(args) -> int:
    score = _select_pair(args, fileio.load_network(args.cameras))
    _emit_json({"i": score.i, "j": score.j, "alpha_deg": math.degrees(score.alpha_ij),
                "ov_i": score.ov_i, "ov_j": score.ov_j, "score": score.theta_ij}, args.out)
    return EXIT_OK


def _resolve_pair(args, network: ImageNetwork, table, accepted) -> tuple[str, str]:
    """The (image_i, image_j) pair to match: ``--pair``, or the best pair."""
    if args.pair != "auto":
        ids = args.pair.split(",")
        if len(ids) != 2 or not all(ids):
            raise fileio.FileFormatError(
                f"--pair must be 'auto' or 'image_i,image_j', got {args.pair!r}")
        if ids[0] == ids[1]:
            raise fileio.FileFormatError(f"--pair names image {ids[0]!r} twice")
        view_ids = {v.image_id for v in network.views}
        for image_id in ids:
            if image_id not in view_ids:
                raise fileio.FileFormatError(f"--pair references unknown image {image_id!r}")
        if network.tie_points:
            _, _, (alpha,), (shared,), _ = pair_angles(network, ids)
            if not shared:
                _warn(f"explicit pair ({ids[0]},{ids[1]}) shares no tie points")
            elif alpha <= math.radians(args.min_angle_deg):
                _warn(f"explicit pair ({ids[0]},{ids[1]}) converges at only "
                      f"{math.degrees(alpha):.1f} deg, below the "
                      f"{args.min_angle_deg:.1f} deg floor; proceeding")
        return ids[0], ids[1]
    score = _select_pair(args, network, table, accepted)
    return score.i, score.j


def cmd_match(args) -> int:
    network, table, _, _, accepted = _read_gated(args)
    pair = _resolve_pair(args, network, table, accepted)
    left, right = view_records([network.view(image_id) for image_id in pair], table, accepted)
    result = match_ellipses(left, right, tol=args.tol_px)
    _emit_json({
        "pair": {"i": left.view.image_id, "j": right.view.image_id},
        "matches": [
            {"ellipse_l": m.ellipse_l, "ellipse_k": m.ellipse_k,
             "epipolar_distance_px": m.epipolar_distance,
             "reprojection_distance_px": m.reprojection_distance}
            for m in result.matches],
        "unmatched_l": result.unmatched_l,
        "unmatched_k": result.unmatched_k,
    }, args.out)
    return EXIT_OK


@contextlib.contextmanager
def _stage(name):
    """Prefixes any error escaping a pipeline stage with the stage name."""
    try:
        yield
    except Exception as exc:
        if len(exc.args) == 1 and isinstance(exc.args[0], str):
            exc.args = (f"[{name}] {exc.args[0]}",)
        raise


def cmd_reconstruct(args) -> int:
    with _stage("parse"):
        network, table, tau, sigma_tau, accepted = _read_gated(args)
    with _stage("select-pair"):
        pair = _resolve_pair(args, network, table, accepted)
    with _stage("match"):
        records = view_records([network.view(image_id) for image_id in pair], table, accepted)
        models = reconstruct_gated(records, tol=args.tol_px)
    row_of = dict(zip(table.keys, itertools.count()))  # each key's table row
    entries = []
    ordered = sorted(models, key=lambda tm: [tm[0][image_id] for image_id in pair])
    for index, (track, model) in enumerate(ordered):
        contributing = [(image_id, track[image_id]) for image_id in pair]
        rows = map(row_of.__getitem__, contributing)
        gate_reports = [{"image_id": image_id, "ellipse_id": ellipse_id, "tau": float(tau[row]),
                         "sigma_tau": float(sigma_tau[row]), "k": args.k_sigma,
                         "accepted": bool(accepted[row])}
                        for (image_id, ellipse_id), row in zip(contributing, rows)]
        entries.append(fileio.SphereEntry(f"s{index:03d}", model, contributing, gate_reports))
    fileio.save_spheres(entries, args.out)
    print(f"pair ({pair[0]},{pair[1]}): {len(entries)} spheres, "
          f"{sum(len(r.ids) for r in records) - 2 * len(entries)} unmatched ellipses "
          f"-> {args.out}", file=sys.stderr)
    return EXIT_OK


def _parse_anchors(spec: str) -> dict:
    anchors = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise fileio.FileFormatError(
                f"anchor {part!r} is not of the form sphere_id:radius")
        sphere_id, radius = part.rsplit(":", 1)
        if sphere_id in anchors:
            raise fileio.FileFormatError(f"anchor {sphere_id!r} is repeated")
        try:
            anchors[sphere_id] = float(radius)
        except ValueError as exc:
            raise fileio.FileFormatError(f"anchor radius {radius!r} is not a number") from exc
    if not anchors:
        raise fileio.FileFormatError("no anchors given")
    return anchors


def cmd_scale(args) -> int:
    entries = fileio.load_spheres(args.spheres)
    anchors = _parse_anchors(args.anchors)
    by_id = {entry.sphere_id: entry for entry in entries}
    for sphere_id, radius in anchors.items():
        if sphere_id not in by_id:
            raise UnknownAnchor(f"anchor {sphere_id!r} not found in {args.spheres}")
        if WORLD_LIMIT < radius < math.inf:  # not finite: metric_scale names it
            raise InvalidAnchor(f"anchor {sphere_id!r} radius {radius} lies beyond "
                                "2^300 world units")
    pairs = [(anchors[sid], by_id[sid].model.sphere.radius) for sid in sorted(anchors)]
    scale = metric_scale(pairs)
    if args.points and not args.out_points:
        raise fileio.FileFormatError("--points requires --out-points")
    # Both outputs are computed before either is written.
    for entry in entries:  # every scaled length within WORLD_LIMIT; NaN fails too
        m = entry.model
        radii = [m.sphere.radius, m.radius_spread, *(radius for _, radius in m.per_view_radii)]
        if not all(abs(x) * scale.s_r <= WORLD_LIMIT for x in [*m.sphere.center.tolist(), *radii]):
            raise fileio.FileFormatError(f"sphere {entry.sphere_id!r} scales by {scale.s_r} "
                                         "to a length that is NaN or beyond 2^300 world units")
    scaled = [dataclasses.replace(entry, model=apply_scale(entry.model, scale.s_r))
              for entry in entries]
    cloud = (fileio.scale_ply(fileio.load_ply(args.points), scale.s_r, args.points)
             if args.points else None)
    fileio.save_spheres(scaled, args.out)
    if cloud is not None:
        fileio.save_ply(cloud, args.out_points)
    _emit_json({"s_r": scale.s_r, "residual_rmse": scale.residual_rmse,
                "anchors": {sid: anchors[sid] for sid in sorted(anchors)}})
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8-sig") as handle:
            config = SceneConfig.from_dict(json.load(handle))
    else:
        config = SceneConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.sigma is not None:
        config.sigma_px = args.sigma
    k_values = [int(v) for v in args.k.split(",") if v.strip()]
    scene = generate_scene(config)
    noisy = perturb_observations(scene, config.sigma_px, config.seed)
    if args.export_scene:
        os.makedirs(args.export_scene, exist_ok=True)
        fileio.save_network(noisy.network, os.path.join(args.export_scene, "cameras.json"))
        observations = [e for vid in sorted(noisy.observations)
                        for e in noisy.observations[vid]]
        fileio.save_ellipses(observations, os.path.join(args.export_scene, "ellipses.csv"))
        truth = {"spheres": [{"sphere_id": sid,
                              "center": [float(x) for x in s.center],
                              "radius": s.radius}
                             for sid, s in noisy.spheres]}
        fileio.atomic_write_text(os.path.join(args.export_scene, "truth.json"),
                                 fileio._dump_json(truth))
    stats = monte_carlo_views(noisy, k_values, config.seed, timing=args.timing)
    header = ["k", "p", "center_prmse_mean", "center_prmse_min", "center_prmse_max",
              "radius_prmse_mean", "radius_prmse_min", "radius_prmse_max",
              "mean_ms", "failures"]
    lines = [",".join(header)]
    for s in stats:
        label = str(s.k) if s.selection == "random" else s.selection
        lines.append(",".join([label, str(s.p), repr(s.center_mean),
                               repr(s.center_min), repr(s.center_max),
                               repr(s.radius_mean), repr(s.radius_min),
                               repr(s.radius_max), repr(s.mean_ms),
                               str(s.failures)]))
    fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(stats)} rows -> {args.out}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="spherefit",
        description="Reconstruct sphere centers/radii from calibrated images "
                    "and define metric scale from known-radius spheres.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by the subcommands that gate (and then match) ellipses.
    gated = argparse.ArgumentParser(add_help=False)
    gated.add_argument("--cameras", required=True)
    gated.add_argument("--ellipses", required=True)
    gated.add_argument("--k-sigma", type=_positive, default=2.0)
    gated.add_argument("--default-sigma-px", type=_nonnegative, default=0.5)
    paired = argparse.ArgumentParser(add_help=False, parents=[gated])
    paired.add_argument("--pair", default="auto",
                        help="'auto' (scored selection) or 'image_i,image_j'")
    paired.add_argument("--tol-px", type=_positive, default=None,
                        help="epipolar gate in px (default: max(3, 2*center sigma))")
    paired.add_argument("--min-angle-deg", type=_nonnegative,
                        default=math.degrees(DEFAULT_MIN_ANGLE))

    p = sub.add_parser("filter", parents=[gated],
                       help="keep only ellipses that pass the sphere gate")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write per-ellipse gate report JSON here")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("select-pair", help="pick the best image pair")
    p.add_argument("--cameras", required=True)
    p.add_argument("--min-angle-deg", type=_nonnegative,
                   default=math.degrees(DEFAULT_MIN_ANGLE))
    p.add_argument("--out")
    p.set_defaults(func=cmd_select_pair)

    p = sub.add_parser("match", parents=[paired], help="match gated ellipses between two views")
    p.add_argument("--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("reconstruct", parents=[paired],
                       help="full pipeline: gate, match, reconstruct")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("scale", help="apply metric scale from known radii")
    p.add_argument("--spheres", required=True)
    p.add_argument("--anchors", required=True,
                   help="comma-separated sphere_id:real_radius pairs")
    p.add_argument("--points", help="ASCII PLY cloud to rescale")
    p.add_argument("--out-points", help="output path for the rescaled cloud")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("simulate", help="synthetic accuracy/runtime sweep")
    p.add_argument("--config", help="scene config JSON (defaults: tabletop scene)")
    p.add_argument("--k", default="2,4,8,16,30")
    p.add_argument("--sigma", type=_nonnegative, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timing", action="store_true",
                   help="measure wall time (makes the output non-reproducible)")
    p.add_argument("--export-scene",
                   help="also write cameras.json/ellipses.csv/truth.json here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NO_RESULT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    except _DEGENERATE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
