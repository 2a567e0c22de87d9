"""Command-line pipeline: filter, select-pair, match, reconstruct, scale, simulate.

Exit codes: 0 success, 2 parse/validation error, 3 geometric degeneracy,
4 no admissible result.  Outputs are deterministic for fixed inputs, flags
and seed; the only intentionally non-reproducible quantity (wall time in the
simulate report) is disabled unless --timing is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Optional, Sequence

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
from .match import match_ellipses, view_record
from .netselect import (
    DEFAULT_MIN_ANGLE,
    ImageNetwork,
    anchor_network,
    best_pair,
    pair_angles,
)
from .pipeline import gate_views, reconstruct_gated
from .projection import projected_sphere_center
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
                 json.JSONDecodeError)
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


def _by_view(network: ImageNetwork, ellipses) -> dict:
    """The file's ellipses grouped by image id, in file order."""
    known = {v.image_id for v in network.views}
    by_view: dict = {}
    for e in ellipses:
        if e.image_id not in known:
            raise fileio.FileFormatError(
                f"ellipse {e.ellipse_id!r} references unknown image {e.image_id!r}")
        by_view.setdefault(e.image_id, []).append(e)
    return by_view


def _gate_file(args, network: ImageNetwork, ellipses) -> list:
    """(ellipse, report) for every ellipse of the file, in file order."""
    gated = gate_views(network.views, _by_view(network, ellipses),
                       args.k_sigma, args.default_sigma_px)
    per_view = {image_id: iter(pairs) for image_id, pairs in gated.items()}
    return [next(per_view[e.image_id]) for e in ellipses]


def _gate_pair(args, network: ImageNetwork, ellipses, pair):
    """The pair's two views, in the given order, and their gate output."""
    views = [network.view(pair[0]), network.view(pair[1])]
    return views, gate_views(views, _by_view(network, ellipses),
                             args.k_sigma, args.default_sigma_px)


def cmd_filter(args) -> int:
    network = fileio.load_network(args.cameras)
    ellipses = fileio.load_ellipses(args.ellipses)
    reports = _gate_file(args, network, ellipses)
    accepted = [e for e, report in reports if report.accepted]
    fileio.save_ellipses(accepted, args.out)
    payload = {"ellipses": [{"image_id": e.image_id, "ellipse_id": e.ellipse_id,
                             "tau": r.tau, "sigma_tau": r.sigma_tau, "k": r.k,
                             "accepted": r.accepted} for e, r in reports]}
    if args.report:
        fileio.atomic_write_text(args.report,
                                 json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"kept {len(accepted)} of {len(ellipses)} ellipses -> {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _select_pair(args, network: ImageNetwork, ellipses=None):
    """Best pair via tie points; without tie points fall back to the angle
    subtended at one anchor triangulated from the gated ellipse centers."""
    min_angle = math.radians(args.min_angle_deg)
    if network.tie_points:
        return best_pair(network, min_angle=min_angle)
    if ellipses is None:
        raise fileio.FileFormatError(
            "camera file has no tie_points; select-pair needs them "
            "(reconstruct can fall back to ellipse-based pair ranking)")
    _warn("camera file has no tie_points; ranking pairs by the angle "
          "subtended at an anchor triangulated from all corrected ellipse "
          "centers (crude fallback)")
    rays = []
    for e, report in _gate_file(args, network, ellipses):
        if report.accepted:
            view = network.view(e.image_id)
            rays.append((view, projected_sphere_center(e, view.f, view.px, view.py)))
    if len(rays) < 2:
        raise DegenerateGeometry("not enough gated ellipses to anchor pair ranking")
    anchor = triangulate_center(rays)
    return best_pair(anchor_network(network.views, anchor), min_angle=min_angle)


def cmd_select_pair(args) -> int:
    network = fileio.load_network(args.cameras)
    score = _select_pair(args, network)
    payload = {"i": score.i, "j": score.j, "alpha_deg": math.degrees(score.alpha_ij),
               "ov_i": score.ov_i, "ov_j": score.ov_j, "score": score.theta_ij}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        fileio.atomic_write_text(args.out, text + "\n")
    print(text)
    return EXIT_OK


def _resolve_pair(args, network: ImageNetwork, ellipses):
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
            alpha, shared, _ = pair_angles(network, ids)
            if not shared[0, 1]:
                _warn(f"explicit pair ({ids[0]},{ids[1]}) shares no tie points")
            elif alpha[0, 1] <= math.radians(args.min_angle_deg):
                _warn(f"explicit pair ({ids[0]},{ids[1]}) converges at only "
                      f"{math.degrees(alpha[0, 1]):.1f} deg, below the "
                      f"{args.min_angle_deg:.1f} deg floor; proceeding")
        return ids[0], ids[1]
    score = _select_pair(args, network, ellipses)
    return score.i, score.j


def cmd_match(args) -> int:
    network = fileio.load_network(args.cameras)
    ellipses = fileio.load_ellipses(args.ellipses)
    pair = _resolve_pair(args, network, ellipses)
    views, gated = _gate_pair(args, network, ellipses, pair)
    left, right = (view_record(view, [e for e, report in gated[view.image_id] if report.accepted])
                   for view in views)
    result = match_ellipses(left, right, tol=args.tol_px)
    payload = {
        "pair": {"i": left.view.image_id, "j": right.view.image_id},
        "matches": [
            {"ellipse_l": m.ellipse_l, "ellipse_k": m.ellipse_k,
             "epipolar_distance_px": m.epipolar_distance,
             "reprojection_distance_px": m.reprojection_distance}
            for m in result.matches],
        "unmatched_l": result.unmatched_l,
        "unmatched_k": result.unmatched_k,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        fileio.atomic_write_text(args.out, text + "\n")
    print(text)
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
        network = fileio.load_network(args.cameras)
        ellipses = fileio.load_ellipses(args.ellipses)
    with _stage("select-pair"):
        pair = _resolve_pair(args, network, ellipses)
    with _stage("gate+match"):
        views, gated = _gate_pair(args, network, ellipses, pair)
        models = reconstruct_gated(views, gated, tol=args.tol_px)
    report_map = {(image_id, e.ellipse_id): report
                  for image_id, pairs in gated.items() for e, report in pairs}
    entries = []
    ordered = sorted(models, key=lambda tm: [tm[0][image_id] for image_id in pair])
    for index, (track, model) in enumerate(ordered):
        contributing = [(image_id, track[image_id]) for image_id in pair]
        entries.append(fileio.SphereEntry(
            sphere_id=f"s{index:03d}",
            model=model,
            ellipses=contributing,
            gate_records=[fileio.GateRecord(image_id=i, ellipse_id=e,
                                            report=report_map[(i, e)])
                          for i, e in contributing]))
    fileio.save_spheres(entries, args.out)
    accepted = sum(report.accepted for pairs in gated.values() for _, report in pairs)
    print(f"pair ({pair[0]},{pair[1]}): {len(entries)} spheres, "
          f"{accepted - 2 * len(entries)} unmatched ellipses "
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
    for sphere_id in anchors:
        if sphere_id not in by_id:
            raise UnknownAnchor(f"anchor {sphere_id!r} not found in {args.spheres}")
    pairs = [(anchors[sid], by_id[sid].model.sphere.radius) for sid in sorted(anchors)]
    scale = metric_scale(pairs)
    scaled = [fileio.SphereEntry(sphere_id=e.sphere_id,
                                 model=apply_scale(e.model, scale.s_r),
                                 ellipses=e.ellipses,
                                 gate_records=e.gate_records)
              for e in entries]
    fileio.save_spheres(scaled, args.out)
    if args.points:
        if not args.out_points:
            raise fileio.FileFormatError("--points requires --out-points")
        cloud = fileio.load_ply(args.points)
        fileio.save_ply(fileio.scale_ply(cloud, scale.s_r), args.out_points)
    payload = {"s_r": scale.s_r, "residual_rmse": scale.residual_rmse,
               "anchors": {sid: anchors[sid] for sid in sorted(anchors)}}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.config:
        with open(args.config) as handle:
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
                                 json.dumps(truth, indent=2, sort_keys=True) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
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
