"""Every bad-input case of the command line, one row each, and their runner.

A row edits a copy of the base export (``BASE_FILES``: the camera file and
the ellipse file of ``simulate --k 2 --export-scene``, and the sphere file
``reconstruct --pair auto`` writes from them), runs one subcommand on it in
the copy's directory, and expects an exit code, a standard error that is one
``error:`` line (after argparse's usage text, for a rejected flag) whose
message equals the row's text, and none of the row's outputs left behind.
pytest runs each row in-process as the ``tests/test_cli.py`` test its
``test_id`` names; ``python tests/bad_inputs.py BASE WORK COMMAND...`` runs
every row through COMMAND (say ``spherefit``) in WORK/<row name>, prints
every failing row and exits 1 if there is one.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

BASE_FILES = ("cameras.json", "ellipses.csv", "spheres.json")

#: A row's message from ``error:`` on: a string, a pattern it must match
#: whole, or a function of the row's directory, called after the edits.
Text = Union[str, re.Pattern, Callable[[Path], str]]


@dataclass(frozen=True)
class Row:
    name: str
    test_id: str          # the test of tests/test_cli.py that runs the row
    edits: tuple          # each called with the row's directory, in order
    argv: list            # the subcommand and its flags
    code: int             # the expected exit code
    text: Text            # the message of the one error line
    absent: tuple = ()    # outputs that must not exist afterwards


def get(data, keys):  # the value at ``keys`` of parsed JSON ``data``
    return functools.reduce(operator.getitem, keys, data)


def edit_json(name: str, change: Callable[[object], None]):
    """An edit that applies ``change`` to the parsed JSON file ``name``."""
    def edit(directory: Path) -> None:
        data = json.loads((directory / name).read_text())
        change(data)
        (directory / name).write_text(json.dumps(data))
    return edit


def put(name: str, *keys, value):
    """An edit that sets ``keys`` of JSON file ``name`` to ``value``, or to
    ``value(old)`` if it is callable."""
    def change(data):
        parent = get(data, keys[:-1])
        parent[keys[-1]] = value(parent[keys[-1]]) if callable(value) else value
    return edit_json(name, change)


def write(name: str, text: str):
    """An edit that writes ``text`` to the file ``name``."""
    return lambda directory: (directory / name).write_text(text)


def edit_lines(change: Callable[[list], list]):
    """An edit that replaces the lines of the ellipse file by ``change(lines)``."""
    def edit(directory: Path) -> None:
        path = directory / "ellipses.csv"
        path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")
    return edit


def set_cell(column: str, value: str):
    """An edit that sets ``column`` of the ellipse file's first row to ``value``."""
    def change(lines):
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = value
        return [lines[0], ",".join(row), *lines[2:]]
    return edit_lines(change)


def joined(*parts: Text) -> Text:
    """The text of ``parts`` in order, each a string or a function of the row's directory."""
    return lambda directory: "".join(p(directory) if callable(p) else p for p in parts)


def listed(*keys) -> Text:  # the list at ``keys`` of the camera file, as a message prints it
    return lambda directory: str([float(x) for x in get(
        json.loads((directory / "cameras.json").read_text()), keys)])


def cell(column: str) -> Text:  # the ellipse file's first row's ``column``, as a float prints
    def text(directory: Path) -> str:
        header, first = (directory / "ellipses.csv").read_text().splitlines()[:2]
        return str(float(first.split(",")[header.split(",").index(column)]))
    return text


def radius(directory: Path) -> float:  # of s000, the first sphere
    return json.loads((directory / "spheres.json").read_text())["spheres"][0]["radius"]


def scales_by(sphere: str, anchor: float) -> Text:  # under the anchor s000:<anchor>
    return lambda directory: (f"error: sphere {sphere!r} scales by {anchor / radius(directory)}"
                              " to a length that is NaN or beyond 2^300 world units")


def flag_text(flag: str, value: str) -> str:
    bound = ("a positive finite number" if flag in ("--k-sigma", "--tol-px")
             else "a finite number >= 0")
    return f"error: argument {flag}: must be {bound}, got {value!r}"


def ply(*rows: str) -> str:
    return ("ply\nformat ascii 1.0\nelement vertex %d\nproperty float x\nproperty float y\n"
            "property float z\nend_header\n%s" % (len(rows), "".join(r + "\n" for r in rows)))


GATED = ["--cameras", "cameras.json", "--ellipses", "ellipses.csv"]
SCALE = ["scale", "--spheres", "spheres.json"]
SIMULATE = ["simulate", "--k", "2"]
#: The commands of a camera file case: (row name suffix, argv, --pair).
COMMANDS = [("filter", ["filter", *GATED], None),
            ("select-pair", ["select-pair", "--cameras", "cameras.json"], None),
            ("match", ["match", *GATED], "auto"), ("reconstruct", ["reconstruct", *GATED], "auto"),
            ("reconstruct-pair", ["reconstruct", *GATED], "img-01,img-04")]

ROWS: list[Row] = []


def row(name, edits, argv, text, absent=(), code=2, *, test_id):
    ROWS.append(Row(name, test_id, tuple(edits), list(argv), code, text, tuple(absent)))


# --- the camera file -------------------------------------------------------

def rogue_row(lines):  # a copy of the first row, in an image the camera file lacks
    return [*lines, "img-99" + lines[1][lines[1].index(","):]]


UNTIED = edit_json("cameras.json", lambda data: data.pop("tie_points"))
UNKNOWN_IMAGE = "ellipses.csv:272: ellipse 'ball-0' references unknown image 'img-99'"
row("unknown-image-filter", [edit_lines(rogue_row)], ["filter", *GATED, "--out", "o.out"],
    "error: " + UNKNOWN_IMAGE, ["o.out"],
    test_id="TestFilter::test_unknown_image_reference")
for command in ("match", "reconstruct"):
    for case, edits, pair in (("auto", [], "auto"), ("pair", [], "img-01,img-04"),
                              ("untied-auto", [UNTIED], "auto"),
                              ("untied-repeated-pair", [UNTIED], "img-01,img-01")):
        row(f"unknown-image-{command}-{case}", [edit_lines(rogue_row), *edits],
            [command, *GATED, "--pair", pair, "--out", "o.out"],
            ("error: [parse] " if command == "reconstruct" else "error: ") + UNKNOWN_IMAGE,
            ["o.out"],
            test_id="TestFilter::test_unknown_image_reference")


def one_view(data):  # the first view alone, without tie points
    data["views"] = data["views"][:1]
    data.pop("tie_points")


ONE_VIEW = [edit_json("cameras.json", one_view), edit_lines(
    lambda lines: [lines[0], *(line for line in lines[1:] if line.startswith("img-00,"))])]
for command in ("match", "reconstruct"):
    row(f"one-view-untied-{command}", ONE_VIEW,
        [command, *GATED, "--pair", "auto", "--out", "o.out"],
        ("error: [select-pair] " if command == "reconstruct" else "error: ")
        + "camera file has 1 of the 2 views a pair needs", ["o.out"],
        test_id=f"TestReconstruct::test_one_view_without_tie_points_exit_code[{command}]")

for field, value in (("px", math.nan), ("rot", [math.nan] + [0.0] * 8),
                     ("iop_cov", [math.nan] + [0.0] * 8)):
    row(f"camera-{field}-nan", [put("cameras.json", "views", 0, field, value=value)],
        ["filter", *GATED, "--out", "o.csv"],
        f"error: cameras.json: bad view entry (camera {field} must be finite)", ["o.csv"],
        test_id=f"TestFilter::test_non_finite_camera_exit_code[{field}]")

for case, keys, value, entry, message in (
        ("rot", ("views", 1, "rot"), lambda rot: [x * 1e300 for x in rot], "view",
         "rot is not orthonormal (||R^T R - I|| = inf)"),
        ("f", ("views", 1, "f"), 1e300, "view", "camera f must lie within 2^200 px, got 1e+300"),
        ("px", ("views", 1, "px"), 1e300, "view",
         "camera px must lie within 2^200 px, got 1e+300"),
        ("py", ("views", 1, "py"), -1e300, "view",
         "camera py must lie within 2^200 px, got -1e+300"),
        ("t", ("views", 1, "t", 0), 1e300, "view",
         joined("camera t must lie within 2^300 world units, got ", listed("views", 1, "t"))),
        ("tie-point", ("tie_points", 0, "xyz", 0), 1e300, "tie point",
         joined("tie point xyz must lie within 2^300 world units, got ",
                listed("tie_points", 0, "xyz")))):
    for command, argv, pair in COMMANDS:
        stage = "[parse] " if command.startswith("reconstruct") else ""
        row(f"camera-{case}-huge-{command}", [put("cameras.json", *keys, value=value)],
            [*argv, *(["--pair", pair] if pair else []), "--out", "o.out"],
            joined(f"error: {stage}cameras.json: bad {entry} entry (", message, ")"), ["o.out"],
            test_id=f"TestFilter::test_huge_camera_exit_code[{case}]")

row("camera-file-not-json", [write("bad.json", "{")],
    ["filter", "--cameras", "bad.json", "--ellipses", "bad.json", "--out", "o.csv"],
    "error: bad.json: invalid JSON (Expecting property name enclosed in double quotes: "
    "line 1 column 2 (char 1))", ["o.csv"],
    test_id="TestFilter::test_parse_failure_exit_code")


def first_views(data, n=3):  # the first n views, and the tie points two of them see
    data["views"] = data["views"][:n]
    kept = {view["image_id"] for view in data["views"]}
    for point in data["tie_points"]:
        point["visible_in"] = [i for i in point["visible_in"] if i in kept]
    data["tie_points"] = [p for p in data["tie_points"] if len(p["visible_in"]) >= 2]


row("select-pair-low-angle", [edit_json("cameras.json", first_views)],
    ["select-pair", "--cameras", "cameras.json", "--out", "o.json"],
    re.compile(r"error: no image pair exceeds the 20\.0 deg floor "
               r"\(largest convergence angle found: \d+\.\d\d deg\)"),
    ["o.json"], code=4, test_id="TestSelectPair::test_low_angle_network_exits_nonzero")
row("tie-point-nan", [put("cameras.json", "tie_points", 0, "xyz", 0, value=math.nan)],
    ["select-pair", "--cameras", "cameras.json", "--out", "o.json"],
    "error: cameras.json: bad tie point entry (tie point xyz must be finite)", ["o.json"],
    test_id="TestSelectPair::test_non_finite_tie_point_exit_code")
for key in ("views", "tie_points"):
    row(f"camera-{key}-null", [put("cameras.json", key, value=None)],
        ["select-pair", "--cameras", "cameras.json", "--out", "o.json"],
        f"error: cameras.json: {key!r} must be a list of objects", ["o.json"],
        test_id=f"TestSelectPair::test_null_container_exit_code[{key}]")
row("select-pair-no-tie-points", [put("cameras.json", "tie_points", value=[])],
    ["select-pair", "--cameras", "cameras.json", "--out", "o.json"],
    "error: camera file has no tie_points; select-pair needs them "
    "(reconstruct can fall back to ellipse-based pair ranking)", ["o.json"],
    test_id="TestSelectPair::test_missing_tie_points_is_a_validation_error")

# --- the ellipse file ------------------------------------------------------

row("ellipse-a_e-nan", [set_cell("a_e", "nan")], ["filter", *GATED, "--out", "o.csv"],
    "error: ellipses.csv:2: ellipse a_e must be finite", ["o.csv"],
    test_id="TestFilter::test_non_finite_ellipse_row_exit_code")
for column in ("x_ce", "a_e"):
    row(f"ellipse-{column}-huge", [set_cell(column, "1e308")],
        ["filter", *GATED, "--out", "o.csv", "--report", "r.json"],
        joined("error: ellipses.csv:2: ellipse center and semi-axes must lie within 2^200 px, "
               "got center (", cell("x_ce"), ", ", cell("y_ce"), "), semi-major ", cell("a_e")),
        ["o.csv", "r.json"], test_id=f"TestFilter::test_huge_ellipse_row_exit_code[{column}]")
row("ellipse-cov-negative", [set_cell("cov_yy", "-1")], ["filter", *GATED, "--out", "o.csv"],
    "error: ellipses.csv:2: cov must be symmetric positive semi-definite", ["o.csv"],
    test_id="TestFilter::test_negative_covariance_row_exit_code")
for case, change, text in (
        ("extra field", lambda lines: [lines[0], lines[1] + ",999", *lines[2:]],
         "ellipses.csv:2: 18 fields, the header has 17"),
        ("short row", lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]],
         "ellipses.csv:2: 16 fields, the header has 17"),
        ("repeated column", lambda lines: [lines[0] + ",x_ce", *(l + ",7" for l in lines[1:])],
         "ellipses.csv: repeated columns ['x_ce']"),
        ("oversized field",
         lambda lines: [lines[0], lines[1].replace(",", "," + "1" * 200_000, 1), *lines[2:]],
         "ellipses.csv:2: field larger than field limit (131072)"),
        # csv stops inside the quoted field, at its limit, hundreds of lines on
        ("unclosed quote in a large file",
         lambda lines: [*lines[:2], '"' + lines[2], *lines[3:] * 4],
         "ellipses.csv:3: quoted field is not closed")):
    row(f"ellipse-{case.replace(' ', '-')}", [edit_lines(change)],
        ["filter", *GATED, "--out", "o.csv"], "error: " + text, ["o.csv"],
        test_id=f"TestFilter::test_malformed_ellipse_file_exit_code[{case}]")


def second_ball_0(directory: Path) -> int:  # the line of img-02's second ball-0
    lines = (directory / "ellipses.csv").read_text().splitlines()
    return [i for i, line in enumerate(lines, 1) if line.startswith("img-02,ball-0,")][1]


def rename_ball_1(lines):  # ball-1 becomes a second ball-0 in img-02 and img-05
    return [line.replace(",ball-1,", ",ball-0,")
            if line.startswith(("img-02,", "img-05,")) else line for line in lines]


for command, argv in (("filter", ["--out", "o.out"]),
                      ("reconstruct", ["--pair", "img-05,img-02", "--out", "o.out"])):
    stage = "[parse] " if command == "reconstruct" else ""
    row(f"ellipse-id-repeated-{command}", [edit_lines(rename_ball_1)], [command, *GATED, *argv],
        lambda directory, stage=stage: f"error: {stage}ellipses.csv:{second_ball_0(directory)}: "
                                       "ellipse id 'ball-0' repeats in image 'img-02'", ["o.out"],
        test_id=f"TestReconstruct::test_repeated_ellipse_id_exit_code[{command}]")

# --- flags ------------------------------------------------------------------

for flag, value in (("--default-sigma-px", "-0.5"), ("--default-sigma-px", "nan"),
                    ("--k-sigma", "inf"), ("--k-sigma", "-1")):
    row(f"filter{flag}-{value}", [], ["filter", *GATED, flag, value, "--out", "o.csv"],
        flag_text(flag, value), ["o.csv"],
        test_id=f"TestFilter::test_invalid_gate_flag_exit_code[{flag}-{value}]")
for value in ("nan", "-5"):
    row(f"select-pair--min-angle-deg-{value}", [],
        ["select-pair", "--cameras", "cameras.json", "--min-angle-deg", value, "--out", "o.json"],
        flag_text("--min-angle-deg", value), ["o.json"],
        test_id=f"TestSelectPair::test_invalid_min_angle_exit_code[{value}]")
for command in ("match", "reconstruct"):
    for value in ("nan", "0", "-1"):
        row(f"{command}--tol-px-{value}", [],
            [command, *GATED, "--tol-px", value, "--out", "o.json"],
            flag_text("--tol-px", value), ["o.json"],
            test_id=f"TestReconstruct::test_invalid_tol_px_exit_code[{value}-{command}]")
for case, pair in (("unknown", "img-00,img-77"), ("repeated", "img-03,img-03")):
    row(f"reconstruct-pair-{case}", [], ["reconstruct", *GATED, "--pair", pair, "--out", "o.json"],
        {"unknown": "error: [select-pair] --pair references unknown image 'img-77'",
         "repeated": "error: [select-pair] --pair names image 'img-03' twice"}[case], ["o.json"],
        test_id=f"TestReconstruct::test_{case}_pair_member")
row("match-pair-one-image", [], ["match", *GATED, "--pair", "img-00", "--out", "o.json"],
    "error: --pair must be 'auto' or 'image_i,image_j', got 'img-00'", ["o.json"],
    test_id="TestReconstruct::test_malformed_pair_exit_code")
for value in ("nan", "inf", "-1"):
    row(f"simulate--sigma-{value}", [], [*SIMULATE, "--sigma", value, "--out", "s.csv"],
        flag_text("--sigma", value), ["s.csv"],
        test_id=f"TestSimulate::test_invalid_sigma_exit_code[{value}]")
row("simulate--seed--1", [], [*SIMULATE, "--seed", "-1", "--out", "s.csv"],
    "error: argument --seed: must be an integer >= 0, got '-1'", ["s.csv"],
    test_id="TestSimulate::test_negative_seed_exit_code[flag]")
for case, value in (("abc", "abc"), ("2-x", "2,x"), ("1", "1"), ("empty", "")):
    row(f"simulate--k-{case}", [], ["simulate", "--k", value, "--out", "s.csv"],
        f"error: argument --k: must be a comma-separated list of integers >= 2, got {value!r}",
        ["s.csv"], test_id=f"TestSimulate::test_invalid_k_exit_code[{case}]")
row("simulate--k-above-the-cameras", [], ["simulate", "--k", "2,31", "--out", "s.csv"],
    "error: --k subset size 31 exceeds the scene's 30 cameras", ["s.csv"],
    test_id="TestSimulate::test_invalid_k_exit_code[above-the-cameras]")

# The temp file that the output is written through is not named.
row("filter-out-directory", [lambda directory: (directory / "D").mkdir()],
    ["filter", *GATED, "--out", "D"], "error: [Errno 21] Is a directory: 'D'",
    test_id="TestFilter::test_directory_at_out_exit_code")

# --- the sphere file and the anchors -----------------------------------------

row("scale-anchor-unknown", [], [*SCALE, "--anchors", "nope:1.0", "--out", "o.json"],
    "error: anchor 'nope' not found in spheres.json", ["o.json"],
    test_id="TestScale::test_unknown_anchor")
for value in ("nan", "inf"):
    row(f"scale-anchor-{value}", [], [*SCALE, "--anchors", f"s000:{value}", "--out", "o.json"],
        lambda directory, value=value: "error: anchor radii must be positive and finite, "
                                       f"got ({value}, {radius(directory)})", ["o.json"],
        test_id="TestScale::test_non_finite_anchor_exit_code")
row("scale-anchor-repeated", [], [*SCALE, "--anchors", "s000:0.2,s000:0.5", "--out", "o.json"],
    "error: anchor 's000' is repeated", ["o.json"],
    test_id="TestScale::test_repeated_anchor_exit_code")
for case, anchors, text in (
        ("no-colon", "s000", "error: anchor 's000' is not of the form sphere_id:radius"),
        ("radius-abc", "s000:abc", "error: anchor radius 'abc' is not a number"),
        ("empty", "", "error: no anchors given")):
    row(f"scale-anchors-{case}", [], [*SCALE, "--anchors", anchors, "--out", "o.json"], text,
        ["o.json"], test_id=f"TestScale::test_malformed_anchors_exit_code[{case}]")
row("scale-center-nan", [put("spheres.json", "spheres", 0, "center", 1, value=math.nan)],
    [*SCALE, "--anchors", "s000:1.0", "--out", "o.json"],
    "error: spheres.json: bad sphere entry (sphere center must be finite)", ["o.json"],
    test_id="TestScale::test_non_finite_sphere_center_exit_code")
row("scale-spheres-null", [write("spheres.json", json.dumps({"spheres": None}))],
    [*SCALE, "--anchors", "s000:1.0", "--out", "o.json"],
    "error: spheres.json: 'spheres' must be a list of objects", ["o.json"],
    test_id="TestScale::test_null_spheres_exit_code")

CLOUD = write("cloud.ply", ply("1 2 3"))
row("scale-out-points-without-points", [], [*SCALE, "--anchors", "s000:1.0", "--out-points",
                                            "o.ply", "--out", "o.json"],
    "error: --out-points requires --points", ["o.json", "o.ply"],
    test_id="TestScale::test_out_points_without_points_exit_code")
SCALED = ["--points", "cloud.ply", "--out-points", "o.ply", "--out", "o.json"]
for case, edits, anchor, text in (
        ("anchor-1e300", [], "s000:1e300",
         "error: anchor 's000' radius 1e+300 lies beyond 2^300 world units"),
        ("anchor-1e307", [], "s000:1e307",
         "error: anchor 's000' radius 1e+307 lies beyond 2^300 world units"),
        ("scaled-center", [], "s000:1e90", scales_by("s000", 1e90)),
        ("huge-center", [put("spheres.json", "spheres", 1, "center", 0, value=1e300)],
         "s000:1.0", scales_by("s001", 1.0)),
        ("overflow", [put("spheres.json", "spheres", 1, "center", 0, value=1e308)],
         "s000:1.0", scales_by("s001", 1.0))):
    row(f"scale-{case}", [CLOUD, *edits], [*SCALE, "--anchors", anchor, *SCALED], text,
        ["o.json", "o.ply"],
        test_id=f"TestScale::test_scale_beyond_the_world_limit_exit_code[{case}]")


BOUNDED = "scaled_per_view_radius_or_spread_beyond_the_world_limit_exit_code"
for field, keys, nan_keys in (
        ("per_view_radii", ("per_view_radii", 0, 1), ("per_view_radii", 1, 1)),
        ("radius_spread", ("radius_spread",), ("radius_spread",))):
    for length, at, test in (
            (1e308, keys, f"{BOUNDED}[1e+308-{field}]"),
            (1e300, keys, f"{BOUNDED}[1e+300-{field}]"),
            (1.5e90, keys, f"{BOUNDED}[1.5e+90-{field}]"),
            # a NaN after a finite per-view radius, which a max() would skip
            (math.nan, nan_keys, f"nan_per_view_radius_or_spread_exit_code[{field}]")):
        row(f"scale-{field.replace('_', '-')}-{length}",
            [put("spheres.json", "spheres", 1, *at, value=length)],
            [*SCALE, "--anchors", "s000:0.2", "--out", "o.json"], scales_by("s001", 0.2),
            ["o.json"], test_id=f"TestScale::test_{test}")

# --- the PLY cloud ----------------------------------------------------------

for case, line in (("element vertex", 2), ("property float", 5)):
    lines = ply("1 2 3").splitlines()
    lines[line] = case
    row(f"ply-header-{case.replace(' ', '-')}", [write("bad.ply", "\n".join(lines) + "\n")],
        [*SCALE, "--anchors", "s000:1.0", "--points", "bad.ply", "--out-points", "o.ply",
         "--out", "o.json"], f"error: bad.ply: bad {case.split()[0]} line {case!r}",
        ["o.json", "o.ply"],
        test_id=f"TestScale::test_malformed_ply_header_exit_code[{case}]")


HEADER = ply("1 2 3").splitlines()  # ply, format, element, x, y, z, end_header, a vertex
for case, lines, text in (
        # Both elements' properties would merge into one.
        ("element vertex twice",
         [*HEADER[:6], "element vertex 1", "property float w", HEADER[6], "1 2 3 4"],
         "element 'vertex' is declared twice"),
        # Only the first x column would be scaled.
        ("property x twice", [*HEADER[:6], "property float x", HEADER[6], "1 2 3 4"],
         "property 'x' is declared twice"),
        ("list property", [*HEADER[:6], "property list uchar int i", *HEADER[6:]],
         "list properties are not supported"),
        ("no end_header", HEADER[:6], "missing end_header")):
    row(f"ply-header-{case.replace(' ', '-')}", [write("bad.ply", "\n".join(lines) + "\n")],
        [*SCALE, "--anchors", "s000:1.0", "--points", "bad.ply", "--out-points", "o.ply",
         "--out", "o.json"], f"error: bad.ply: {text}", ["o.json", "o.ply"],
        test_id=f"TestScale::test_malformed_ply_header_exit_code[{case}]")


def scales_to(axis: str, value: float) -> Text:  # the message of a vertex scaled by s000:1.0
    return lambda directory: (f"error: vertex row 1: {axis} scales to "
                              f"{value * (1.0 / radius(directory))}")


for case, edits, points, text in (
        ("not-a-ply", [write("bad.ply", "not a ply\n")], ["bad.ply", "--out-points", "o.ply"],
         "error: bad.ply: not a PLY file"),
        ("missing", [], ["missing.ply", "--out-points", "o.ply"],
         "error: [Errno 2] No such file or directory: 'missing.ply'"),
        ("no-out-points", [write("bad.ply", "not a ply\n")], ["bad.ply"],
         "error: --points requires --out-points"),
        *((f"vertex-{case}", [write("v.ply", ply("1 2 3", vertex))],
           ["v.ply", "--out-points", "o.ply"], text) for case, vertex, text in (
            ("abc", "abc 0.25 4", "error: v.ply: vertex row 1: x is not a number: 'abc'"),
            ("nan", "0.5 nan 4", "error: vertex row 1: y scales to nan"),
            ("minus-inf", "1 -inf 4", "error: vertex row 1: y scales to -inf"),
            ("1e308", "1e308 0.25 4", "error: vertex row 1: x scales to inf"),
            ("1e200", "1e200 0.25 4", scales_to("x", 1e200)),
            ("minus-2e90", "1 -2e90 4", scales_to("y", -2e90))))):
    row(f"ply-{case}", edits, [*SCALE, "--anchors", "s000:1.0", "--points", *points,
                               "--out", "o.json"], text, ["o.json", "o.ply"],
        test_id="TestScale::test_bad_ply_exit_code")

# --- simulate --config ------------------------------------------------------

def config_file(data):  # an edit that writes ``data`` as the scene config
    return write("cfg.json", json.dumps(data))


KEY = "error: scene config key "
FLOAT = "must be finite and at most 2^200 in magnitude"
SIDE = "must be positive, finite and at most 2^200 in magnitude"
WORLD = "must be finite and at most 2^300 in magnitude"
for name, test, config, text in (
        ("config-spheres-null", "mistyped_config_exit_code[config0-spheres]", {"spheres": None},
         KEY + "'spheres' has the wrong type: None"),
        ("config-not-an-object", "mistyped_config_exit_code[config1-object]", [],
         "error: scene config must be a JSON object, got list"),
        ("config-n_cameras-null", "mistyped_config_exit_code[config2-n_cameras]",
         {"n_cameras": None}, KEY + "'n_cameras' has the wrong type: None"),
        ("config-extent-inf", "overflowing_config_exit_code[extent-inf]",
         {"tie_point_extent": math.inf}, KEY + f"'tie_point_extent' {FLOAT}, got inf"),
        ("config-extent-nan", "overflowing_config_exit_code[extent-nan]",
         {"tie_point_extent": math.nan}, KEY + f"'tie_point_extent' {FLOAT}, got nan"),
        ("config-extent-1e308", "overflowing_config_exit_code[extent-1e308]",
         {"tie_point_extent": 1e308}, KEY + f"'tie_point_extent' {FLOAT}, got 1e+308"),
        ("config-width-nan", "overflowing_config_exit_code[width-nan]",
         {"width": math.nan, "clutter_per_image": 1}, KEY + f"'width' {SIDE}, got nan"),
        ("config-height-minus-inf", "overflowing_config_exit_code[height-minus-inf]",
         {"height": -math.inf, "clutter_per_image": 1}, KEY + f"'height' {SIDE}, got -inf"),
        ("config-width-nan-no-clutter", "overflowing_config_exit_code[width-nan-no-clutter]",
         {"width": math.nan}, KEY + f"'width' {SIDE}, got nan"),
        ("config-width-negative", "overflowing_config_exit_code[width-negative]",
         {"width": -5}, KEY + f"'width' {SIDE}, got -5"),
        ("config-center-1.7e308", "config_beyond_the_world_limit_exit_code[center-1.7e308]",
         {"spheres": [["a", [1.7e308, -1.7e308, 1.7e308], 0.1]]},
         KEY + f"'spheres' sphere 'a': center and radius {WORLD}"),
        ("config-look-at-1e308", "config_beyond_the_world_limit_exit_code[look-at-1e308]",
         {"look_at": [1e308, 0, 0]}, KEY + f"'look_at' {WORLD}, got [1e+308, 0, 0]"),
        ("config-look-at-nan", "config_beyond_the_world_limit_exit_code[look-at-nan]",
         {"look_at": [math.nan, 0, 0]}, KEY + f"'look_at' {WORLD}, got [nan, 0, 0]"),
        ("config-center-1e100", "config_beyond_the_world_limit_exit_code[center-1e100]",
         {"spheres": [["a", [1e100, 0, 0.5], 0.1]]},
         KEY + f"'spheres' sphere 'a': center and radius {WORLD}"),
        ("config-sigma-nan", "non_finite_config_sigma_exit_code",
         {"n_cameras": 4, "n_tie_points": 12, "sigma_px": math.nan},
         KEY + f"'sigma_px' {FLOAT}, got nan"),
        ("config-seed--1", "negative_seed_exit_code[config]", {"seed": -1},
         KEY + "'seed' must be an integer >= 0, got -1")):
    row(name, [config_file(config)],
        [*SIMULATE, "--config", "cfg.json", "--out", "s.csv"], text, ["s.csv"],
        test_id=f"TestSimulate::test_{test}")


row("config-sphere-at-a-camera", [config_file({"spheres": [["s", [0, 0, 5], 0.1]]})],
    [*SIMULATE, "--config", "cfg.json", "--out", "s.csv"],
    "error: sphere 's' does not clear camera 'img-00' (sphere depth 0 does not clear radius 0.1)",
    ["s.csv"], code=3, test_id="TestSimulate::test_infeasible_config_exit_code")
# No pair clears the floor, so the sweep fails before its first trial and
# nothing is written, the export included.
row("simulate-low-angle-export", [config_file({"arc_span_deg": 10, "n_cameras": 4})],
    [*SIMULATE, "--config", "cfg.json", "--export-scene", "scene", "--out", "s.csv"],
    re.compile(r"error: no image pair exceeds the 20\.0 deg floor "
               r"\(largest convergence angle found: \d+\.\d\d deg\)"),
    ["s.csv", *(f"scene/{name}" for name in ("cameras.json", "ellipses.csv", "truth.json"))],
    code=4, test_id="TestSimulate::test_failed_sweep_writes_no_export")


# --- the runner --------------------------------------------------------------

def check(row: Row, base: Path, directory: Path, command) -> list[str]:
    """The failures of ``row``, run in the new ``directory`` on a copy of the
    files of ``base`` by ``command(argv, directory) -> (exit code, standard error)``."""
    directory.mkdir(parents=True)
    for name in BASE_FILES:
        shutil.copy(base / name, directory / name)
    for edit in row.edits:
        edit(directory)
    text = row.text(directory) if callable(row.text) else row.text
    code, stderr = command(row.argv, directory)
    *usage, last = stderr.splitlines() or [""]
    message = last[last.find("error: "):]
    failures = []
    if code != row.code:
        failures.append(f"exit code {code}, expected {row.code}")
    if "error: " not in last or usage and not (
            usage[0].startswith("usage: ") and all(line[:1] == " " for line in usage[1:])):
        failures.append(f"standard error {stderr!r}, expected one error line")
    elif not (text.fullmatch(message) if isinstance(text, re.Pattern) else message == text):
        failures.append(f"error message {message!r}, expected {text!r}")
    left = [name for name in row.absent if (directory / name).exists()]
    if left:
        failures.append(f"left {left} behind")
    return failures


def main(argv: list[str]) -> int:
    base, work, *command = argv

    def run(args, directory):
        result = subprocess.run([*command, *args], cwd=directory, capture_output=True, text=True)
        return result.returncode, result.stderr

    failed = 0
    for row in ROWS:
        failures = check(row, Path(base), Path(work) / row.name, run)
        for failure in failures:
            print(f"{row.name}: {failure}")
        failed += bool(failures)
    print(f"{len(ROWS) - failed} of {len(ROWS)} bad-input rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
