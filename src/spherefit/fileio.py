"""On-disk formats: camera network JSON, ellipse CSV, sphere JSON, ASCII PLY.

The camera file must carry an explicit ``convention`` header stating the
world-to-camera transform direction; refusing to guess is the cheapest
defense against the classic pose-inversion bug when importing poses from
external reconstruction tools.  All writes are atomic (temp file + rename),
UTF-8, and get the mode the umask gives a new file; all payloads are
deterministic: no timestamps, keys in fixed order, floats serialized with
shortest round-trip precision.  CSV and JSON inputs may start with a UTF-8
byte-order mark, as spreadsheet exports do.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gate import GateReport
from .netselect import ImageNetwork, TiePoint
from .projection import (
    _ROT_TOL,
    PIXEL_LIMIT,
    CameraView,
    EllipseObservation,
    EllipseTable,
    Sphere,
    ellipse_checks,
    fold_axis_angle,
    is_psd,
    rotation_error,
)
from .reconstruct import SphereModel

#: Mandatory pose convention header of the camera network file.
CONVENTION = "x_cam = rot * x_world + t"

ELLIPSE_BASE_COLUMNS = ["image_id", "ellipse_id", "x_ce", "y_ce", "a_e", "b_e", "theta_rad"]
#: Upper triangle of the 4x4 covariance in (a_e, b_e, x_ce, y_ce) order.
ELLIPSE_COV_COLUMNS = ["cov_aa", "cov_ab", "cov_ax", "cov_ay", "cov_bb",
                       "cov_bx", "cov_by", "cov_xx", "cov_xy", "cov_yy"]
_NUMBERS = ELLIPSE_BASE_COLUMNS[2:] + ELLIPSE_COV_COLUMNS  # the numeric columns

_COV_INDEX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
              (2, 2), (2, 3), (3, 3)]
#: For each entry of the row-major 4x4 covariance, its covariance column.
_COV_FILL = np.array([_COV_INDEX.index((min(i, j), max(i, j)))
                      for i in range(4) for j in range(4)])


class FileFormatError(ValueError):
    """A file does not conform to one of the documented formats."""


#: What reading one JSON entry of the wrong shape or type raises; float() of
#: a JSON integer beyond the float range raises OverflowError.
_BAD_ENTRY = (KeyError, TypeError, ValueError, OverflowError)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory.
    The temp file is created with mode 0o666, as ``open`` creates a file, so
    the umask sets the mode ``path`` ends up with."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_object(path: str, key: str) -> dict:
    """The JSON object in ``path``, which must have a ``key`` entry."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or key not in data:
        raise FileFormatError(f"{path}: expected an object with a {key!r} list")
    return data


def _object_list(path: str, key: str, value) -> list:
    """``value`` if it is a list of JSON objects, else FileFormatError."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise FileFormatError(f"{path}: {key!r} must be a list of objects")
    return value


# ---------------------------------------------------------------- cameras

def _valid_views(views: list[dict]) -> np.ndarray:
    """Which views, given as ``CameraView`` fields, pass its checks, in one stacked pass."""
    rot = np.array([v["rot"] for v in views]).reshape(-1, 3, 3)
    scalars = np.array([(v["f"], v["px"], v["py"], *v["t"].tolist()) for v in views]).reshape(-1, 6)
    psd = np.ones(len(views), dtype=bool)
    covs = [i for i, v in enumerate(views) if v["iop_cov"] is not None]
    if covs:
        psd[covs] = is_psd(np.array([views[i]["iop_cov"] for i in covs]))
    with np.errstate(all="ignore"):  # a non-finite or huge rotation fails the rotation test
        return (np.isfinite(scalars).all(axis=1) & (scalars[:, 0] > 0.0)
                & (np.abs(scalars[:, :3]) <= PIXEL_LIMIT).all(axis=1) & psd
                & (rotation_error(rot) < _ROT_TOL) & (np.linalg.det(rot) >= 0.0))


def load_network(path: str) -> ImageNetwork:
    """Parse a camera network file; validates the convention header and all
    view invariants (orthonormal rotation, positive focal length, PSD
    covariance) in one stacked pass over the views."""
    data = _load_object(path, "views")
    if data.get("convention") != CONVENTION:
        raise FileFormatError(
            f"{path}: missing or wrong 'convention' header; expected "
            f"{CONVENTION!r} (got {data.get('convention')!r})")
    views, fault = [], None
    for entry in _object_list(path, "views", data["views"]):
        try:
            iop_cov = entry.get("iop_cov")
            views.append({
                "image_id": str(entry["image_id"]),
                "f": float(entry["f"]), "px": float(entry["px"]), "py": float(entry["py"]),
                "rot": np.asarray(entry["rot"], dtype=float).reshape(3, 3),
                "t": np.asarray(entry["t"], dtype=float).reshape(3),
                "iop_cov": None if iop_cov is None
                else np.asarray(iop_cov, dtype=float).reshape(3, 3)})
        except _BAD_ENTRY as exc:
            fault = exc
            break
    try:  # the first bad view, built on its own, raises its own error
        for i in np.flatnonzero(~_valid_views(views)):
            CameraView(**views[i])
        if fault is not None:
            raise fault
    except _BAD_ENTRY as exc:
        raise FileFormatError(f"{path}: bad view entry ({exc})") from exc
    tie_points = []
    for entry in _object_list(path, "tie_points", data.get("tie_points", [])):
        try:
            tie_points.append(TiePoint(
                xyz=np.asarray(entry["xyz"], dtype=float).reshape(3),
                visible_in=frozenset(map(str, entry["visible_in"]))))
        except _BAD_ENTRY as exc:
            raise FileFormatError(f"{path}: bad tie point entry ({exc})") from exc
    try:
        return ImageNetwork(views=list(map(CameraView._trusted, views)),
                            tie_points=tie_points)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_network(network: ImageNetwork, path: str) -> None:
    payload = {
        "convention": CONVENTION,
        "views": [
            {
                "image_id": v.image_id,
                "f": v.f, "px": v.px, "py": v.py,
                "rot": [float(x) for x in v.rot.ravel()],
                "t": [float(x) for x in v.t],
                **({"iop_cov": [float(x) for x in v.iop_cov.ravel()]}
                   if v.iop_cov is not None else {}),
            }
            for v in network.views
        ],
    }
    if network.tie_points:
        payload["tie_points"] = [
            {"xyz": [float(x) for x in tp.xyz],
             "visible_in": sorted(tp.visible_in)}
            for tp in network.tie_points
        ]
    atomic_write_text(path, _dump_json(payload))


# ---------------------------------------------------------------- ellipses

def _partial_covariance(blanks):
    """Some but not all covariance cells of a row are blank; elementwise over
    numpy arrays of blank-cell counts as well as scalars."""
    return (blanks > 0) & (blanks < len(ELLIPSE_COV_COLUMNS))


def _cov_from_columns(raw: Sequence[str]) -> Optional[np.ndarray]:
    blanks = raw.count("")
    if _partial_covariance(blanks):
        raise FileFormatError("partial covariance row: give all 10 columns or none")
    if blanks:
        return None
    return np.array(list(map(float, raw))).take(_COV_FILL).reshape(4, 4)


@dataclass(frozen=True)
class _EllipseColumns:
    """Getters of a row's cells under one header.  A covariance column absent
    from the header reads the blank cell that ``_read_ellipse_rows`` appends
    to every row."""

    width: int
    ids: operator.itemgetter      # (image_id, ellipse_id)
    numbers: operator.itemgetter  # the _NUMBERS cells

    @classmethod
    def of(cls, path: str, header: Optional[list[str]]) -> "_EllipseColumns":
        if header is None:
            raise FileFormatError(f"{path}: empty file (header row is mandatory)")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise FileFormatError(f"{path}: repeated columns {repeated}")
        missing = [c for c in ELLIPSE_BASE_COLUMNS if c not in header]
        if missing:
            raise FileFormatError(f"{path}: missing columns {missing}")
        column = {name: i for i, name in enumerate(header)}
        return cls(len(header),
                   operator.itemgetter(*(column[c] for c in ELLIPSE_BASE_COLUMNS[:2])),
                   operator.itemgetter(*(column.get(c, len(header)) for c in _NUMBERS)))

    def check_row(self, path: str, line: int, row: list[str]) -> None:
        """Check the row on its own, cell by cell and as ``EllipseObservation``
        checks it; its first fault raises FileFormatError naming ``line``."""
        image_id, ellipse_id = self.ids(row)
        x_ce, y_ce, a_e, b_e, theta, *cov = self.numbers(row)
        try:
            EllipseObservation(
                image_id=image_id, ellipse_id=ellipse_id,
                x_ce=float(x_ce), y_ce=float(y_ce), a_e=float(a_e), b_e=float(b_e),
                theta=float(theta), cov=_cov_from_columns(cov))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line}: {exc}") from exc


def _read_ellipse_rows(path: str):
    """The columns of the header, then the data rows (each with one blank
    cell appended), their line numbers and their (image_id, ellipse_id) keys
    up to the first row that is malformed as CSV, has the wrong field count
    or repeats an id, and last that row's FileFormatError (None if there is
    no such row)."""
    rows, lines = [], []
    columns = fault = None
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            columns = _EllipseColumns.of(path, next(reader, None))
            for row in reader:
                if not row:
                    continue
                if len(row) != columns.width:
                    fault = FileFormatError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                            f"the header has {columns.width}")
                    break
                row.append("")
                rows.append(row)
                lines.append(reader.line_num)
        except csv.Error as exc:
            fault = FileFormatError(f"{path}:{reader.line_num}: {exc}")
            fault.__cause__ = exc
    if columns is None:  # the header itself is malformed
        raise fault
    keys = list(map(columns.ids, rows))
    if len(set(keys)) < len(keys):
        first = {}
        i = next(i for i, key in enumerate(keys) if first.setdefault(key, i) != i)
        image_id, ellipse_id = keys[i]
        fault = FileFormatError(f"{path}:{lines[i]}: ellipse id {ellipse_id!r} "
                                f"repeats in image {image_id!r}")
        del rows[i:], lines[i:], keys[i:]
    return columns, rows, lines, keys, fault


def _valid_rows(base: np.ndarray, block: np.ndarray, blank: np.ndarray) -> np.ndarray:
    """Which rows pass every check of ``EllipseObservation`` and of the
    covariance cells: the column form of those checks.

    ``base`` holds (x_ce, y_ce, a_e, b_e, theta) per row, ``block`` the
    covariance cells as 4x4 matrices with blanks read as NaN, and ``blank``
    which covariance cells are blank.
    """
    blanks = blank.sum(axis=1)
    minor_ok, major_ok, in_range = ellipse_checks(*base[:, :4].T)
    return (np.isfinite(base).all(axis=1) & minor_ok & major_ok & in_range
            & ~_partial_covariance(blanks) & ((blanks > 0) | is_psd(block)))


def read_ellipse_table(path: str) -> EllipseTable:
    """Parse an ellipse CSV (mandatory header, optional covariance columns)
    into its ``EllipseTable``, rows in file order.

    Every row has as many fields as the header; no column is repeated, and no
    (image_id, ellipse_id) pair.  The first malformed line is reported.  The
    rows are checked in column passes over the whole file.
    """
    columns, rows, lines, keys, fault = _read_ellipse_rows(path)
    n, width = len(rows), len(_NUMBERS)
    cells = list(itertools.chain.from_iterable(map(columns.numbers, rows)))
    blank = np.zeros((n, width), dtype=bool)
    if "" in cells:
        blank = np.array(list(map(operator.not_, cells)), dtype=bool).reshape(n, width)
        cells = [cell or "nan" for cell in cells]  # a blank cell reads as NaN
    try:
        values = np.fromiter(map(float, cells), float, n * width).reshape(n, width)
    except ValueError:  # a cell that is not a number
        flagged = range(n)
    else:
        base = values[:, :5]
        block = values[:, 5 + _COV_FILL].reshape(n, 4, 4)
        flagged = np.flatnonzero(~_valid_rows(base, block, blank[:, 5:]))
    for i in flagged:
        # Checked on its own, the first flagged row raises and names its
        # fault; a cell that is not a number fails some row's check.
        columns.check_row(path, lines[i], rows[i])
    if fault is not None:
        raise fault
    # A valid row's covariance cells are all blank or none.
    block[blank[:, 5]] = 0.0
    return EllipseTable(keys, base[:, :4], fold_axis_angle(base[:, 4]), block, ~blank[:, 5])


def load_ellipses(path: str) -> list[EllipseObservation]:
    """``read_ellipse_table`` as one ``EllipseObservation`` per row."""
    table = read_ellipse_table(path)
    return [EllipseObservation._trusted({
                "image_id": image_id, "ellipse_id": ellipse_id, "x_ce": x_ce, "y_ce": y_ce,
                "a_e": a_e, "b_e": b_e, "theta": t, "cov": m if c else None})
            for (image_id, ellipse_id), (x_ce, y_ce, a_e, b_e), t, m, c
            in zip(table.keys, table.params.tolist(), table.theta.tolist(), table.cov,
                   table.has_cov.tolist())]


#: Characters that make ``csv`` quote a field by default.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted the way ``csv`` quotes it by default:
    only if it holds a comma, a double quote or a line break."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


#: Cells of the upper covariance triangle in a row-major 4x4 block, and a
#: row's cells when it has no covariance.
_COV_UPPER = [4 * i + j for i, j in _COV_INDEX]
_NO_COV_CELLS = ("",) * len(_COV_INDEX)


def write_ellipse_table(table: EllipseTable, path: str) -> None:
    """Write ``table`` as an ellipse CSV with every covariance column, in
    column passes; floats are written with shortest round-trip precision."""
    n = len(table.keys)
    values = np.hstack([table.params, table.theta[:, None],
                        table.cov.reshape(n, 16)[:, _COV_UPPER]])
    cells = map(repr, values.ravel().tolist())
    lines = [",".join(ELLIPSE_BASE_COLUMNS + ELLIPSE_COV_COLUMNS)]
    lines.extend(",".join((_csv_field(image_id), _csv_field(ellipse_id))
                          + (row if has_cov else row[:5] + _NO_COV_CELLS))
                 for (image_id, ellipse_id), has_cov, row
                 in zip(table.keys, table.has_cov.tolist(), zip(*[cells] * 15)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_ellipses(ellipses: Sequence[EllipseObservation], path: str) -> None:
    """``write_ellipse_table`` of the ``EllipseTable`` of ``ellipses``."""
    write_ellipse_table(EllipseTable.of(ellipses), path)


# ---------------------------------------------------------------- gate report

#: ``json.dumps(..., indent=2, sort_keys=True)`` of one gate report row, as
#: the text before, between and after its six values.
_REPORT_PARTS = ('    {\n      "accepted": \0,\n      "ellipse_id": \0,\n      "image_id": \0,\n'
                 '      "k": \0,\n      "sigma_tau": \0,\n      "tau": \0\n    }').split("\0")
#: How ``json`` spells the floats whose repr is not JSON.
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float of ``values`` as ``json`` writes it."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = _JSON_FLOAT[texts[i]]
    return texts


def gate_report_text(keys: Sequence[tuple[str, str]], tau: np.ndarray, sigma_tau: np.ndarray,
                     k: float, accepted: np.ndarray) -> str:
    """The per-ellipse gate report as JSON text: ``{"ellipses": [...]}`` with
    one object per (image_id, ellipse_id) key and the gate's tau, sigma_tau
    and accepted entries at the same position, all at threshold ``k``; byte
    for byte what ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
    writes."""
    if not keys:
        return '{\n  "ellipses": []\n}\n'
    quote = json.encoder.encode_basestring_ascii
    image_ids, ellipse_ids = zip(*keys)
    head, accepted_to_id, id_to_id, id_to_k, k_to_sigma, sigma_to_tau, tail = _REPORT_PARTS
    [k_text] = _json_floats(np.array([k], dtype=float))
    # One row is head, accepted, ..., tau, tail; rows are joined by ",\n".
    cells = list(itertools.chain.from_iterable(zip(
        map(("false", "true").__getitem__, accepted.tolist()), itertools.repeat(accepted_to_id),
        map(quote, ellipse_ids), itertools.repeat(id_to_id), map(quote, image_ids),
        itertools.repeat(id_to_k + k_text + k_to_sigma),
        _json_floats(sigma_tau), itertools.repeat(sigma_to_tau), _json_floats(tau),
        itertools.repeat(tail + ",\n" + head))))
    cells[-1] = tail + "\n  ]\n}\n"
    return '{\n  "ellipses": [\n' + head + "".join(cells)


# ---------------------------------------------------------------- spheres

@dataclass
class GateRecord:
    """Gate verdict attached to one contributing ellipse."""

    image_id: str
    ellipse_id: str
    report: GateReport


@dataclass
class SphereEntry:
    """One reconstructed sphere as stored in the sphere output file."""

    sphere_id: str
    model: SphereModel
    ellipses: list[tuple[str, str]]  # (image_id, ellipse_id)
    gate_records: list[GateRecord]


def save_spheres(entries: Sequence[SphereEntry], path: str) -> None:
    payload = {"spheres": []}
    for entry in entries:
        model = entry.model
        payload["spheres"].append({
            "sphere_id": entry.sphere_id,
            "center": [float(x) for x in model.sphere.center],
            "radius": model.sphere.radius,
            "per_view_radii": [[i, r] for i, r in model.per_view_radii],
            "radius_spread": model.radius_spread,
            "triangulation_residual_px": model.triangulation_residual,
            "ellipses": [{"image_id": i, "ellipse_id": e} for i, e in entry.ellipses],
            "gate_reports": [
                {"image_id": g.image_id, "ellipse_id": g.ellipse_id,
                 "tau": g.report.tau, "sigma_tau": g.report.sigma_tau,
                 "k": g.report.k, "accepted": g.report.accepted}
                for g in entry.gate_records],
            "scale_applied": model.scale_applied,
        })
    atomic_write_text(path, _dump_json(payload))


def load_spheres(path: str) -> list[SphereEntry]:
    data = _load_object(path, "spheres")
    entries = []
    for item in _object_list(path, "spheres", data["spheres"]):
        try:
            model = SphereModel(
                sphere=Sphere(np.asarray(item["center"], dtype=float),
                              float(item["radius"]), frame="world"),
                per_view_radii=[(str(i), float(r)) for i, r in item["per_view_radii"]],
                radius_spread=float(item["radius_spread"]),
                triangulation_residual=float(item["triangulation_residual_px"]),
                scale_applied=(None if item.get("scale_applied") is None
                               else float(item["scale_applied"])))
            gate_records = [
                GateRecord(image_id=str(g["image_id"]), ellipse_id=str(g["ellipse_id"]),
                           report=GateReport(tau=float(g["tau"]),
                                             sigma_tau=float(g["sigma_tau"]),
                                             k=float(g["k"]),
                                             accepted=bool(g["accepted"])))
                for g in item.get("gate_reports", [])]
            entries.append(SphereEntry(
                sphere_id=str(item["sphere_id"]), model=model,
                ellipses=[(str(e["image_id"]), str(e["ellipse_id"]))
                          for e in item["ellipses"]],
                gate_records=gate_records))
        except _BAD_ENTRY as exc:
            raise FileFormatError(f"{path}: bad sphere entry ({exc})") from exc
    return entries


# ---------------------------------------------------------------- PLY

#: PLY scalar types that hold only integers.
_PLY_INTEGER_TYPES = frozenset({"char", "uchar", "short", "ushort", "int", "uint",
                               "int8", "uint8", "int16", "uint16", "int32", "uint32"})


@dataclass
class PlyCloud:
    """An ASCII PLY vertex cloud; non-coordinate properties pass through."""

    properties: list[tuple[str, str]]  # (type, name), header order
    rows: list[list[str]]              # raw tokens, one list per vertex
    comments: list[str]

    @property
    def xyz_indices(self) -> tuple[int, int, int]:
        names = [name for _, name in self.properties]
        try:
            return names.index("x"), names.index("y"), names.index("z")
        except ValueError as exc:
            raise FileFormatError("PLY is missing x/y/z vertex properties") from exc


def load_ply(path: str) -> PlyCloud:
    with open(path, encoding="utf-8-sig") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0].strip() != "ply":
        raise FileFormatError(f"{path}: not a PLY file")
    comments = []
    properties: list[tuple[str, str]] = []
    n_vertices = None
    idx = 1
    saw_format = False
    in_vertex_element = False
    while idx < len(lines):
        tokens = lines[idx].split()
        idx += 1
        if not tokens:
            continue
        if tokens[0] == "format":
            if tokens[1:2] != ["ascii"]:
                raise FileFormatError(f"{path}: only ascii PLY is supported")
            saw_format = True
        elif tokens[0] == "comment":
            # The text after "comment ", whitespace included, as save_ply writes it.
            comments.append(lines[idx - 1].lstrip()[len("comment "):])
        elif tokens[0] == "element":
            if len(tokens) < 3 or not tokens[2].isdigit():
                raise FileFormatError(f"{path}: bad element line {lines[idx - 1]!r}")
            if tokens[1] != "vertex":
                raise FileFormatError(
                    f"{path}: unsupported element {tokens[1]!r} (vertex clouds only)")
            n_vertices = int(tokens[2])
            in_vertex_element = True
        elif tokens[0] == "property":
            if not in_vertex_element:
                raise FileFormatError(f"{path}: property outside vertex element")
            if len(tokens) < 3:
                raise FileFormatError(f"{path}: bad property line {lines[idx - 1]!r}")
            if tokens[1] == "list":
                raise FileFormatError(f"{path}: list properties are not supported")
            properties.append((tokens[1], tokens[2]))
        elif tokens[0] == "end_header":
            break
        else:
            raise FileFormatError(f"{path}: unexpected header line {lines[idx - 1]!r}")
    else:
        raise FileFormatError(f"{path}: missing end_header")
    if not saw_format or n_vertices is None:
        raise FileFormatError(f"{path}: incomplete PLY header")
    body = [line.split() for line in lines[idx:] if line.strip()]
    if len(body) != n_vertices:
        raise FileFormatError(
            f"{path}: header declares {n_vertices} vertices, found {len(body)}")
    for line_no, row in enumerate(body):
        if len(row) != len(properties):
            raise FileFormatError(
                f"{path}: vertex row {line_no} has {len(row)} values, "
                f"expected {len(properties)}")
    return PlyCloud(properties=properties, rows=body, comments=comments)


def save_ply(cloud: PlyCloud, path: str) -> None:
    header = ["ply", "format ascii 1.0"]
    header += [f"comment {c}" for c in cloud.comments]
    header.append(f"element vertex {len(cloud.rows)}")
    header += [f"property {ptype} {name}" for ptype, name in cloud.properties]
    header.append("end_header")
    body = [" ".join(row) for row in cloud.rows]
    atomic_write_text(path, "\n".join(header + body) + "\n")


def scale_ply(cloud: PlyCloud, s_r: float) -> PlyCloud:
    """Scaled copy: x/y/z multiplied by ``s_r``, other columns untouched.

    Integer-typed coordinates cannot hold the scaled values, so their
    header type becomes ``double``.
    """
    xyz = cloud.xyz_indices
    rows = []
    for row in cloud.rows:
        row = list(row)
        for i in xyz:
            row[i] = repr(float(row[i]) * s_r)
        rows.append(row)
    properties = [("double", name) if i in xyz and ptype in _PLY_INTEGER_TYPES
                  else (ptype, name)
                  for i, (ptype, name) in enumerate(cloud.properties)]
    return PlyCloud(properties=properties, rows=rows, comments=list(cloud.comments))
