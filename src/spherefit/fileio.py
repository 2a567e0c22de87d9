"""On-disk formats: camera network JSON, ellipse CSV, sphere JSON, ASCII PLY.

The camera file must carry an explicit ``convention`` header stating the
world-to-camera transform direction; refusing to guess is the cheapest
defense against the classic pose-inversion bug when importing poses from
external reconstruction tools.  All writes are atomic (temp file + rename),
UTF-8, and get the mode the umask gives a new file; a command's outputs are
written all or none.  All payloads are deterministic: no timestamps, keys in
fixed order, floats serialized with shortest round-trip precision.  CSV and
JSON inputs may start with a UTF-8 byte-order mark, as spreadsheet exports do.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .netselect import ImageNetwork
from .projection import (
    _ROT_TOL,
    PIXEL_LIMIT,
    WORLD_LIMIT,
    CameraView,
    EllipseObservation,
    EllipseTable,
    Sphere,
    _require_finite,
    _require_world,
    ellipse_checks,
    fold_axis_angle,
    is_psd,
    rotation_error,
)
from .reconstruct import SphereModel, apply_scale

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


def _temp_name(path: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")


def atomic_write_texts(outputs: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text) of ``outputs`` via a temp file in the path's
    directory, so that the umask sets its mode, all or none: the temp files
    are renamed into place only once all are written.  If a rename fails,
    each target renamed before it is put back as it was: absent, or its old
    bytes, kept meanwhile by a hard link (a copy where the file system has
    none; the last target needs neither).  No temp file is left either way,
    and an ``OSError`` names the target, not its temp file.  A path given
    twice gets its last text."""
    texts = dict(outputs)
    temps = {_temp_name(path): path for path in texts}
    olds, done = {}, []  # a temp link to each target's old file; the targets renamed
    try:
        for tmp, path in temps.items():
            # Mode 0o666, as ``open`` creates a file, so that the umask sets the mode.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(texts[path])
        for n, (tmp, path) in enumerate(temps.items(), 1):
            if n < len(temps) and os.path.isfile(path):
                olds[path] = _temp_name(path)
                try:
                    os.link(path, olds[path])
                except OSError:
                    shutil.copyfile(path, olds[path])
            os.replace(tmp, path)
            done.append(path)
    except BaseException as exc:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for path in reversed(done):
            if path in olds:
                os.replace(olds.pop(path), path)
            else:
                os.unlink(path)
        if isinstance(exc, OSError) and exc.filename in temps:
            raise OSError(exc.errno, exc.strerror, temps[exc.filename]) from exc
        raise
    finally:
        for old in olds.values():
            if os.path.exists(old):
                os.unlink(old)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as the one output of ``atomic_write_texts``."""
    atomic_write_texts([(path, text)])


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


#: How ``json`` spells the floats whose repr is not JSON.
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float of ``values`` as ``json`` writes it."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = _JSON_FLOAT[texts[i]]
    return texts


def _json_float(value: float) -> str:
    """``float(value)`` as ``json`` writes it."""
    text = repr(float(value))
    return _JSON_FLOAT.get(text, text)


def _json_list(items: Sequence[str], pad: str) -> str:
    """The JSON list of ``items``, texts laid out for two spaces past ``pad``,
    as ``json.dumps(..., indent=2)`` writes a list at ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


# ---------------------------------------------------------------- cameras

def _image_ids(value) -> list[str]:
    """A tie point's ``visible_in``: a list of image ids, each a string or a
    number, read as ``str`` as a view's ``image_id`` is."""
    ids = list(value)  # a value that is no container raises as it always did
    if not isinstance(value, list) or not all(
            isinstance(i, (str, int, float)) and not isinstance(i, bool) for i in ids):
        raise ValueError(
            f"tie point visible_in must be a list of image ids, got {json.dumps(value)}")
    return list(map(str, ids))


def load_network(path: str) -> ImageNetwork:
    """Parse a camera network file.  Its views and tie points are stacked and
    checked in one pass; a file that pass flags is read again entry by entry,
    each view through ``CameraView``, so the first bad entry raises its own error."""
    data = _load_object(path, "views")
    if data.get("convention") != CONVENTION:
        raise FileFormatError(
            f"{path}: missing or wrong 'convention' header; expected "
            f"{CONVENTION!r} (got {data.get('convention')!r})")
    entries = _object_list(path, "views", data["views"])
    n = len(entries)
    try:  # a FileFormatError is a ValueError: a bad tie point list flags the file too
        points = _object_list(path, "tie_points", data.get("tie_points", []))
        iop = np.array([(float(e["f"]), float(e["px"]), float(e["py"])) for e in entries])
        iop = iop.reshape(n, 3)
        rot = np.array([e["rot"] for e in entries], dtype=float).reshape(n, 3, 3)
        t = np.array([e["t"] for e in entries], dtype=float).reshape(n, 3)
        has_cov = [e.get("iop_cov") is not None for e in entries]
        cov = np.array([e["iop_cov"] for e in itertools.compress(entries, has_cov)], dtype=float)
        cov = cov.reshape(sum(has_cov), 3, 3)  # not (-1, 3, 3), which splits 9 covs of 4 numbers
        xyz = np.array([p["xyz"] for p in points], dtype=float).reshape(len(points), 3)
        visible_in = [p["visible_in"] for p in points]
        with np.errstate(all="ignore"):  # NaN fails every bound, a non-finite rot its tests
            clean = ((iop[:, 0] > 0.0).all() and (np.abs(iop) <= PIXEL_LIMIT).all()
                     and (np.abs(t) <= WORLD_LIMIT).all()
                     and (rotation_error(rot) < _ROT_TOL).all()
                     and (np.linalg.det(rot) >= 0.0).all()
                     and (not len(cov) or is_psd(cov).all())
                     and all(type(ids) is list for ids in visible_in))
        if clean:
            covs = iter(cov)
            views = [CameraView._trusted({
                "image_id": str(e["image_id"]), "f": f, "px": px, "py": py, "rot": r, "t": tv,
                "iop_cov": next(covs) if h else None})
                for e, (f, px, py), r, tv, h in zip(entries, iop.tolist(), rot, t, has_cov)]
            # ImageNetwork checks the tie points.  An id that is not a known
            # image's string (a number, say) makes it raise, and the file is
            # read again below, each id as str.
            return ImageNetwork(views, xyz, visible_in)
    except _BAD_ENTRY:
        pass
    # Each entry built on its own, so that the first bad one raises its own error.
    try:
        views = [CameraView(
            image_id=str(e["image_id"]), f=float(e["f"]), px=float(e["px"]),
            py=float(e["py"]), rot=np.asarray(e["rot"], dtype=float).reshape(3, 3),
            t=np.asarray(e["t"], dtype=float).reshape(3),
            iop_cov=None if e.get("iop_cov") is None
            else np.asarray(e["iop_cov"], dtype=float).reshape(3, 3)) for e in entries]
    except _BAD_ENTRY as exc:
        raise FileFormatError(f"{path}: bad view entry ({exc})") from exc
    points, xyz, visible_in = _object_list(path, "tie_points", data.get("tie_points", [])), [], []
    try:
        for p in points:
            xyz.append(np.asarray(p["xyz"], dtype=float).reshape(3))
            visible_in.append(_image_ids(p["visible_in"]))
            _require_finite("tie point", xyz=xyz[-1])
            _require_world("tie point", "xyz", xyz[-1])
    except _BAD_ENTRY as exc:
        raise FileFormatError(f"{path}: bad tie point entry ({exc})") from exc
    try:
        return ImageNetwork(views, np.reshape(xyz, (-1, 3)), visible_in)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def network_text(network: ImageNetwork) -> str:
    """The camera file of ``network``: the payload that ``load_network``
    reads, each tie point's ids sorted, without ``tie_points`` if there are none."""
    payload = {"convention": CONVENTION, "views": [
        {"image_id": v.image_id, "f": v.f, "px": v.px, "py": v.py,
         "rot": v.rot.ravel().tolist(), "t": v.t.tolist(),
         **({} if v.iop_cov is None else {"iop_cov": v.iop_cov.ravel().tolist()})}
        for v in network.views]}
    if len(network.xyz):
        payload["tie_points"] = [{"xyz": xyz, "visible_in": sorted(set(ids))}
                                 for xyz, ids in zip(network.xyz.tolist(), network.visible_in)]
    return _dump_json(payload)


def save_network(network: ImageNetwork, path: str) -> None:
    atomic_write_text(path, network_text(network))


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
    from the header reads the blank cell that the readers append to every
    row."""

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
    (image_id, ellipse_id) pair.  The rows are checked in column passes over
    the whole file.  A file those passes flag, a CSV error included, is read
    again by ``load_ellipses``, which reports the first malformed line, and
    the table is built from its rows.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            columns = _EllipseColumns.of(path, next(reader, None))
            rows = list(filter(None, reader))
        except csv.Error:
            return EllipseTable.of(load_ellipses(path))
    for row in rows:
        row.append("")
    if not set(map(len, rows)) <= {columns.width + 1}:
        return EllipseTable.of(load_ellipses(path))
    n, width = len(rows), len(_NUMBERS)
    keys = list(map(columns.ids, rows))
    cells = list(itertools.chain.from_iterable(map(columns.numbers, rows)))
    blank = np.zeros((n, width), dtype=bool)
    if "" in cells:
        blank = np.array(list(map(operator.not_, cells)), dtype=bool).reshape(n, width)
        cells = [cell or "nan" for cell in cells]  # a blank cell reads as NaN
    try:
        values = np.fromiter(map(float, cells), float, n * width).reshape(n, width)
    except ValueError:  # a cell that is not a number
        return EllipseTable.of(load_ellipses(path))
    base = values[:, :5]
    block = values[:, 5 + _COV_FILL].reshape(n, 4, 4)
    if len(set(keys)) < n or not _valid_rows(base, block, blank[:, 5:]).all():
        return EllipseTable.of(load_ellipses(path))
    block[blank[:, 5]] = 0.0  # a valid row's covariance cells are all blank or none
    return EllipseTable(keys, base[:, :4], fold_axis_angle(base[:, 4]), block, ~blank[:, 5])


def load_ellipses(path: str) -> list[EllipseObservation]:
    """Parse an ellipse CSV row by row, as ``read_ellipse_table`` documents
    it, into one ``EllipseObservation`` per row, in file order.  The first
    malformed line raises FileFormatError naming it; a malformed row that an
    unclosed quote ran to the end of the file, or past csv's field limit,
    names the line the quote opens."""
    ellipses = {}  # (image_id, ellipse_id) -> its ellipse
    with open(path, newline="", encoding="utf-8-sig") as handle:
        ended = []  # not empty once csv has asked for a line past the last

        def lines():
            yield from handle
            ended.append(True)

        reader = csv.reader(lines())
        first = 1  # the next row starts on this line or after blank lines
        try:
            columns = _EllipseColumns.of(path, next(reader, None))
            first = reader.line_num + 1
            for row in filter(None, reader):
                try:
                    if len(row) != columns.width:
                        raise ValueError(f"{len(row)} fields, the header has {columns.width}")
                    image_id, ellipse_id = key = columns.ids(row)
                    if key in ellipses:
                        raise ValueError(f"ellipse id {ellipse_id!r} repeats in image {image_id!r}")
                    x_ce, y_ce, a_e, b_e, theta, *cov = columns.numbers(row + [""])
                    ellipses[key] = EllipseObservation(
                        image_id=image_id, ellipse_id=ellipse_id,
                        x_ce=float(x_ce), y_ce=float(y_ce), a_e=float(a_e), b_e=float(b_e),
                        theta=float(theta), cov=_cov_from_columns(cov))
                except ValueError as exc:
                    if ended:  # csv ends a row at the end of the file only in a quoted field,
                        # the row's last, which holds the lines it ran over
                        spanned = len(io.StringIO(row[-1], newline="").readlines())
                        raise FileFormatError(f"{path}:{reader.line_num + 1 - max(spanned, 1)}: "
                                              "quoted field is not closed") from exc
                    raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from exc
                first = reader.line_num + 1
        except csv.Error as exc:
            opened = _unclosed_quote(path, first, reader.line_num)
            if opened is not None:
                raise FileFormatError(f"{path}:{opened}: quoted field is not closed") from exc
            raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return list(ellipses.values())


def ellipse_row_line(path: str, key: tuple[str, str]) -> int:
    """The line of the ellipse file ``path`` that ends the row of ``key``
    (image_id, ellipse_id), as ``load_ellipses`` names a row; it reads the
    file again, for an error message about a row of its table."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        columns = _EllipseColumns.of(path, next(reader, None))
        return next(reader.line_num for row in reader if row and columns.ids(row) == key)


def _unclosed_quote(path: str, first: int, last: int) -> Optional[int]:
    """The line a row opens on, if csv stopped reading it on a later line
    ``last`` and no double quote on ``last`` or after closes its quoted field;
    else None.  The row is the first non-blank line from ``first`` on."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        lines = list(itertools.islice(handle, first - 1, None))
    start = first + next((i for i, line in enumerate(lines) if line.strip("\r\n")), 0)
    if start < last and '"' not in "".join(lines[last - first:]).replace('""', ""):
        return start
    return None


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


def ellipse_table_text(table: EllipseTable) -> str:
    """The ellipse CSV of ``table`` with every covariance column, built in
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
    return "\n".join(lines) + "\n"


def save_ellipses(ellipses: Sequence[EllipseObservation], path: str) -> None:
    """Write the ``ellipse_table_text`` of the ``EllipseTable`` of ``ellipses``."""
    atomic_write_text(path, ellipse_table_text(EllipseTable.of(ellipses)))


# ---------------------------------------------------------------- gate report

#: ``json.dumps(row, indent=2, sort_keys=True)`` of one gate row, with a %s
#: for each of its six values.
_GATE_ROW = ('{\n  "accepted": %s,\n  "ellipse_id": %s,\n  "image_id": %s,\n  "k": %s,\n'
             '  "sigma_tau": %s,\n  "tau": %s\n}')
#: A row of the gate report, as the text before, between and after its values.
_REPORT_PARTS = ("    " + _GATE_ROW.replace("\n", "\n    ")).split("%s")


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
class SphereEntry:
    """One reconstructed sphere as stored in the sphere output file."""

    sphere_id: str
    model: SphereModel
    ellipses: list[tuple[str, str]]  # (image_id, ellipse_id)
    gate_reports: list[dict]  # the file's rows, typed as load_spheres types them


#: ``json.dumps(..., indent=2, sort_keys=True)`` of one sphere entry and of
#: the gate rows, ellipse keys and per-view radii it holds, as the sphere
#: file holds them, with a %s for each value.
_SPHERE = ('{\n  "center": %s,\n  "ellipses": %s,\n  "gate_reports": %s,\n'
           '  "per_view_radii": %s,\n  "radius": %s,\n  "radius_spread": %s,\n'
           '  "scale_applied": %s,\n  "sphere_id": %s,\n  "triangulation_residual_px": %s\n}'
           ).replace("\n", "\n    ")
_SPHERE_GATE_ROW = _GATE_ROW.replace("\n", "\n        ")
_SPHERE_ELLIPSE = '{\n  "ellipse_id": %s,\n  "image_id": %s\n}'.replace("\n", "\n        ")
_SPHERE_RADIUS = '[\n  %s,\n  %s\n]'.replace("\n", "\n        ")


def spheres_text(entries: Sequence[SphereEntry]) -> str:
    """The sphere file of ``entries``, from templates: byte for byte
    ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` of the payload
    that ``load_spheres`` reads, with every number a float.  Each gate row
    holds exactly its six typed fields."""
    quote = json.encoder.encode_basestring_ascii
    pad = " " * 6
    texts = []
    for entry in entries:
        model = entry.model
        rows = [_SPHERE_GATE_ROW % ("true" if row["accepted"] else "false",
                                    quote(row["ellipse_id"]), quote(row["image_id"]),
                                    _json_float(row["k"]), _json_float(row["sigma_tau"]),
                                    _json_float(row["tau"]))
                for row in entry.gate_reports]
        texts.append(_SPHERE % (
            _json_list(_json_floats(model.sphere.center), pad),
            _json_list([_SPHERE_ELLIPSE % (quote(e), quote(i)) for i, e in entry.ellipses], pad),
            _json_list(rows, pad),
            _json_list([_SPHERE_RADIUS % (quote(i), _json_float(r))
                        for i, r in model.per_view_radii], pad),
            _json_float(model.sphere.radius), _json_float(model.radius_spread),
            "null" if model.scale_applied is None else _json_float(model.scale_applied),
            quote(entry.sphere_id), _json_float(model.triangulation_residual)))
    return '{\n  "spheres": ' + _json_list(texts, "  ") + "\n}\n"


def save_spheres(entries: Sequence[SphereEntry], path: str) -> None:
    atomic_write_text(path, spheres_text(entries))


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
            gate_reports = [{"image_id": str(g["image_id"]), "ellipse_id": str(g["ellipse_id"]),
                             "tau": float(g["tau"]), "sigma_tau": float(g["sigma_tau"]),
                             "k": float(g["k"]), "accepted": bool(g["accepted"])}
                            for g in item.get("gate_reports", [])]
            entries.append(SphereEntry(
                sphere_id=str(item["sphere_id"]), model=model,
                ellipses=[(str(e["image_id"]), str(e["ellipse_id"]))
                          for e in item["ellipses"]],
                gate_reports=gate_reports))
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
    obj_info: list[str] = field(default_factory=list)  # written after the comments

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
    texts = {"comment": [], "obj_info": []}  # each line's text after its keyword
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
        elif tokens[0] in texts:
            # The text after "comment " or "obj_info ", whitespace included,
            # as ply_text writes it.
            texts[tokens[0]].append(lines[idx - 1].lstrip()[len(tokens[0]) + 1:])
        elif tokens[0] == "element":
            if len(tokens) < 3 or not tokens[2].isdigit():
                raise FileFormatError(f"{path}: bad element line {lines[idx - 1]!r}")
            if tokens[1] != "vertex":
                raise FileFormatError(
                    f"{path}: unsupported element {tokens[1]!r} (vertex clouds only)")
            if n_vertices is not None:
                raise FileFormatError(f"{path}: element 'vertex' is declared twice")
            n_vertices = int(tokens[2])
            in_vertex_element = True
        elif tokens[0] == "property":
            if not in_vertex_element:
                raise FileFormatError(f"{path}: property outside vertex element")
            if len(tokens) < 3:
                raise FileFormatError(f"{path}: bad property line {lines[idx - 1]!r}")
            if tokens[1] == "list":
                raise FileFormatError(f"{path}: list properties are not supported")
            if tokens[2] in [name for _, name in properties]:
                raise FileFormatError(f"{path}: property {tokens[2]!r} is declared twice")
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
    return PlyCloud(properties=properties, rows=body, comments=texts["comment"],
                    obj_info=texts["obj_info"])


def ply_text(cloud: PlyCloud) -> str:
    header = ["ply", "format ascii 1.0"]
    header += [f"comment {c}" for c in cloud.comments]
    header += [f"obj_info {c}" for c in cloud.obj_info]
    header.append(f"element vertex {len(cloud.rows)}")
    header += [f"property {ptype} {name}" for ptype, name in cloud.properties]
    header.append("end_header")
    body = [" ".join(row) for row in cloud.rows]
    return "\n".join(header + body) + "\n"


def scale_ply(cloud: PlyCloud, s_r: float, path: str) -> PlyCloud:
    """Scaled copy: x/y/z multiplied by ``s_r`` through ``apply_scale``, other
    columns untouched; integer-typed coordinates become ``double``.  A
    coordinate that is not a number raises FileFormatError naming ``path``,
    the file the cloud was read from, and the vertex row and column; so does a
    scaled coordinate beyond ``WORLD_LIMIT``, ``nan`` and ``inf`` included,
    without the path."""
    xyz = list(cloud.xyz_indices)
    cells = np.array(cloud.rows, dtype=object).reshape(-1, len(cloud.properties))
    try:
        coordinates = np.array(list(map(float, cells[:, xyz].flat))).reshape(-1, 3)
    except ValueError:
        for (row, axis), cell in np.ndenumerate(cells[:, xyz]):
            try:
                float(cell)
            except ValueError:
                raise FileFormatError(f"{path}: vertex row {row}: {'xyz'[axis]} is not a "
                                      f"number: {cell!r}") from None
        raise
    with np.errstate(over="ignore"):  # an overflow is reported below
        scaled = apply_scale(coordinates, s_r)
    bad = np.argwhere(~(np.abs(scaled) <= WORLD_LIMIT))  # NaN fails too
    if len(bad):
        row, axis = bad[0]
        raise FileFormatError(f"vertex row {row}: {'xyz'[axis]} scales to {scaled[row, axis]}")
    cells[:, xyz] = np.frompyfunc(repr, 1, 1)(scaled)  # each as its shortest float text
    properties = [("double", name) if i in xyz and ptype in _PLY_INTEGER_TYPES
                  else (ptype, name)
                  for i, (ptype, name) in enumerate(cloud.properties)]
    return PlyCloud(properties=properties, rows=cells.tolist(), comments=list(cloud.comments),
                    obj_info=list(cloud.obj_info))
