import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spherefit
from spherefit import (
    EllipseObservation,
    ImageNetwork,
    SceneConfig,
    Sphere,
    SphereModel,
    TiePoint,
    fileio,
    generate_scene,
    perturb_observations,
)
from spherefit.fileio import (
    CONVENTION,
    FileFormatError,
    PlyCloud,
    SphereEntry,
    gate_report_text,
    load_ellipses,
    load_network,
    load_ply,
    load_spheres,
    read_ellipse_table,
    save_ellipses,
    save_network,
    save_ply,
    save_spheres,
    scale_ply,
)
from oracles import look_at_view, reference_load_ellipses


@pytest.fixture
def network():
    views = [look_at_view("a", [-1.0, 0.0, -5.0], [0, 0, 0],
                          iop_cov=np.diag([0.1, 0.1, 0.4])),
             look_at_view("b", [1.0, 0.0, -5.0], [0, 0, 0])]
    ties = [TiePoint(np.array([0.1, 0.2, 0.0]), frozenset(["a", "b"]))]
    return ImageNetwork(views, ties)


class TestNetworkFile:
    def test_round_trip(self, network, tmp_path):
        path = str(tmp_path / "net.json")
        save_network(network, path)
        loaded = load_network(path)
        for orig, back in zip(network.views, loaded.views):
            assert orig.image_id == back.image_id
            assert orig.f == back.f and orig.px == back.px and orig.py == back.py
            assert np.array_equal(orig.rot, back.rot)
            assert np.array_equal(orig.t, back.t)
            if orig.iop_cov is None:
                assert back.iop_cov is None
            else:
                assert np.array_equal(orig.iop_cov, back.iop_cov)
        assert len(loaded.tie_points) == 1
        assert loaded.tie_points[0].visible_in == frozenset(["a", "b"])

    def test_convention_header_is_mandatory(self, network, tmp_path):
        path = str(tmp_path / "net.json")
        save_network(network, path)
        data = json.load(open(path))
        del data["convention"]
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError, match="convention"):
            load_network(path)
        data["convention"] = "x_world = rot * x_cam + t"
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError, match="convention"):
            load_network(path)

    def test_invalid_rotation_is_rejected(self, network, tmp_path):
        path = str(tmp_path / "net.json")
        save_network(network, path)
        data = json.load(open(path))
        data["views"][0]["rot"] = [2.0, 0, 0, 0, 1, 0, 0, 0, 1]
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError):
            load_network(path)

    @pytest.mark.parametrize("key", ["views", "tie_points"])
    @pytest.mark.parametrize("value", [None, 5, [None]])
    def test_non_list_containers_rejected(self, network, tmp_path, key, value):
        # These used to escape as TypeError/AttributeError tracebacks.
        path = str(tmp_path / "net.json")
        save_network(network, path)
        data = json.load(open(path))
        data[key] = value
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError, match=key):
            load_network(path)

    @pytest.mark.parametrize("key, field", [("views", "f"), ("views", "rot"), ("views", "t"),
                                            ("tie_points", "xyz")])
    def test_integer_beyond_float_range_rejected(self, network, tmp_path, key, field):
        # float() of such an integer raised OverflowError, which escaped.
        path = str(tmp_path / "net.json")
        save_network(network, path)
        data = json.load(open(path))
        entry = data[key][0]
        entry[field] = 10 ** 400 if field == "f" else [10 ** 400] * len(entry[field])
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError, match="bad (view|tie point) entry"):
            load_network(path)

    def test_bad_json(self, tmp_path):
        path = str(tmp_path / "net.json")
        open(path, "w").write("{not json")
        with pytest.raises(FileFormatError, match="JSON"):
            load_network(path)

    def test_convention_constant_documents_transform(self):
        assert CONVENTION == "x_cam = rot * x_world + t"


class TestEllipseFile:
    def test_round_trip_with_and_without_covariance(self, tmp_path):
        cov = np.diag([0.25, 0.25, 0.04, 0.04])
        cov[0, 1] = cov[1, 0] = 0.01
        ellipses = [
            EllipseObservation("img-0", "e0", 700.25, 401.5, 120.0, 100.0, 0.3, cov=cov),
            EllipseObservation("img-1", "e1", 20.0, 30.0, 5.0, 4.0, -1.2),
        ]
        path = str(tmp_path / "e.csv")
        save_ellipses(ellipses, path)
        loaded = load_ellipses(path)
        assert len(loaded) == 2
        for orig, back in zip(ellipses, loaded):
            assert orig.image_id == back.image_id
            assert orig.ellipse_id == back.ellipse_id
            assert orig.x_ce == back.x_ce and orig.y_ce == back.y_ce
            assert orig.a_e == back.a_e and orig.b_e == back.b_e
            assert orig.theta == back.theta
        assert np.array_equal(loaded[0].cov, cov)
        assert loaded[1].cov is None

    @pytest.mark.parametrize("ellipse_id",
                             ["b,0", 'b"0', '"b0', "b\n0", "b\r0", "b\r\n0", ",", '"'])
    def test_ids_with_separators_round_trip(self, tmp_path, ellipse_id):
        # Written unquoted, "b,0" gave a row of 18 fields under a header of
        # 17, and a leading quote swallowed the rest of the row.
        cov = np.diag([0.25, 0.25, 0.04, 0.04])
        ellipses = [EllipseObservation("img,0", ellipse_id, 1.0, 2.0, 3.0, 2.0, 0.5, cov=cov),
                    EllipseObservation("img-1", "e1", 20.0, 30.0, 5.0, 4.0, -1.2)]
        path = str(tmp_path / "e.csv")
        save_ellipses(ellipses, path)
        loaded = load_ellipses(path)
        assert [(e.image_id, e.ellipse_id) for e in loaded] == [("img,0", ellipse_id),
                                                                 ("img-1", "e1")]
        assert np.array_equal(loaded[0].cov, cov) and loaded[1].cov is None
        assert loaded[1].x_ce == 20.0

    def test_plain_ids_are_written_unquoted(self, tmp_path):
        path = str(tmp_path / "e.csv")
        save_ellipses([EllipseObservation("img 0", "b-0.x", 1.0, 2.0, 3.0, 2.0, 0.5)], path)
        assert open(path).read().splitlines()[1].startswith("img 0,b-0.x,1.0,2.0,")

    @pytest.mark.parametrize("first, second", [
        (("x_ce", "nan"), ("fields", None)),    # a bad value before a short row
        (("fields", None), ("x_ce", "nan")),    # a short row before a bad value
        (("ellipse_id", "e"), ("a_e", "0.5")),  # a repeated id before a bad value
        (("a_e", "0.5"), ("ellipse_id", "e")),  # a bad value before a repeated id
        (("cov_ab", "5"), ("x_ce", "abc")),     # not PSD before not a number
        (("x_ce", "abc"), ("cov_ab", "5"))])    # not a number before not PSD
    def test_first_malformed_line_is_reported(self, tmp_path, first, second):
        # Rows are checked in column passes; the first bad line still wins.
        path = str(tmp_path / "e.csv")
        cov = np.diag([0.25, 0.25, 0.04, 0.04])
        save_ellipses([EllipseObservation("i", f"e{k}" if k else "e", 1.0, 2.0, 3.0, 2.0, 0.0,
                                          cov=cov) for k in range(4)], path)
        lines = open(path).read().splitlines()
        header = lines[0].split(",")
        for row, (column, value) in ((2, first), (3, second)):
            cells = lines[row].split(",")
            if column == "fields":
                del cells[-1]
            else:
                cells[header.index(column)] = value
            lines[row] = ",".join(cells)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=r"e\.csv:3: "):
            load_ellipses(path)

    def test_repeated_ids_rejected(self, tmp_path):
        ellipses = [
            EllipseObservation("img-0", "e0", 700.0, 400.0, 120.0, 100.0, 0.3),
            EllipseObservation("img-1", "e0", 20.0, 30.0, 5.0, 4.0, -1.2),
            EllipseObservation("img-0", "e0", 20.0, 30.0, 5.0, 4.0, -1.2),
        ]
        path = str(tmp_path / "e.csv")
        save_ellipses(ellipses, path)
        with pytest.raises(FileFormatError, match=r"e\.csv:4: .*'e0'.*'img-0'"):
            load_ellipses(path)
        save_ellipses(ellipses[:2], path)  # the same id in two images is fine
        assert len(load_ellipses(path)) == 2

    def test_header_is_mandatory(self, tmp_path):
        path = str(tmp_path / "e.csv")
        open(path, "w").write("")
        with pytest.raises(FileFormatError, match="header"):
            load_ellipses(path)

    def test_missing_columns(self, tmp_path):
        path = str(tmp_path / "e.csv")
        open(path, "w").write("image_id,ellipse_id,x_ce\n")
        with pytest.raises(FileFormatError, match="missing columns"):
            load_ellipses(path)

    def test_header_only_file_is_empty(self, tmp_path):
        path = str(tmp_path / "e.csv")
        save_ellipses([], path)
        assert load_ellipses(path) == []

    def test_partial_covariance_rejected(self, tmp_path):
        path = str(tmp_path / "e.csv")
        save_ellipses([EllipseObservation("i", "e", 1.0, 2.0, 3.0, 2.0, 0.0,
                                          cov=np.eye(4))], path)
        lines = open(path).read().splitlines()
        cells = lines[1].split(",")
        cells[-1] = ""
        open(path, "w").write("\n".join([lines[0], ",".join(cells)]) + "\n")
        with pytest.raises(FileFormatError, match="covariance"):
            load_ellipses(path)

    @pytest.mark.parametrize("row, fields", [("i,e,1,2,5,4,0.1,999,888", 9),
                                             ("i,e,1,2,5,4", 6)])
    def test_row_field_count_must_match_header(self, tmp_path, row, fields):
        # Extra fields used to be dropped silently, and a short row failed
        # on float(None).
        path = str(tmp_path / "e.csv")
        header = "image_id,ellipse_id,x_ce,y_ce,a_e,b_e,theta_rad"
        open(path, "w").write(f"{header}\ni,ok,1,2,5,4,0.1\n{row}\n")
        with pytest.raises(FileFormatError, match=rf"e\.csv:3: {fields} fields, the header has 7"):
            load_ellipses(path)

    def test_repeated_header_column_rejected(self, tmp_path):
        # The later x_ce column used to win.
        path = str(tmp_path / "e.csv")
        header = "image_id,ellipse_id,x_ce,y_ce,a_e,b_e,theta_rad,x_ce"
        open(path, "w").write(header + "\ni,e,1,2,5,4,0.1,7\n")
        with pytest.raises(FileFormatError, match=r"repeated columns \['x_ce'\]"):
            load_ellipses(path)

    def test_covariance_columns_may_be_absent_from_header(self, tmp_path):
        path = str(tmp_path / "e.csv")
        header = "image_id,ellipse_id,x_ce,y_ce,a_e,b_e,theta_rad,cov_aa"
        open(path, "w").write(header + "\ni,e,1,2,5,4,0.1,\ni,f,1,2,5,4,0.1,0.5\n")
        with pytest.raises(FileFormatError, match=r"e\.csv:3: partial covariance"):
            load_ellipses(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_covariance_named(self, tmp_path, value):
        # A nan or inf entry used to be reported as a matrix that is not PSD.
        path = str(tmp_path / "e.csv")
        save_ellipses([EllipseObservation("i", "e", 1.0, 2.0, 3.0, 2.0, 0.0,
                                          cov=np.eye(4))], path)
        header, row = open(path).read().splitlines()
        cells = row.split(",")
        cells[header.split(",").index("cov_xy")] = value
        open(path, "w").write(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(FileFormatError, match=r"e\.csv:2: ellipse cov must be finite"):
            load_ellipses(path)

    @pytest.mark.parametrize("diagonal, valid", [(["1e308", "1e308", "-3e299"], False),
                                                 (["1e308", "1e308", "1e-300"], True)])
    def test_huge_diagonal_covariance(self, tmp_path, diagonal, valid):
        # The trace of the first overflowed to inf, which accepted the row.
        path = str(tmp_path / "e.csv")
        save_ellipses([EllipseObservation("i", "e", 1.0, 2.0, 3.0, 2.0, 0.0,
                                          cov=np.eye(4))], path)
        header, row = open(path).read().splitlines()
        cells = row.split(",")
        for column, value in zip(["cov_aa", "cov_bb", "cov_xx"], diagonal):
            cells[header.split(",").index(column)] = value
        open(path, "w").write(header + "\n" + ",".join(cells) + "\n")
        if valid:
            assert load_ellipses(path)[0].cov[0, 0] == 1e308
        else:
            with pytest.raises(FileFormatError, match=r"e\.csv:2: .*positive semi-definite"):
                load_ellipses(path)

    def test_center_beyond_pixel_limit_rejected(self, tmp_path):
        path = str(tmp_path / "e.csv")
        header = "image_id,ellipse_id,x_ce,y_ce,a_e,b_e,theta_rad"
        open(path, "w").write(header + "\ni,e,0,0,5,4,0\ni,f,1e308,0,5,4,0\n")
        with pytest.raises(FileFormatError, match=r"e\.csv:3: .*2\^200 px"):
            load_ellipses(path)

    def test_oversized_field_rejected(self, tmp_path):
        # csv.Error used to escape the reader.
        path = str(tmp_path / "e.csv")
        header = "image_id,ellipse_id,x_ce,y_ce,a_e,b_e,theta_rad"
        open(path, "w").write(header + "\ni,e,1,2,5,4," + "1" * 200_000 + "\n")
        for read in (load_ellipses, reference_load_ellipses):
            with pytest.raises(FileFormatError, match=r"e\.csv:2: field larger"):
                read(path)

    def test_axis_order_validated_per_row(self, tmp_path):
        path = str(tmp_path / "e.csv")
        header = "image_id,ellipse_id,x_ce,y_ce,a_e,b_e,theta_rad"
        open(path, "w").write(header + "\ni,e,0,0,1.0,2.0,0.0\n")
        with pytest.raises(FileFormatError, match="semi-major"):
            load_ellipses(path)

    @pytest.mark.parametrize("row, cell, newline", [
        (2, 0, "\n"), (1, 1, "\n"), (3, 6, "\r\n"), (3, 16, "\n"), (2, 0, "\r")],
        ids=["image-id", "ellipse-id", "theta-crlf", "blank-cov-yy", "image-id-cr"])
    def test_unclosed_quote_names_its_line(self, tmp_path, row, cell, newline):
        # csv reads an unclosed quote to the end of the file as one field;
        # the malformed row it ends used to be reported on the file's last
        # line, for example as "1 fields, the header has 17".
        path = str(tmp_path / "e.csv")
        save_ellipses([EllipseObservation("i", f"e{k}", 1.0, 2.0, 3.0, 2.0, 0.0)
                       for k in range(5)], path)
        lines = open(path).read().splitlines()
        cells = lines[row].split(",")
        cells[cell] = '"' + cells[cell]
        lines[row] = ",".join(cells)
        open(path, "w", newline="").write(newline.join(lines) + newline)
        for read in (load_ellipses, read_ellipse_table):
            with pytest.raises(FileFormatError,
                               match=rf"^.*e\.csv:{row + 1}: quoted field is not closed$"):
                read(path)

    @pytest.mark.parametrize("line, closed", [(3, None), (100, None), (1500, None), (3, 1500)])
    def test_unclosed_quote_in_a_large_file_names_its_line(self, tmp_path, line, closed):
        # In a file larger than csv's field limit, the quoted field grows past
        # the limit before the file ends; that used to be reported as "field
        # larger than field limit" hundreds of lines after the quote.  A quote
        # that a later line closes still passes the limit, and says so.
        config = SceneConfig(placement="ring", n_cameras=60, clutter_per_image=30, seed=1)
        noisy = perturb_observations(generate_scene(config), 0.5, config.seed)
        path = str(tmp_path / "e.csv")
        save_ellipses([e for image_id in sorted(noisy.observations)
                       for e in noisy.observations[image_id]], path)
        lines = open(path).read().splitlines()
        assert len(lines) == 2341
        lines[line - 1] = '"' + lines[line - 1]
        if closed:
            lines[closed - 1] += '"'
        open(path, "w").write("\n".join(lines) + "\n")
        message = (rf"{line}: quoted field is not closed" if closed is None
                   else r"\d+: field larger than field limit \(131072\)")
        for read in (load_ellipses, read_ellipse_table, reference_load_ellipses):
            with pytest.raises(FileFormatError, match=rf"^.*e\.csv:{message}$"):
                read(path)

    def test_a_flagged_file_is_decided_by_the_row_reader(self, tmp_path, monkeypatch):
        # A file the column pass flags is read again row by row, and the
        # table is built from what that reader returns; on a valid file it
        # equals the column pass's own table.
        config = SceneConfig(seed=0)
        noisy = perturb_observations(generate_scene(config), config.sigma_px, config.seed)
        path = str(tmp_path / "ellipses.csv")
        save_ellipses([e for image_id in sorted(noisy.observations)
                       for e in noisy.observations[image_id]], path)
        want = read_ellipse_table(path)
        rows_read = []
        monkeypatch.setattr(fileio, "_valid_rows",
                            lambda base, block, blank: np.zeros(len(base), dtype=bool))
        monkeypatch.setattr(fileio, "load_ellipses",
                            lambda path: rows_read.append(path) or load_ellipses(path))
        got = read_ellipse_table(path)
        assert rows_read == [path]
        assert got.keys == want.keys
        for got_column, want_column in zip(got[1:], want[1:]):
            assert ((got_column.shape, got_column.dtype, got_column.tobytes())
                    == (want_column.shape, want_column.dtype, want_column.tobytes()))


def test_gate_report_text_of_a_survey_is_indented_sorted_json():
    # A filter-survey-sized report with every float the writer spells
    # specially, scattered over both float columns.
    rng = np.random.default_rng(5)
    n = 2340
    keys = [(f"img-{i % 60:02d}", ["ball-", "clutter \u00e9\"", "a\\b"][i % 3] + str(i))
            for i in range(n)]
    tau, sigma_tau = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-300, 300, size=(2, n))
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]
    for column in (tau, sigma_tau):
        rows = rng.choice(n, size=10 * len(specials), replace=False)
        column[rows] = np.repeat(specials, 10)
    accepted = rng.random(n) < 0.3
    payload = {"ellipses": [{"image_id": image_id, "ellipse_id": ellipse_id,
                             "tau": t, "sigma_tau": s, "k": 2.0, "accepted": a}
                            for (image_id, ellipse_id), t, s, a
                            in zip(keys, tau.tolist(), sigma_tau.tolist(), accepted.tolist())]}
    assert (gate_report_text(keys, tau, sigma_tau, 2.0, accepted)
            == json.dumps(payload, indent=2, sort_keys=True) + "\n")


class TestSphereFile:
    def entry(self):
        model = SphereModel(
            sphere=Sphere([0.1, -0.2, 0.3], 0.08),
            per_view_radii=[("img-0", 0.0799), ("img-1", 0.0801)],
            radius_spread=0.0001,
            triangulation_residual=0.02,
            scale_applied=None)
        return SphereEntry(sphere_id="s000", model=model,
                           ellipses=[("img-0", "ball-0"), ("img-1", "ball-0")],
                           gate_reports=[{"image_id": image_id, "ellipse_id": "ball-0",
                                          "tau": 0.001, "sigma_tau": 0.002, "k": 2.0,
                                          "accepted": True}
                                         for image_id in ("img-0", "img-1")])

    def test_lossless_round_trip(self, tmp_path):
        path = str(tmp_path / "s.json")
        entry = self.entry()
        save_spheres([entry], path)
        loaded = load_spheres(path)
        assert len(loaded) == 1
        back = loaded[0]
        assert back.sphere_id == entry.sphere_id
        assert np.array_equal(back.model.sphere.center, entry.model.sphere.center)
        assert back.model.sphere.radius == entry.model.sphere.radius
        assert back.model.per_view_radii == entry.model.per_view_radii
        assert back.model.radius_spread == entry.model.radius_spread
        assert back.model.triangulation_residual == entry.model.triangulation_residual
        assert back.model.scale_applied == entry.model.scale_applied
        assert back.ellipses == entry.ellipses
        assert back.gate_reports == entry.gate_reports
        # serialize -> parse -> serialize is byte-stable
        path2 = str(tmp_path / "s2.json")
        save_spheres(loaded, path2)
        assert open(path).read() == open(path2).read()

    def test_gate_rows_are_typed_on_load(self, tmp_path):
        # Held rows are the rows written back, so load_spheres types them.
        path = str(tmp_path / "s.json")
        save_spheres([self.entry()], path)
        data = json.load(open(path))
        data["spheres"][0]["gate_reports"][0].update(
            image_id=7, ellipse_id=8, tau=1, sigma_tau=0, k=2, accepted=1)
        open(path, "w").write(json.dumps(data))
        [back] = load_spheres(path)
        assert back.gate_reports[0] == {"image_id": "7", "ellipse_id": "8", "tau": 1.0,
                                        "sigma_tau": 0.0, "k": 2.0, "accepted": True}
        assert [type(value) for value in back.gate_reports[0].values()] == \
            [str, str, float, float, float, bool]
        save_spheres([back], path)
        assert '"tau": 1.0' in open(path).read() and '"accepted": true' in open(path).read()

    def test_bad_gate_row(self, tmp_path):
        path = str(tmp_path / "s.json")
        save_spheres([self.entry()], path)
        data = json.load(open(path))
        del data["spheres"][0]["gate_reports"][1]["tau"]
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError, match="sphere entry"):
            load_spheres(path)

    def test_bad_entry(self, tmp_path):
        path = str(tmp_path / "s.json")
        open(path, "w").write(json.dumps({"spheres": [{"sphere_id": "x"}]}))
        with pytest.raises(FileFormatError, match="sphere entry"):
            load_spheres(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        # float() of such an integer raised OverflowError, which escaped.
        path = str(tmp_path / "s.json")
        save_spheres([self.entry()], path)
        data = json.load(open(path))
        data["spheres"][0]["radius"] = 10 ** 400
        open(path, "w").write(json.dumps(data))
        with pytest.raises(FileFormatError, match="sphere entry"):
            load_spheres(path)

    @pytest.mark.parametrize("value", [None, 5, [None]])
    def test_non_list_spheres_rejected(self, tmp_path, value):
        path = str(tmp_path / "s.json")
        open(path, "w").write(json.dumps({"spheres": value}))
        with pytest.raises(FileFormatError, match="spheres"):
            load_spheres(path)


PLY_TEXT = """ply
format ascii 1.0
comment generated for tests
element vertex 3
property float x
property float y
property float z
property uchar red
end_header
1.0 2.0 3.0 255
-1.5 0.25 4.0 128
0.0 0.0 1.0 0
"""


class TestPly:
    def test_round_trip_and_scaling(self, tmp_path):
        path = str(tmp_path / "in.ply")
        open(path, "w").write(PLY_TEXT)
        cloud = load_ply(path)
        assert [name for _, name in cloud.properties] == ["x", "y", "z", "red"]
        scaled = scale_ply(cloud, 2.0, "c.ply")
        out = str(tmp_path / "out.ply")
        save_ply(scaled, out)
        back = load_ply(out)
        assert back.rows[0][:3] == ["2.0", "4.0", "6.0"]
        assert [r[3] for r in back.rows] == ["255", "128", "0"]  # passthrough
        assert back.comments == ["generated for tests"]

    def test_scale_then_inverse_restores_values(self, tmp_path):
        path = str(tmp_path / "in.ply")
        open(path, "w").write(PLY_TEXT)
        cloud = load_ply(path)
        back = scale_ply(scale_ply(cloud, 3.0, "c.ply"), 1.0 / 3.0, "c.ply")
        for row, orig in zip(back.rows, cloud.rows):
            for i in range(3):
                assert math.isclose(float(row[i]), float(orig[i]), abs_tol=1e-12)

    def test_rejects_binary_and_faces(self, tmp_path):
        path = str(tmp_path / "bad.ply")
        open(path, "w").write("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(FileFormatError, match="ascii"):
            load_ply(path)
        open(path, "w").write("ply\nformat ascii 1.0\nelement face 1\nend_header\n")
        with pytest.raises(FileFormatError, match="vertex"):
            load_ply(path)

    def test_rejects_vertex_count_mismatch(self, tmp_path):
        path = str(tmp_path / "bad.ply")
        open(path, "w").write("ply\nformat ascii 1.0\nelement vertex 2\n"
                              "property float x\nproperty float y\nproperty float z\n"
                              "end_header\n1 2 3\n")
        with pytest.raises(FileFormatError, match="vertices"):
            load_ply(path)

    @pytest.mark.parametrize("line", ["element vertex", "element vertex many", "element",
                                      "property float", "property"])
    def test_rejects_malformed_header_line(self, tmp_path, line):
        # Short lines used to raise IndexError, a non-integer count ValueError.
        lines = PLY_TEXT.splitlines()
        bad_index = 3 if line.startswith("element") else 4
        lines[bad_index] = line
        path = str(tmp_path / "bad.ply")
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="bad.ply"):
            load_ply(path)

    def test_non_ascii_comment_round_trips_under_an_ascii_locale(self, tmp_path):
        # save_ply writes UTF-8, so load_ply reads UTF-8 whatever the locale.
        source = tmp_path / "in.ply"
        source.write_bytes(PLY_TEXT.replace("generated for tests", "café").encode("utf-8"))
        src = str(pathlib.Path(spherefit.__file__).resolve().parent.parent)
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys; from spherefit.fileio import load_ply, save_ply; "
                "save_ply(load_ply(sys.argv[1]), sys.argv[2]); load_ply(sys.argv[2])")
        result = subprocess.run(
            [sys.executable, "-c", code, str(source), str(tmp_path / "out.ply")],
            env=env, capture_output=True)
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        assert (tmp_path / "out.ply").read_bytes() == source.read_bytes()

    def test_integer_coordinates_promoted_to_double(self, tmp_path):
        path = str(tmp_path / "int.ply")
        open(path, "w").write("ply\nformat ascii 1.0\nelement vertex 2\n"
                              "property int x\nproperty short y\nproperty float z\n"
                              "property int label\nproperty uchar red\nend_header\n"
                              "1 2 3.5 7 255\n-4 0 1 8 0\n")
        out = str(tmp_path / "out.ply")
        save_ply(scale_ply(load_ply(path), 1.5, path), out)
        back = load_ply(out)
        assert back.properties == [("double", "x"), ("double", "y"), ("float", "z"),
                                   ("int", "label"), ("uchar", "red")]
        assert back.rows[0] == ["1.5", "3.0", "5.25", "7", "255"]

    def test_missing_xyz(self):
        cloud = PlyCloud(properties=[("float", "x"), ("float", "y")],
                         rows=[["1", "2"]], comments=[])
        with pytest.raises(FileFormatError, match="x/y/z"):
            scale_ply(cloud, 2.0, "c.ply")

    def test_coordinate_that_is_not_a_number_names_file_row_and_column(self):
        cloud = PlyCloud(properties=[("float", "x"), ("float", "y"), ("float", "z")],
                         rows=[["1", "2", "3"], ["4", "1e2x", "6"]], comments=[])
        with pytest.raises(FileFormatError) as raised:
            scale_ply(cloud, 2.0, "cloud.ply")
        assert str(raised.value) == "cloud.ply: vertex row 1: y is not a number: '1e2x'"


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path, network):
        path = str(tmp_path / "net.json")
        save_network(network, path)
        save_network(network, path)  # overwrite
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []
