import codecs
import collections
import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from bad_inputs import ROWS, check, write
from oracles import record_of
from spherefit import (
    EllipseObservation,
    SceneConfig,
    best_pair,
    classify_spherical,
    classify_view,
    gate_views,
    generate_scene,
    match_ellipses,
    perturb_observations,
    reconstruct_sphere,
)
from spherefit import cli, pipeline
from spherefit.cli import main
from spherefit.fileio import (
    load_ellipses,
    load_network,
    load_ply,
    load_spheres,
    save_ellipses,
    save_network,
)


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "spherefit.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A small noisy scene exported to files once for the whole module."""
    root = tmp_path_factory.mktemp("export")
    config = SceneConfig(n_cameras=8, clutter_per_image=2, sigma_px=0.3, seed=5)
    scene = generate_scene(config)
    noisy = perturb_observations(scene, config.sigma_px, config.seed)
    save_network(noisy.network, str(root / "cameras.json"))
    observations = [e for vid in sorted(noisy.observations)
                    for e in noisy.observations[vid]]
    save_ellipses(observations, str(root / "ellipses.csv"))
    return root, scene, noisy


@pytest.fixture(scope="module")
def cli_export(tmp_path_factory):
    """The base files of the rows of tests/bad_inputs.py, built in-process as
    CI builds them with the installed script: ``simulate --k 2
    --export-scene`` and the sphere file of ``reconstruct --pair auto``."""
    root = tmp_path_factory.mktemp("cli-export")
    assert main(["simulate", "--k", "2", "--export-scene", str(root),
                 "--out", str(root / "sweep.csv")]) == 0
    assert main(["reconstruct", "--cameras", str(root / "cameras.json"),
                 "--ellipses", str(root / "ellipses.csv"), "--pair", "auto",
                 "--out", str(root / "spheres.json")]) == 0
    return root


@pytest.fixture
def check_rows(cli_export, tmp_path, monkeypatch, capsys):
    """Run rows of tests/bad_inputs.py in-process through ``cli.main``, each
    on its own copy of ``cli_export``; returns the failures of the failing
    rows by name."""
    def run(argv, directory):
        monkeypatch.chdir(directory)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        return code, capsys.readouterr().err

    def check_all(rows):
        failures = {row.name: check(row, cli_export, tmp_path / row.name, run) for row in rows}
        return {name: found for name, found in failures.items() if found}
    return check_all


class TestFilter:
    def test_keeps_true_silhouettes_and_drops_clutter(self, exported):
        root, scene, noisy = exported
        out = str(root / "gated.csv")
        report = str(root / "report.json")
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--out", out, "--report", report)
        assert result.returncode == 0
        kept = load_ellipses(out)
        kept_ids = {(e.image_id, e.ellipse_id) for e in kept}
        clutter_kept = [e for e in kept if e.ellipse_id in scene.clutter_ids]
        assert len(clutter_kept) / max(len(scene.clutter_ids), 1) < 0.05
        payload = json.load(open(report))
        assert len(payload["ellipses"]) == 8 * 11
        for item in payload["ellipses"]:
            assert ((item["image_id"], item["ellipse_id"]) in kept_ids) == item["accepted"]

    def test_exact_silhouettes_all_retained(self, tmp_path):
        scene = generate_scene(SceneConfig(n_cameras=4, n_tie_points=8))
        save_network(scene.network, str(tmp_path / "cameras.json"))
        obs = [e for vid in sorted(scene.observations)
               for e in scene.observations[vid]]
        save_ellipses(obs, str(tmp_path / "ellipses.csv"))
        out = str(tmp_path / "gated.csv")
        result = run_cli("filter", "--cameras", str(tmp_path / "cameras.json"),
                         "--ellipses", str(tmp_path / "ellipses.csv"), "--out", out)
        assert result.returncode == 0
        assert len(load_ellipses(out)) == len(obs)

    def test_empty_ellipse_file(self, exported, tmp_path):
        root, _, _ = exported
        empty = str(tmp_path / "empty.csv")
        save_ellipses([], empty)
        out = str(tmp_path / "out.csv")
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", empty, "--out", out)
        assert result.returncode == 0
        assert load_ellipses(out) == []

    def test_world_coordinates_at_the_limit(self, exported, tmp_path, capsys):
        # A camera t and tie points at 2^300 in every coordinate load, and
        # pair ranking, matching and reconstruction stay free of overflow.
        root, _, _ = exported
        data = json.load(open(root / "cameras.json"))
        limit = 2.0 ** 300
        data["views"][1]["t"] = [limit, -limit, limit]
        data["tie_points"][0]["xyz"] = [-limit, limit, -limit]
        data["tie_points"][1]["xyz"] = [limit, limit, limit]
        cameras = tmp_path / "limit.json"
        cameras.write_text(json.dumps(data))
        for command, pair in (("filter", None), ("select-pair", None), ("match", "auto"),
                              ("reconstruct", "auto"), ("reconstruct", "img-01,img-04")):
            argv = [command, "--cameras", str(cameras), "--out", str(tmp_path / "o.out")]
            if command != "select-pair":
                argv += ["--ellipses", str(root / "ellipses.csv")]
            assert main(argv + (["--pair", pair] if pair else [])) == 0, command

    def test_unknown_image_names_the_file_and_line_of_its_row(self, exported, tmp_path,
                                                               capsys):
        # A row of an image the camera file lacks is named by the ellipse
        # file and the line its row ends on, as the reader names a bad row:
        # here a quoted id spreads the row over lines 3 and 4.
        root, _, _ = exported
        lines = (root / "ellipses.csv").read_text().splitlines()
        rogue = ",".join(["img-99", '"two\nlines"', *lines[1].split(",")[2:]])
        path = tmp_path / "rogue.csv"
        path.write_text("\n".join([lines[0], lines[1], rogue, *lines[2:]]) + "\n")
        want = f"{path}:4: ellipse 'two\\nlines' references unknown image 'img-99'"
        for command, *rest in (("filter",), ("reconstruct", "--pair", "auto")):
            assert main([command, "--cameras", str(root / "cameras.json"), "--ellipses",
                         str(path), "--out", str(tmp_path / "o.out"), *rest]) == 2
            assert want in capsys.readouterr().err
            assert not (tmp_path / "o.out").exists()


class TestSelectPair:
    def test_two_view_network(self, tmp_path):
        scene = generate_scene(SceneConfig(n_cameras=2, arc_span_deg=40.0,
                                           n_tie_points=12))
        save_network(scene.network, str(tmp_path / "cameras.json"))
        result = run_cli("select-pair", "--cameras", str(tmp_path / "cameras.json"))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert {payload["i"], payload["j"]} == {"img-00", "img-01"}

    def test_matches_library_on_lab_scene(self, exported):
        root, scene, _ = exported
        result = run_cli("select-pair", "--cameras", str(root / "cameras.json"))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        score = best_pair(scene.network)
        assert (payload["i"], payload["j"]) == (score.i, score.j)
        assert math.isclose(payload["score"], score.theta_ij, rel_tol=1e-12)

class TestReconstruct:
    def test_recovers_all_spheres(self, exported, tmp_path):
        root, scene, _ = exported
        out = str(tmp_path / "spheres.json")
        result = run_cli("reconstruct", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"), "--out", out)
        assert result.returncode == 0
        entries = load_spheres(out)
        assert len(entries) == 9
        truth = dict(scene.spheres)
        for entry in entries:
            sid = entry.ellipses[0][1]
            err = np.linalg.norm(entry.model.sphere.center - truth[sid].center)
            assert 100.0 * err / truth[sid].radius < 1.0  # noisy but sane
            assert {i for i, _ in entry.ellipses} == \
                   {i for i, _ in entry.model.per_view_radii}

    def test_exact_scene_sub_percent(self, tmp_path):
        scene = generate_scene(SceneConfig(n_cameras=6, n_tie_points=12))
        save_network(scene.network, str(tmp_path / "cameras.json"))
        obs = [e for vid in sorted(scene.observations)
               for e in scene.observations[vid]]
        save_ellipses(obs, str(tmp_path / "ellipses.csv"))
        out = str(tmp_path / "spheres.json")
        result = run_cli("reconstruct", "--cameras", str(tmp_path / "cameras.json"),
                         "--ellipses", str(tmp_path / "ellipses.csv"), "--out", out)
        assert result.returncode == 0
        truth = dict(scene.spheres)
        for entry in load_spheres(out):
            sid = entry.ellipses[0][1]
            err = np.linalg.norm(entry.model.sphere.center - truth[sid].center)
            assert 100.0 * err / truth[sid].radius < 0.1
            assert abs(entry.model.sphere.radius - truth[sid].radius) \
                / truth[sid].radius < 1e-3

    def test_explicit_pair_below_floor_warns_but_proceeds(self, exported, tmp_path):
        root, _, _ = exported
        out = str(tmp_path / "spheres.json")
        result = run_cli("reconstruct", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--pair", "img-00,img-01", "--out", out)
        assert result.returncode == 0
        assert "below" in result.stderr and "proceeding" in result.stderr

    @pytest.mark.parametrize("pair, unseen, warning", [
        ("img-01,img-04", "img-04", r"explicit pair \(img-01,img-04\) shares no tie points"),
        ("img-00,img-01", None, r"explicit pair \(img-00,img-01\) converges at only \d+\.\d "
                                r"deg, below the 20\.0 deg floor; proceeding")],
        ids=["no shared tie point", "below the floor"])
    def test_explicit_pair_warns_once_and_matches(self, cli_export, tmp_path, capsys, pair,
                                                  unseen, warning):
        # An explicit pair that shares no tie point (none is seen in
        # ``unseen``), or converges below the angle floor, is matched after
        # one warning line.
        data = json.load(open(cli_export / "cameras.json"))
        for point in data["tie_points"]:
            point["visible_in"] = [i for i in point["visible_in"] if i != unseen]
        data["tie_points"] = [p for p in data["tie_points"] if len(p["visible_in"]) >= 2]
        (tmp_path / "cameras.json").write_text(json.dumps(data))
        out = tmp_path / "match.json"
        assert main(["match", "--cameras", str(tmp_path / "cameras.json"),
                     "--ellipses", str(cli_export / "ellipses.csv"),
                     "--pair", pair, "--out", str(out)]) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch("warning: " + warning, line)
        assert json.load(open(out))["matches"]

    def test_untied_pair_ranking_needs_two_gated_ellipses(self, cli_export, tmp_path, capsys):
        # Without tie points, pair ranking triangulates an anchor from the
        # gated ellipse centers; an ellipse file with no row has none.
        data = json.load(open(cli_export / "cameras.json"))
        del data["tie_points"]
        (tmp_path / "cameras.json").write_text(json.dumps(data))
        header = (cli_export / "ellipses.csv").read_text().splitlines()[0]
        (tmp_path / "ellipses.csv").write_text(header + "\n")
        for command, stage in (("match", ""), ("reconstruct", "[select-pair] ")):
            assert main([command, "--cameras", str(tmp_path / "cameras.json"),
                         "--ellipses", str(tmp_path / "ellipses.csv"),
                         "--out", str(tmp_path / "o.json")]) == 3
            warning, error = capsys.readouterr().err.splitlines()
            assert warning.startswith("warning: camera file has no tie_points")
            assert error == f"error: {stage}not enough gated ellipses to anchor pair ranking"
            assert not (tmp_path / "o.json").exists()

    def test_stage_equivalence_with_library(self, exported, tmp_path):
        root, scene, noisy = exported
        out = str(tmp_path / "spheres.json")
        result = run_cli("reconstruct", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"), "--out", out)
        assert result.returncode == 0
        entries = load_spheres(out)

        network = load_network(str(root / "cameras.json"))
        ellipses = load_ellipses(str(root / "ellipses.csv"))
        score = best_pair(network)
        view_l, view_k = network.view(score.i), network.view(score.j)
        gated = {score.i: [], score.j: []}
        for e in ellipses:
            if e.image_id not in gated:
                continue
            view = network.view(e.image_id)
            if classify_spherical(e, view.f, view.px, view.py,
                                  iop_cov=view.iop_cov, k=2.0).accepted:
                gated[e.image_id].append(e)
        matches = match_ellipses(record_of(view_l, gated[score.i]),
                                 record_of(view_k, gated[score.j]))
        by_id = {(e.image_id, e.ellipse_id): e for e in ellipses}
        expected = {}
        for m in matches.matches:
            model = reconstruct_sphere([(view_l, by_id[(score.i, m.ellipse_l)]),
                                        (view_k, by_id[(score.j, m.ellipse_k)])])
            expected[(m.ellipse_l, m.ellipse_k)] = (model.sphere.center, model.sphere.radius)
        assert len(entries) == len(expected)
        for entry in entries:
            key = (entry.ellipses[0][1], entry.ellipses[1][1])
            center, radius = expected[key]
            assert np.array_equal(entry.model.sphere.center, center)
            assert entry.model.sphere.radius == radius


@pytest.mark.parametrize("tie_points", [True, False])
def test_file_commands_build_no_ellipse_observation(exported, tmp_path, monkeypatch, capsys,
                                                    tie_points):
    # filter, match and reconstruct gate, match and reconstruct the rows of
    # the file's ellipse table; objects are built only behind load_ellipses.
    root, _, _ = exported
    cameras = root / "cameras.json"
    if not tie_points:  # the fallback pair ranking gates every view
        data = json.load(open(cameras))
        del data["tie_points"]
        cameras = tmp_path / "cameras.json"
        cameras.write_text(json.dumps(data))

    def refuse(*args, **kwargs):
        raise AssertionError("an EllipseObservation was built")

    monkeypatch.setattr(EllipseObservation, "__init__", refuse)
    monkeypatch.setattr(EllipseObservation, "_trusted", refuse)
    with pytest.raises(AssertionError):
        load_ellipses(str(root / "ellipses.csv"))
    common = ["--cameras", str(cameras), "--ellipses", str(root / "ellipses.csv")]
    assert main(["filter", *common, "--out", str(tmp_path / "kept.csv"),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert main(["match", *common, "--out", str(tmp_path / "match.json")]) == 0
    assert main(["reconstruct", *common, "--out", str(tmp_path / "spheres.json")]) == 0
    assert json.load(open(tmp_path / "spheres.json"))["spheres"]


@pytest.mark.parametrize("tie_points", [True, False])
def test_reconstruct_gates_each_needed_row_once(exported, tmp_path, monkeypatch, capsys,
                                                tie_points):
    # For match and reconstruct, with --pair auto and an explicit pair, one
    # gate call covers every row of the file, in file order, and the chosen
    # pair's records come from those gate arrays.
    root, _, _ = exported
    cameras = root / "cameras.json"
    if not tie_points:
        data = json.load(open(cameras))
        del data["tie_points"]
        cameras = tmp_path / "cameras.json"
        cameras.write_text(json.dumps(data))
    keys = [(e.image_id, e.ellipse_id) for e in load_ellipses(str(root / "ellipses.csv"))]
    gated, classified = [], []
    monkeypatch.setattr(cli, "gate_views",
                        lambda views, table, *args: gated.append(list(table.keys))
                        or gate_views(views, table, *args))
    monkeypatch.setattr(pipeline, "classify_view",
                        lambda params, *args, **kwargs: classified.append(len(params))
                        or classify_view(params, *args, **kwargs))
    for command in ("match", "reconstruct"):
        for pair in ("auto", "img-01,img-04"):
            gated.clear()
            classified.clear()
            assert main([command, "--cameras", str(cameras),
                         "--ellipses", str(root / "ellipses.csv"), "--pair", pair,
                         "--out", str(tmp_path / "out.json")]) == 0
            capsys.readouterr()
            assert gated == [keys], (command, pair)
            assert classified == [len(keys)], (command, pair)


def test_reconstruct_gate_rows_equal_the_filter_report(cli_export, tmp_path, capsys):
    # Each gate row a sphere file holds is, by value, the filter report's row
    # of the same ellipse under the same gate flags.
    flags = ["--cameras", str(cli_export / "cameras.json"),
             "--ellipses", str(cli_export / "ellipses.csv"),
             "--k-sigma", "2.5", "--default-sigma-px", "0.7"]
    report, spheres = tmp_path / "report.json", tmp_path / "spheres.json"
    assert main(["filter", *flags, "--out", str(tmp_path / "kept.csv"),
                 "--report", str(report)]) == 0
    assert main(["reconstruct", *flags, "--out", str(spheres)]) == 0
    filtered = {(row["image_id"], row["ellipse_id"]): row
                for row in json.load(open(report))["ellipses"]}
    entries = json.load(open(spheres))["spheres"]
    assert len(entries) >= 8
    for entry in entries:
        assert [(row["image_id"], row["ellipse_id"]) for row in entry["gate_reports"]] == \
            [(row["image_id"], row["ellipse_id"]) for row in entry["ellipses"]]
        for row in entry["gate_reports"]:
            assert row == filtered[row["image_id"], row["ellipse_id"]]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_written_files_get_the_mode_of_the_umask(exported, tmp_path, capsys, umask, mode):
    # Each file gets the mode the umask gives a new file, not a temp file's 0600.
    root, _, _ = exported
    kept, report = tmp_path / "kept.csv", tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        assert main(["filter", "--cameras", str(root / "cameras.json"),
                     "--ellipses", str(root / "ellipses.csv"),
                     "--out", str(kept), "--report", str(report)]) == 0
    finally:
        os.umask(previous)
    assert [stat.S_IMODE(os.stat(path).st_mode) for path in (kept, report)] == [mode, mode]


def test_inputs_with_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark;
    # the CSV and JSON inputs read the same with it as without.
    config = tmp_path / "config.json"
    config.write_bytes(codecs.BOM_UTF8 + b'{"n_cameras": 8, "clutter_per_image": 2}')
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["simulate", "--config", str(config), "--k", "2", "--seed", "3",
                 "--export-scene", str(plain), "--out", str(tmp_path / "sim.csv")]) == 0
    marked.mkdir()
    for name in ("cameras.json", "ellipses.csv"):
        (marked / name).write_bytes(codecs.BOM_UTF8 + (plain / name).read_bytes())
    for root in (plain, marked):
        common = ["--cameras", str(root / "cameras.json"),
                  "--ellipses", str(root / "ellipses.csv")]
        assert main(["filter", *common, "--out", str(root / "kept.csv"),
                     "--report", str(root / "report.json")]) == 0
        assert main(["reconstruct", *common, "--out", str(root / "spheres.json")]) == 0
    spheres = json.load(open(plain / "spheres.json"))["spheres"]
    assert spheres
    sphere_id = spheres[0]["sphere_id"]
    cloud = b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n" \
            b"property float y\nproperty float z\nend_header\n1 2 3\n"
    (plain / "in.ply").write_bytes(cloud)
    (marked / "in.ply").write_bytes(codecs.BOM_UTF8 + cloud)
    for root in (plain, marked):
        assert main(["scale", "--spheres", str(root / "spheres.json"),
                     "--anchors", f"{sphere_id}:1.0", "--points", str(root / "in.ply"),
                     "--out-points", str(root / "scaled.ply"),
                     "--out", str(root / "scaled.json")]) == 0
    for name in ("kept.csv", "report.json", "spheres.json", "scaled.json", "scaled.ply"):
        assert (marked / name).read_bytes() == (plain / name).read_bytes()


def test_main_builds_the_parser_once(exported, tmp_path, monkeypatch, capsys):
    # Calls of main in one process share one parser; a rejected command line
    # in between changes neither the exit codes nor the outputs of the runs.
    root, _, _ = exported
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(original()) or built[-1])
    command = ["match", "--cameras", str(root / "cameras.json"),
               "--ellipses", str(root / "ellipses.csv")]
    outputs = []
    for run in range(2):
        out = tmp_path / f"match{run}.json"
        assert main([*command, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr(), out.read_bytes()))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--tol-px", "0"])
        assert exc.value.code == 2
        assert "--tol-px" in capsys.readouterr().err
    assert outputs[0] == outputs[1]
    assert len(built) == 4 and all(parser is built[0] for parser in built)


class TestScale:
    def test_two_anchor_scale_and_points(self, cli_export, tmp_path):
        spheres = str(cli_export / "spheres.json")
        entries = load_spheres(spheres)
        # pick two spheres; pretend their real radii are 2.5x the estimates
        a, b = entries[0], entries[1]
        anchors = f"{a.sphere_id}:{2.5 * a.model.sphere.radius}," \
                  f"{b.sphere_id}:{2.5 * b.model.sphere.radius}"
        ply = str(tmp_path / "in.ply")
        open(ply, "w").write("ply\nformat ascii 1.0\nelement vertex 2\n"
                             "property float x\nproperty float y\nproperty float z\n"
                             "property uchar red\nend_header\n"
                             "1.0 2.0 4.0 7\n-2.0 0.5 3.0 9\n")
        out = str(tmp_path / "scaled.json")
        out_ply = str(tmp_path / "scaled.ply")
        result = run_cli("scale", "--spheres", spheres, "--anchors", anchors,
                         "--points", ply, "--out-points", out_ply, "--out", out)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert math.isclose(payload["s_r"], 2.5, rel_tol=1e-9)
        assert payload["residual_rmse"] < 1e-12
        scaled = load_spheres(out)
        for before, after in zip(entries, scaled):
            assert math.isclose(after.model.sphere.radius,
                                2.5 * before.model.sphere.radius, rel_tol=1e-12)
            assert after.model.scale_applied == payload["s_r"]
        cloud = load_ply(out_ply)
        assert [r[3] for r in cloud.rows] == ["7", "9"]
        assert math.isclose(float(cloud.rows[0][0]), 2.5, rel_tol=1e-12)


class TestSimulate:
    def test_sweep_csv_and_export(self, tmp_path):
        config = {"n_cameras": 6, "sigma_px": 0.4, "seed": 11, "n_tie_points": 12}
        cfg_path = str(tmp_path / "cfg.json")
        open(cfg_path, "w").write(json.dumps(config))
        out = str(tmp_path / "stats.csv")
        export = str(tmp_path / "scene")
        result = run_cli("simulate", "--config", cfg_path, "--k", "2,4",
                         "--out", out, "--export-scene", export)
        assert result.returncode == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("k,p,center_prmse_mean")
        assert len(lines) == 4  # header + k=2 + k=4 + best_pair
        assert lines[-1].startswith("best_pair,1,")
        for name in ("cameras.json", "ellipses.csv", "truth.json"):
            assert os.path.exists(os.path.join(export, name))
        # exported files feed straight back into the pipeline
        rec = run_cli("reconstruct", "--cameras", os.path.join(export, "cameras.json"),
                      "--ellipses", os.path.join(export, "ellipses.csv"),
                      "--out", str(tmp_path / "s.json"))
        assert rec.returncode == 0

    def test_sigma_flag_equals_the_config_key(self, tmp_path):
        scene = {"n_cameras": 6, "n_tie_points": 12}
        out = {}
        for name, config, flags in (("flag", scene, ["--sigma", "0.3"]),
                                    ("config", {**scene, "sigma_px": 0.3}, []),
                                    ("default", scene, [])):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            assert main(["simulate", "--k", "2", "--config", str(tmp_path / f"{name}.json"),
                         *flags, "--out", str(tmp_path / f"{name}.csv")]) == 0
            out[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert out["flag"] == out["config"] != out["default"]

    def test_intermediate_files_round_trip(self, tmp_path):
        result = run_cli("simulate", "--k", "2", "--seed", "3", "--sigma", "0.2",
                         "--out", str(tmp_path / "s.csv"),
                         "--export-scene", str(tmp_path / "scene"))
        assert result.returncode == 0
        network = load_network(str(tmp_path / "scene" / "cameras.json"))
        assert len(network.views) == 30
        truth = json.load(open(str(tmp_path / "scene" / "truth.json")))
        assert len(truth["spheres"]) == 9


def _add_row_tests():
    """The exit-code tests of this module are the rows of tests/bad_inputs.py,
    each run in-process through cli.main as the test, and the case, that its
    ``test_id`` names."""
    cases = collections.defaultdict(dict)
    for row in ROWS:
        test, _, case = row.test_id.partition("[")
        cases[test].setdefault(case.rstrip("]"), []).append(row)
    for test, rows in cases.items():
        if list(rows) == [""]:
            def run(self, check_rows, rows=rows[""]):
                assert check_rows(rows) == {}
        else:
            @pytest.mark.parametrize("rows", list(rows.values()), ids=list(rows))
            def run(self, check_rows, rows):
                assert check_rows(rows) == {}
        class_name, run.__name__ = test.split("::")
        setattr(globals()[class_name], run.__name__, run)


_add_row_tests()


def test_row_names_are_unique():
    names = [row.name for row in ROWS]
    assert len(names) == len(set(names))


def test_the_runner_reports_each_wrong_row(check_rows):
    # A row that passes, made wrong three ways: each wrong row fails, and for
    # its own reason only.
    good = next(row for row in ROWS if row.name == "ellipse-a_e-nan")
    assert good.absent == ("o.csv",) and check_rows([good]) == {}
    wrong = [dataclasses.replace(good, name="wrong-code", code=3),
             dataclasses.replace(good, name="wrong-text", text="error: ellipses.csv:3: ellipse "
                                                               "a_e must be finite"),
             dataclasses.replace(good, name="longer-text", text="error: ellipses.csv:2: ellipse "
                                                                "a_e must be"),
             dataclasses.replace(good, name="left-behind",
                                 edits=(*good.edits, write("o.csv", "from an earlier run\n")))]
    message = "error: ellipses.csv:2: ellipse a_e must be finite"
    assert check_rows(wrong) == {
        "wrong-code": ["exit code 2, expected 3"],
        "wrong-text": [f"error message {message!r}, expected "
                       "'error: ellipses.csv:3: ellipse a_e must be finite'"],
        "longer-text": [f"error message {message!r}, expected "
                        "'error: ellipses.csv:2: ellipse a_e must be'"],
        "left-behind": ["left ['o.csv'] behind"]}


def test_the_runner_reports_more_than_one_error_line(cli_export, tmp_path):
    # Any other line on standard error fails a row, but argparse's usage text.
    good = next(row for row in ROWS if row.name == "ellipse-a_e-nan")
    message = "error: ellipses.csv:2: ellipse a_e must be finite"
    for n, (stderr, failures) in enumerate([
            (f"warning: the scale factor is 2\n{message}\n", 1), (f"{message}\nerror: again\n", 1),
            (f"Traceback (most recent call last):\n  ...\n{message}\n", 1),
            (f"usage: spherefit filter [-h]\n    [--k K]\nspherefit filter: {message}\n", 0)]):
        found = check(good, cli_export, tmp_path / str(n), lambda argv, d: (2, stderr))
        assert found == [f"standard error {stderr!r}, expected one error line"] * failures
