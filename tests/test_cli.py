import codecs
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

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

    def test_unknown_image_reference(self, exported, tmp_path, capsys):
        # A row of an image the camera file lacks fails the one gate call,
        # on every pair path, before a pair is chosen or a file written; with
        # a bad --pair too, the file's error is the one reported.
        root, _, noisy = exported
        rogue = noisy.observations["img-00"][0]
        rogue = type(rogue)("img-99", rogue.ellipse_id, rogue.x_ce, rogue.y_ce, rogue.a_e,
                            rogue.b_e, rogue.theta, cov=rogue.cov)
        bad = str(tmp_path / "bad.csv")
        save_ellipses([e for vid in sorted(noisy.observations)
                       for e in noisy.observations[vid]] + [rogue], bad)
        data = json.load(open(root / "cameras.json"))
        del data["tie_points"]
        untied = tmp_path / "untied.json"
        untied.write_text(json.dumps(data))
        out = tmp_path / "o.out"
        runs = [("filter", root / "cameras.json", None)]
        runs += [(command, cameras, pair) for command in ("match", "reconstruct")
                 for cameras, pair in ((root / "cameras.json", "auto"),
                                       (root / "cameras.json", "img-01,img-04"),
                                       (untied, "auto"), (untied, "img-01,img-01"))]
        for command, cameras, pair in runs:
            argv = [command, "--cameras", str(cameras), "--ellipses", bad, "--out", str(out)]
            assert main(argv + (["--pair", pair] if pair else [])) == 2, (command, pair)
            err = capsys.readouterr().err
            message = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(message) == 1 and "img-99" in message[0], (command, pair, err)
            if command == "reconstruct":
                assert message[0].startswith("error: [parse] "), err
            assert not out.exists()

    def test_non_finite_ellipse_row_exit_code(self, exported, tmp_path):
        root, _, _ = exported
        lines = open(root / "ellipses.csv").read().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("a_e")] = "nan"
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(bad), "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "nan.csv:2" in result.stderr and "finite" in result.stderr

    @pytest.mark.parametrize("column", ["x_ce", "a_e"])
    def test_huge_ellipse_row_exit_code(self, exported, tmp_path, column):
        # A center at 1e308 px used to exit 0 with -Infinity and NaN in the
        # report, which strict JSON readers reject.
        root, _, _ = exported
        lines = open(root / "ellipses.csv").read().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = "1e308"
        bad = tmp_path / "huge.csv"
        bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(bad), "--out", str(tmp_path / "o.csv"),
                         "--report", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert "huge.csv:2" in result.stderr and "2^200 px" in result.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field", ["px", "rot", "iop_cov"])
    def test_non_finite_camera_exit_code(self, exported, tmp_path, field):
        # A NaN in iop_cov used to read "iop_cov must be symmetric positive
        # semi-definite".
        root, _, _ = exported
        data = json.load(open(root / "cameras.json"))
        entry = data["views"][0]
        entry[field] = [math.nan] + [0.0] * 8 if field in ("rot", "iop_cov") else math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        result = run_cli("filter", "--cameras", str(bad),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert f"camera {field} must be finite" in result.stderr

    @pytest.mark.parametrize("field, message", [
        ("rot", "bad view entry (rot is not orthonormal (||R^T R - I|| = inf))"),
        ("f", "bad view entry (camera f must lie within 2^200 px, got 1e+300)"),
        ("px", "bad view entry (camera px must lie within 2^200 px, got 1e+300)"),
        ("py", "bad view entry (camera py must lie within 2^200 px, got -1e+300)"),
        ("t", "bad view entry (camera t must lie within 2^300 world units, got [1e+300, "),
        ("xyz", "bad tie point entry (tie point xyz must lie within 2^300 world units, "
                "got [1e+300, ")],
        ids=["rot", "f", "px", "py", "t", "tie-point"])
    def test_huge_camera_exit_code(self, exported, tmp_path, capsys, field, message):
        # A finite camera value near the float limit used to overflow the
        # rotation check (rot), the gate (f, px, py) or pair ranking (t, a
        # tie point's xyz); under the test suite's warning filter that ended
        # the command with exit 1.
        root, _, _ = exported
        data = json.load(open(root / "cameras.json"))
        entry = data["tie_points"][0] if field == "xyz" else data["views"][1]
        if field in ("t", "xyz"):
            entry[field][0] = 1e300
        else:
            entry[field] = ([x * 1e300 for x in entry["rot"]] if field == "rot"
                            else -1e300 if field == "py" else 1e300)
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(data))
        out = tmp_path / "o.out"
        for command, pair in (("filter", None), ("select-pair", None), ("match", "auto"),
                              ("reconstruct", "auto"), ("reconstruct", "img-01,img-04")):
            argv = [command, "--cameras", str(huge), "--out", str(out)]
            if command != "select-pair":
                argv += ["--ellipses", str(root / "ellipses.csv")]
            assert main(argv + (["--pair", pair] if pair else [])) == 2, command
            err = capsys.readouterr().err
            lines = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(lines) == 1 and message in lines[0], (command, err)
            assert not out.exists()

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

    def test_negative_covariance_row_exit_code(self, exported, tmp_path):
        root, _, _ = exported
        lines = open(root / "ellipses.csv").read().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("cov_yy")] = "-1"
        bad = tmp_path / "neg.csv"
        bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        out = tmp_path / "o.csv"
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(bad), "--out", str(out))
        assert result.returncode == 2
        assert "neg.csv:2" in result.stderr and "cov" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("mutation", ["extra field", "short row",
                                          "repeated column", "oversized field"])
    def test_malformed_ellipse_file_exit_code(self, exported, tmp_path, mutation):
        root, _, _ = exported
        lines = open(root / "ellipses.csv").read().splitlines()
        if mutation == "extra field":
            lines[1] += ",999"
        elif mutation == "short row":
            lines[1] = lines[1].rsplit(",", 1)[0]
        elif mutation == "repeated column":
            lines = [lines[0] + ",x_ce"] + [line + ",7" for line in lines[1:]]
        else:
            lines[1] = lines[1].replace(",", "," + "1" * 200_000, 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(bad), "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "bad.csv" in result.stderr and "Traceback" not in result.stderr

    def test_parse_failure_exit_code(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{")
        result = run_cli("filter", "--cameras", bad, "--ellipses", bad,
                         "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2


    @pytest.mark.parametrize("flag, value", [("--default-sigma-px", "-0.5"),
                                             ("--default-sigma-px", "nan"),
                                             ("--k-sigma", "inf"), ("--k-sigma", "-1")])
    def test_invalid_gate_flag_exit_code(self, exported, tmp_path, flag, value):
        # A negative sigma used to gate exactly like its absolute value, and
        # an infinite k to accept every ellipse, clutter included.
        root, _, _ = exported
        out = tmp_path / "o.csv"
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"),
                         flag, value, "--out", str(out))
        assert result.returncode == 2
        assert flag in result.stderr
        assert not out.exists()


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

    def test_low_angle_network_exits_nonzero(self, tmp_path):
        scene = generate_scene(SceneConfig(n_cameras=3, arc_span_deg=8.0,
                                           n_tie_points=12))
        save_network(scene.network, str(tmp_path / "cameras.json"))
        result = run_cli("select-pair", "--cameras", str(tmp_path / "cameras.json"))
        assert result.returncode == 4
        assert "deg" in result.stderr  # diagnostic includes the largest angle

    def test_non_finite_tie_point_exit_code(self, exported, tmp_path):
        root, _, _ = exported
        data = json.load(open(root / "cameras.json"))
        data["tie_points"][0]["xyz"][0] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        result = run_cli("select-pair", "--cameras", str(bad))
        assert result.returncode == 2
        assert "finite" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "-5"])
    def test_invalid_min_angle_exit_code(self, exported, value):
        # NaN used to switch the convergence floor off.
        root, _, _ = exported
        result = run_cli("select-pair", "--cameras", str(root / "cameras.json"),
                         "--min-angle-deg", value)
        assert result.returncode == 2
        assert "--min-angle-deg" in result.stderr

    @pytest.mark.parametrize("key", ["views", "tie_points"])
    def test_null_container_exit_code(self, exported, tmp_path, key):
        root, _, _ = exported
        data = json.load(open(root / "cameras.json"))
        data[key] = None
        bad = tmp_path / "null.json"
        bad.write_text(json.dumps(data))
        result = run_cli("select-pair", "--cameras", str(bad))
        assert result.returncode == 2
        assert key in result.stderr and "Traceback" not in result.stderr

    def test_missing_tie_points_is_a_validation_error(self, tmp_path):
        scene = generate_scene(SceneConfig(n_cameras=3, n_tie_points=0))
        save_network(scene.network, str(tmp_path / "cameras.json"))
        result = run_cli("select-pair", "--cameras", str(tmp_path / "cameras.json"))
        assert result.returncode == 2
        assert "tie_points" in result.stderr


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

    @pytest.mark.parametrize("command", ["filter", "reconstruct"])
    def test_repeated_ellipse_id_exit_code(self, exported, tmp_path, command):
        # Renaming ball-1 to ball-0 in two images used to reconstruct ball-1
        # under ball-0's id and drop ball-0, with exit code 0.
        root, _, noisy = exported
        rows = [dataclasses.replace(e, ellipse_id="ball-0")
                if e.image_id in ("img-02", "img-05") and e.ellipse_id == "ball-1" else e
                for vid in sorted(noisy.observations) for e in noisy.observations[vid]]
        renamed = tmp_path / "ellipses.csv"
        save_ellipses(rows, str(renamed))
        args = {"filter": ["--out", str(tmp_path / "kept.csv")],
                "reconstruct": ["--pair", "img-05,img-02", "--out", str(tmp_path / "s.json")]}
        result = run_cli(command, "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(renamed), *args[command])
        assert result.returncode == 2
        assert "ellipses.csv" in result.stderr and "ball-0" in result.stderr
        assert not (tmp_path / "s.json").exists() and not (tmp_path / "kept.csv").exists()

    def test_unknown_pair_member(self, exported, tmp_path):
        root, _, _ = exported
        result = run_cli("reconstruct", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--pair", "img-00,img-77",
                         "--out", str(tmp_path / "s.json"))
        assert result.returncode == 2

    def test_repeated_pair_member(self, exported, tmp_path):
        root, _, _ = exported
        result = run_cli("reconstruct", "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--pair", "img-03,img-03",
                         "--out", str(tmp_path / "s.json"))
        assert result.returncode == 2
        assert "img-03" in result.stderr

    @pytest.mark.parametrize("command", ["match", "reconstruct"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_invalid_tol_px_exit_code(self, exported, tmp_path, command, value):
        # These values used to match nothing and exit 0 with zero spheres.
        root, _, _ = exported
        out = tmp_path / "out.json"
        result = run_cli(command, "--cameras", str(root / "cameras.json"),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--tol-px", value, "--out", str(out))
        assert result.returncode == 2
        assert "--tol-px" in result.stderr
        assert not out.exists()

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


def test_reconstruct_gate_rows_equal_the_filter_report(tmp_path, capsys):
    # Each gate row a sphere file holds is, by value, the filter report's row
    # of the same ellipse under the same gate flags.
    scene = tmp_path / "scene"
    assert main(["simulate", "--k", "2", "--seed", "0", "--export-scene", str(scene),
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    flags = ["--cameras", str(scene / "cameras.json"), "--ellipses", str(scene / "ellipses.csv"),
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
    def reconstruct(self, exported, tmp_path):
        root, _, _ = exported
        out = str(tmp_path / "spheres.json")
        run_cli("reconstruct", "--cameras", str(root / "cameras.json"),
                "--ellipses", str(root / "ellipses.csv"), "--out", out)
        return out

    def test_two_anchor_scale_and_points(self, exported, tmp_path):
        spheres = self.reconstruct(exported, tmp_path)
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

    def test_unknown_anchor(self, exported, tmp_path):
        spheres = self.reconstruct(exported, tmp_path)
        result = run_cli("scale", "--spheres", spheres, "--anchors", "nope:1.0",
                         "--out", str(tmp_path / "o.json"))
        assert result.returncode == 2
        assert "nope" in result.stderr

    def test_non_finite_anchor_exit_code(self, exported, tmp_path):
        spheres = self.reconstruct(exported, tmp_path)
        sphere_id = load_spheres(spheres)[0].sphere_id
        for radius in ("nan", "inf"):
            result = run_cli("scale", "--spheres", spheres, "--anchors", f"{sphere_id}:{radius}",
                             "--out", str(tmp_path / "o.json"))
            assert result.returncode == 2
            assert "finite" in result.stderr and "scale factor" not in result.stderr

    def test_repeated_anchor_exit_code(self, exported, tmp_path):
        spheres = self.reconstruct(exported, tmp_path)
        sphere_id = load_spheres(spheres)[0].sphere_id
        result = run_cli("scale", "--spheres", spheres,
                         "--anchors", f"{sphere_id}:0.2,{sphere_id}:0.5",
                         "--out", str(tmp_path / "o.json"))
        assert result.returncode == 2
        assert "repeated" in result.stderr and sphere_id in result.stderr
        assert not (tmp_path / "o.json").exists()

    def test_non_finite_sphere_center_exit_code(self, exported, tmp_path):
        spheres = self.reconstruct(exported, tmp_path)
        data = json.load(open(spheres))
        data["spheres"][0]["center"][1] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        result = run_cli("scale", "--spheres", str(bad),
                         "--anchors", f"{data['spheres'][0]['sphere_id']}:1.0",
                         "--out", str(tmp_path / "o.json"))
        assert result.returncode == 2
        assert "finite" in result.stderr

    @pytest.mark.parametrize("center, anchor, message", [
        (None, "s000:1e300", "anchor 's000' radius 1e+300 lies beyond 2^300 world units"),
        (None, "s000:1e307", "anchor 's000' radius 1e+307 lies beyond 2^300 world units"),
        (None, "s000:1e90", "sphere 's000' scales by "),
        (1e300, "s000:1.0", "sphere 's001' scales by "),
        (1e308, "s000:1.0", "sphere 's001' scales by ")],
        ids=["anchor-1e300", "anchor-1e307", "scaled-center", "huge-center", "overflow"])
    def test_scale_beyond_the_world_limit_exit_code(self, exported, tmp_path, capsys, center,
                                                    anchor, message):
        # An anchor radius beyond 2^300 world units used to scale every
        # sphere far beyond the bound cameras and tie points keep (exit 0),
        # or to overflow metric_scale with a bare "Numerical result out of
        # range" (1e307); a scaled center that overflowed ended the command
        # with an overflow warning.  Each now exits 2 before writing.
        spheres = self.reconstruct(exported, tmp_path)
        if center is not None:
            data = json.load(open(spheres))
            data["spheres"][1]["center"][0] = center
            (tmp_path / "spheres.json").write_text(json.dumps(data))
        cloud = tmp_path / "cloud.ply"
        cloud.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                         "property float y\nproperty float z\nend_header\n1 2 3\n")
        out, out_points = tmp_path / "o.json", tmp_path / "o.ply"
        assert main(["scale", "--spheres", spheres, "--anchors", anchor, "--points", str(cloud),
                     "--out-points", str(out_points), "--out", str(out)]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("error:")]
        assert len(lines) == 1 and message in lines[0], lines
        assert not out.exists() and not out_points.exists()

    @pytest.mark.parametrize("field", ["per_view_radii", "radius_spread"])
    @pytest.mark.parametrize("length", [1e308, 1e300, 1.5e90])
    def test_scaled_per_view_radius_or_spread_beyond_the_world_limit_exit_code(
            self, exported, tmp_path, capsys, field, length):
        # Only the centers and radii used to be bounded: a per-view radius or
        # radius spread of 1e308, doubled by the scale, was written as
        # Infinity (exit 0), and one of 1e300 far beyond 2^300 world units.
        spheres = self.reconstruct(exported, tmp_path)
        data = json.load(open(spheres))
        if field == "per_view_radii":
            data["spheres"][1]["per_view_radii"][0][1] = length
        else:
            data["spheres"][1]["radius_spread"] = length
        (tmp_path / "spheres.json").write_text(json.dumps(data))
        out = tmp_path / "o.json"
        anchor = f"s000:{2.0 * data['spheres'][0]['radius']!r}"
        assert main(["scale", "--spheres", spheres, "--anchors", anchor, "--out", str(out)]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("error:")]
        assert len(lines) == 1 and "sphere 's001' scales by " in lines[0], lines
        assert "beyond 2^300 world units" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("field", ["per_view_radii", "radius_spread"])
    def test_nan_per_view_radius_or_spread_exit_code(self, exported, tmp_path, capsys, field):
        # The world bound took the max() of the scaled lengths, which skips a
        # NaN after a finite value: a NaN second per-view radius or radius
        # spread was scaled and written as NaN (exit 0).
        spheres = self.reconstruct(exported, tmp_path)
        data = json.load(open(spheres))
        if field == "per_view_radii":
            assert len(data["spheres"][1]["per_view_radii"]) >= 2
            data["spheres"][1]["per_view_radii"][1][1] = math.nan
        else:
            data["spheres"][1]["radius_spread"] = math.nan
        (tmp_path / "spheres.json").write_text(json.dumps(data))
        out = tmp_path / "o.json"
        anchor = f"s000:{2.0 * data['spheres'][0]['radius']!r}"
        assert main(["scale", "--spheres", spheres, "--anchors", anchor, "--out", str(out)]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("error:")]
        assert len(lines) == 1 and "sphere 's001' scales by " in lines[0], lines
        assert "NaN" in lines[0]
        assert not out.exists()

    def test_null_spheres_exit_code(self, tmp_path):
        bad = tmp_path / "null.json"
        bad.write_text(json.dumps({"spheres": None}))
        result = run_cli("scale", "--spheres", str(bad), "--anchors", "s000:1.0",
                         "--out", str(tmp_path / "o.json"))
        assert result.returncode == 2
        assert "spheres" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("line", ["element vertex", "property float"])
    def test_malformed_ply_header_exit_code(self, exported, tmp_path, line):
        spheres = self.reconstruct(exported, tmp_path)
        entries = load_spheres(spheres)
        header = ["ply", "format ascii 1.0", "element vertex 1", "property float x",
                  "property float y", "property float z", "end_header", "1 2 3"]
        header[2 if line.startswith("element") else 5] = line
        bad = tmp_path / "bad.ply"
        bad.write_text("\n".join(header) + "\n")
        result = run_cli("scale", "--spheres", spheres,
                         "--anchors", f"{entries[0].sphere_id}:1.0",
                         "--points", str(bad), "--out-points", str(tmp_path / "o.ply"),
                         "--out", str(tmp_path / "o.json"))
        assert result.returncode == 2
        assert "bad.ply" in result.stderr and "Traceback" not in result.stderr
        assert not (tmp_path / "o.json").exists()

    def test_bad_ply_exit_code(self, exported, tmp_path):
        # A cloud that is not a PLY, a missing cloud, a cloud with no
        # --out-points, or a vertex whose scaled x, y or z is not a finite
        # number fails before either output is written.  The last kind used
        # to leave the scaled spheres behind (a token that is not a number)
        # or to write nan or inf into the scaled cloud.  A finite scaled
        # coordinate beyond 2^300 world units fails the same way; it used to
        # be written.
        spheres = self.reconstruct(exported, tmp_path)
        entries = load_spheres(spheres)
        s_r = 1.0 / entries[0].model.sphere.radius  # the scale of an anchor radius of 1.0
        bad = str(tmp_path / "bad.ply")
        open(bad, "w").write("not a ply\n")
        out_points = ["--out-points", str(tmp_path / "o.ply")]
        cases = [(["--points", bad, *out_points], "not a PLY file"),
                 (["--points", str(tmp_path / "missing.ply"), *out_points], "missing.ply"),
                 (["--points", bad], "--out-points")]
        for i, (vertex, message) in enumerate((
                ("abc 0.25 4", "could not convert string to float: 'abc'"),
                ("0.5 nan 4", "vertex row 1: y scales to nan"),
                ("1 -inf 4", "vertex row 1: y scales to -inf"),
                ("1e308 0.25 4", "vertex row 1: x scales to inf"),
                ("1e200 0.25 4", f"vertex row 1: x scales to {1e200 * s_r}"),
                ("1 -2e90 4", f"vertex row 1: y scales to {-2e90 * s_r}"))):
            cloud = tmp_path / f"vertex-{i}.ply"
            cloud.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                             f"property float y\nproperty float z\nend_header\n1 2 3\n{vertex}\n")
            cases.append((["--points", str(cloud), *out_points], message))
        for points, message in cases:
            result = run_cli("scale", "--spheres", spheres,
                             "--anchors", f"{entries[0].sphere_id}:1.0",
                             *points, "--out", str(tmp_path / "o.json"))
            assert result.returncode == 2, points
            assert message in result.stderr
            assert not (tmp_path / "o.json").exists()
            assert not (tmp_path / "o.ply").exists()


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

    def test_intermediate_files_round_trip(self, tmp_path):
        result = run_cli("simulate", "--k", "2", "--seed", "3", "--sigma", "0.2",
                         "--out", str(tmp_path / "s.csv"),
                         "--export-scene", str(tmp_path / "scene"))
        assert result.returncode == 0
        network = load_network(str(tmp_path / "scene" / "cameras.json"))
        assert len(network.views) == 30
        truth = json.load(open(str(tmp_path / "scene" / "truth.json")))
        assert len(truth["spheres"]) == 9

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_invalid_sigma_exit_code(self, tmp_path, value):
        # --sigma nan used to exit 0 with the sweep of --sigma 0.
        out = tmp_path / "s.csv"
        result = run_cli("simulate", "--k", "2", "--sigma", value, "--out", str(out))
        assert result.returncode == 2
        assert "--sigma" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [({"spheres": None}, "spheres"),
                                             ([], "object"),
                                             ({"n_cameras": None}, "n_cameras")])
    def test_mistyped_config_exit_code(self, tmp_path, config, key):
        # Each of these used to end in a traceback and exit code 1.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        result = run_cli("simulate", "--config", str(cfg_path), "--k", "2",
                         "--out", str(out))
        assert result.returncode == 2
        assert key in result.stderr and "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [
        ({"tie_point_extent": math.inf}, "tie_point_extent"),
        ({"tie_point_extent": math.nan}, "tie_point_extent"),
        ({"tie_point_extent": 1e308}, "tie_point_extent"),
        ({"width": math.nan, "clutter_per_image": 1}, "width"),
        ({"height": -math.inf, "clutter_per_image": 1}, "height"),
        ({"width": math.nan}, "width"), ({"width": -5}, "width")],
        ids=["extent-inf", "extent-nan", "extent-1e308", "width-nan", "height-minus-inf",
             "width-nan-no-clutter", "width-negative"])
    def test_overflowing_config_exit_code(self, tmp_path, config, key):
        # json.load reads NaN and Infinity; each of these used to end in an
        # OverflowError traceback from the scene sampler and exit code 1, and
        # later in an error that did not name the key.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        result = run_cli("simulate", "--config", str(cfg_path), "--k", "2",
                         "--out", str(out))
        assert result.returncode == 2
        assert "error:" in result.stderr and "Traceback" not in result.stderr
        assert repr(key) in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("config, names", [
        ({"spheres": [["a", [1.7e308, -1.7e308, 1.7e308], 0.1]]}, ["'spheres'", "'a'"]),
        ({"look_at": [1e308, 0, 0]}, ["'look_at'"]),
        ({"look_at": [math.nan, 0, 0]}, ["'look_at'"]),
        ({"spheres": [["a", [1e100, 0, 0.5], 0.1]]}, ["'spheres'", "'a'"])],
        ids=["center-1.7e308", "look-at-1e308", "look-at-nan", "center-1e100"])
    def test_config_beyond_the_world_limit_exit_code(self, tmp_path, capsys, config, names):
        # Run in-process, under the suite's RuntimeWarning filter.  These used
        # to end in an overflow warning (exit 1), in "camera rot must be
        # finite", which names no key (exit 2), or as an infeasible scene
        # (exit 3).
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg_path), "--k", "2", "--out", str(out)]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("error:")]
        assert len(lines) == 1 and all(name in lines[0] for name in names), lines
        assert "2^300" in lines[0]
        assert not out.exists()

    def test_non_finite_config_sigma_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_cameras": 4, "n_tie_points": 12,
                                        "sigma_px": math.nan}))
        out = tmp_path / "s.csv"
        result = run_cli("simulate", "--config", str(cfg_path), "--k", "2",
                         "--out", str(out))
        assert result.returncode == 2
        assert "sigma" in result.stderr
        assert not out.exists()
