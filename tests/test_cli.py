import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spherefit import (
    SceneConfig,
    best_pair,
    classify_spherical,
    generate_scene,
    match_ellipses,
    perturb_observations,
    reconstruct_sphere,
    view_record,
)
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

    def test_unknown_image_reference(self, exported, tmp_path):
        root, _, noisy = exported
        rogue = [e for e in noisy.observations["img-00"]][:1]
        rogue = [type(e)("img-99", e.ellipse_id, e.x_ce, e.y_ce, e.a_e, e.b_e,
                         e.theta, cov=e.cov) for e in rogue]
        bad = str(tmp_path / "bad.csv")
        save_ellipses(rogue, bad)
        result = run_cli("filter", "--cameras", str(root / "cameras.json"),
                         "--ellipses", bad, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "img-99" in result.stderr

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

    @pytest.mark.parametrize("field", ["px", "rot"])
    def test_non_finite_camera_exit_code(self, exported, tmp_path, field):
        root, _, _ = exported
        data = json.load(open(root / "cameras.json"))
        entry = data["views"][0]
        entry[field] = [math.nan] * 9 if field == "rot" else math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        result = run_cli("filter", "--cameras", str(bad),
                         "--ellipses", str(root / "ellipses.csv"),
                         "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "finite" in result.stderr

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
        matches = match_ellipses(view_record(view_l, gated[score.i]),
                                 view_record(view_k, gated[score.j]))
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

    def test_bad_ply_exit_code(self, exported, tmp_path):
        spheres = self.reconstruct(exported, tmp_path)
        entries = load_spheres(spheres)
        bad = str(tmp_path / "bad.ply")
        open(bad, "w").write("not a ply\n")
        result = run_cli("scale", "--spheres", spheres,
                         "--anchors", f"{entries[0].sphere_id}:1.0",
                         "--points", bad, "--out-points", str(tmp_path / "o.ply"),
                         "--out", str(tmp_path / "o.json"))
        assert result.returncode == 2


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
