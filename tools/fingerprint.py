"""Print a fingerprint of what spherefit computes, for comparing two checkouts.

Run it in each checkout and compare the outputs with ``diff``:

    python tools/fingerprint.py > after.txt

It imports spherefit from the ``src`` directory next to this file and prints,
for seeds 0-4:

* the match set of every view pair of a 30-view arc with 4 clutter ellipses
  per image (inflation 1.02, noise 0.5 px), gated as the pipeline gates them,
  with the distances as ``float.hex``;
* the ``TrialStats`` reprs of the sweep at k = 2, 4, 8 on the default scene;
* every sphere of the full-scene reconstruction of both scenes;
* the sha256 of the output files of CLI ``simulate --k 2,8``,
  ``reconstruct --pair auto`` and ``match --pair auto`` on the default scene.

Timing is off everywhere, so a refactor that changes no result prints the same
bytes.
"""

import contextlib
import hashlib
import io
import itertools
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spherefit import (SceneConfig, cli, gate_views, generate_scene,  # noqa: E402
                       match_ellipses, monte_carlo_views, perturb_observations,
                       reconstruct_subset)

SEEDS = range(5)
SIGMA = 0.5


def _hex(values):
    return " ".join(float(v).hex() for v in values)


def match_sets(seed):
    config = SceneConfig(clutter_per_image=4, clutter_inflation=1.02, seed=seed)
    scene = perturb_observations(generate_scene(config), SIGMA, seed)
    records = [g.record.take(g.accepted) for g in gate_views(scene.views, scene.observations)]
    for left, right in itertools.combinations(records, 2):
        result = match_ellipses(left, right)
        print(f"match seed={seed} {left.view.image_id} {right.view.image_id}")
        for m in result.matches:
            print(f"  {m.ellipse_l} {m.ellipse_k} {_hex([m.epipolar_distance])} "
                  f"{_hex([m.reprojection_distance])}")
        print(f"  unmatched {result.unmatched_l} {result.unmatched_k}")
    return scene


def spheres(label, scene):
    for track, model in reconstruct_subset(scene.views, scene.observations):
        print(f"sphere {label} {sorted(track.items())}")
        print(f"  center {_hex(model.sphere.center)} radius {_hex([model.sphere.radius])}")
        print(f"  radii {[(i, r.hex()) for i, r in model.per_view_radii]}")
        print(f"  spread {_hex([model.radius_spread])} "
              f"residual {_hex([model.triangulation_residual])}")


def _sha(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def cli_outputs(seed):
    with tempfile.TemporaryDirectory() as tmp:
        scene = pathlib.Path(tmp, "scene")
        inputs = ["--cameras", str(scene / "cameras.json"),
                  "--ellipses", str(scene / "ellipses.csv"), "--pair", "auto"]
        runs = [("simulate", ["simulate", "--k", "2,8", "--seed", str(seed),
                              "--export-scene", str(scene), "--out"]),
                ("reconstruct", ["reconstruct", *inputs, "--out"]),
                ("match", ["match", *inputs, "--out"])]
        for name, argv in runs:
            out = pathlib.Path(tmp, name + ".out")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, str(out)])
            print(f"cli seed={seed} {name} exit={code} out={_sha(out)} "
                  f"stdout={hashlib.sha256(stdout.getvalue().encode()).hexdigest()} "
                  f"stderr={stderr.getvalue().replace(tmp, 'TMP').strip()!r}")


def main():
    for seed in SEEDS:
        cluttered = match_sets(seed)
        scene = perturb_observations(generate_scene(SceneConfig(seed=seed)), SIGMA, seed)
        for stats in monte_carlo_views(scene, [2, 4, 8], seed, timing=False):
            print(f"trials seed={seed} {stats!r}")
        spheres(f"seed={seed} default", scene)
        spheres(f"seed={seed} cluttered", cluttered)
        cli_outputs(seed)


if __name__ == "__main__":
    main()
