"""Print a fingerprint of what spherefit computes, for comparing two checkouts.

Run it in each checkout and compare the outputs with ``diff``:

    python tools/fingerprint.py > after.txt

or, for a change that may move the last bits of a float, in tolerance mode:

    python tools/fingerprint.py --compare before.txt after.txt

which passes when the two files are the same text once every number is
masked, and every number of ``after.txt`` lies within 1e-9 of its
counterpart, relative to the largest magnitude of a number on its line
(so a sphere's center and radius share one scale).

It imports spherefit from the ``src`` directory next to this file and prints,
for seeds 0-4:

* the match set of every view pair of a 30-view arc with 4 clutter ellipses
  per image (inflation 1.02, noise 0.5 px), gated as the pipeline gates them,
  with the distances as ``float.hex``;
* the ``TrialStats`` reprs of the sweep at k = 2, 4, 8 on the default scene;
* every sphere of the full-scene reconstruction of both scenes;
* the output files and standard output of CLI ``simulate --k 2,8``,
  ``reconstruct --pair auto`` and ``match --pair auto`` on the default scene,
  parsed: a JSON document prints one line per entry of its top-level keys
  (one sphere, one match), a CSV file one line per row;
* the files ``simulate --export-scene`` writes (``cameras.json``,
  ``ellipses.csv`` and ``truth.json``) as raw lines, so that a change to a
  writer's bytes, layout included, shows;
* the pair that ``select-pair`` picks (``best_pair`` of the ``load_network``
  of a camera file written by ``save_network``), with ``alpha_ij``, ``ov_i``,
  ``ov_j`` and the score as ``float.hex``, on the default arc, the ``ring``
  and ``hemisphere`` scenes, and a sparse copy of the arc whose tie points
  each keep 2-5 of their views, drawn from a fixed stream.

Timing is off everywhere, so a refactor that changes no result prints the same
bytes.
"""

import argparse
import contextlib
import io
import itertools
import json
import pathlib
import re
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spherefit import (NoAdmissiblePair, SceneConfig, best_pair, cli,  # noqa: E402
                       gate_views, gather_ellipses, generate_scene, match_ellipses,
                       monte_carlo_views, perturb_observations, reconstruct_subset,
                       view_records)
from spherefit.fileio import load_network, save_network  # noqa: E402

SEEDS = range(5)
SIGMA = 0.5

#: The files ``simulate --export-scene`` writes, printed as raw lines.
EXPORTED = ("cameras.json", "ellipses.csv", "truth.json")

#: The scenes whose camera files ``select-pair`` ranks: (label, SceneConfig keys).
NETWORKS = (("arc", {}), ("ring", {"placement": "ring"}),
            ("hemisphere", {"placement": "hemisphere"}))

#: Relative tolerance of ``--compare``.
RTOL = 1e-9

#: A hex or decimal float standing alone, not a digit inside an id such as
#: ``ball-0`` or ``img-05``.
NUMBER = re.compile(r"(?<![\w.+-])[+-]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]?\d+"
                    r"|\d+(?:\.\d*)?(?:e[+-]?\d+)?)(?![\w.])")


def _hex(values):
    return " ".join(float(v).hex() for v in values)


def match_sets(seed):
    config = SceneConfig(clutter_per_image=4, clutter_inflation=1.02, seed=seed)
    scene = perturb_observations(generate_scene(config), SIGMA, seed)
    table = gather_ellipses(scene.views, scene.observations)
    _, _, accepted = gate_views(scene.views, table)
    records = view_records(scene.views, table, accepted)
    for (view_l, left), (view_k, right) in itertools.combinations(zip(scene.views, records), 2):
        result = match_ellipses(left, right)
        print(f"match seed={seed} {view_l.image_id} {view_k.image_id}")
        for (i, j), epi, distance in zip(result.matches, result.epipolar, result.reprojection):
            print(f"  {left.ids[i]} {right.ids[j]} {_hex([epi])} {_hex([distance])}")
        used_l, used_k = {i for i, _ in result.matches}, {j for _, j in result.matches}
        print(f"  unmatched {[e for i, e in enumerate(left.ids) if i not in used_l]} "
              f"{[e for j, e in enumerate(right.ids) if j not in used_k]}")
    return scene


def spheres(label, scene):
    for track, model in reconstruct_subset(scene.views, scene.observations):
        print(f"sphere {label} {sorted(track.items())}")
        print(f"  center {_hex(model.sphere.center)} radius {_hex([model.sphere.radius])}")
        print(f"  radii {[(i, r.hex()) for i, r in model.per_view_radii]}")
        print(f"  spread {_hex([model.radius_spread])} "
              f"residual {_hex([model.triangulation_residual])}")


def _parsed(text):
    """The lines of a CLI output: one per entry of a JSON document's
    top-level keys, else the text's own lines."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        return text.splitlines()
    return [f"{key} {json.dumps(entry, sort_keys=True)}" for key, value in sorted(doc.items())
            for entry in (value if isinstance(value, list) else [value])]


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
            print(f"cli seed={seed} {name} exit={code} "
                  f"stderr={stderr.getvalue().replace(tmp, 'TMP').strip()!r}")
            for label, text in (("out", out.read_text()),
                                ("stdout", stdout.getvalue().replace(tmp, "TMP"))):
                for line in _parsed(text):
                    print(f"  {label} {line}")
            if name == "simulate":
                for exported in EXPORTED:
                    for line in (scene / exported).read_text().splitlines():
                        print(f"  {exported} {line}")


def _sparse(data, seed):
    """Keep each tie point of the parsed camera file ``data`` to 2-5 of its
    views, drawn from a stream fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    for point in data["tie_points"]:
        ids = point["visible_in"]
        keep = rng.choice(len(ids), min(len(ids), int(rng.integers(2, 6))), replace=False)
        point["visible_in"] = [ids[k] for k in sorted(keep.tolist())]


def pair_picks(seed):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for label, keys in NETWORKS:
            paths.append((label, pathlib.Path(tmp, label + ".json")))
            save_network(generate_scene(SceneConfig(seed=seed, **keys)).network,
                         str(paths[-1][1]))
        data = json.loads(paths[0][1].read_text())
        _sparse(data, seed)
        paths.append(("sparse-arc", pathlib.Path(tmp, "sparse-arc.json")))
        paths[-1][1].write_text(json.dumps(data))
        for label, path in paths:
            try:
                score = best_pair(load_network(str(path)))
            except NoAdmissiblePair as exc:
                print(f"pair seed={seed} {label} {exc}")
                continue
            print(f"pair seed={seed} {label} {score.i} {score.j} "
                  f"{_hex([score.alpha_ij, score.ov_i, score.ov_j, score.theta_ij])}")


def _numbers(line):
    return [float.fromhex(n) if "x" in n else float(n) for n in NUMBER.findall(line)]


def compare(before, after):
    """Exit status of the tolerance check of fingerprint ``after`` against
    ``before``; prints each line that fails it and a summary."""
    lines_a = pathlib.Path(before).read_text().splitlines()
    lines_b = pathlib.Path(after).read_text().splitlines()
    if len(lines_a) != len(lines_b):
        print(f"{len(lines_a)} lines against {len(lines_b)}")
        return 1
    failed, worst, count = 0, 0.0, 0
    for number, (a, b) in enumerate(zip(lines_a, lines_b), 1):
        values_a, values_b = _numbers(a), _numbers(b)
        scale = max(map(abs, values_a + values_b), default=0.0)
        moves = [abs(x - y) for x, y in zip(values_a, values_b)]
        count += len(moves)
        if moves and scale > 0.0:
            worst = max(worst, max(moves) / scale)
        if NUMBER.sub("#", a) != NUMBER.sub("#", b) or any(m > RTOL * scale for m in moves):
            failed += 1
            print(f"line {number}:\n  - {a}\n  + {b}")
    print(f"{len(lines_a)} lines, {count} numbers, {failed} lines differ; "
          f"largest move {worst:.3g} of its line's scale (tolerance {RTOL:g})")
    return int(failed > 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print (or compare) a fingerprint of "
                                                 "what spherefit computes.")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="check fingerprint AFTER against BEFORE within a relative "
                             f"{RTOL:g} instead of printing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for seed in SEEDS:
        cluttered = match_sets(seed)
        scene = perturb_observations(generate_scene(SceneConfig(seed=seed)), SIGMA, seed)
        for stats in monte_carlo_views(scene, [2, 4, 8], seed, timing=False):
            print(f"trials seed={seed} {stats!r}")
        spheres(f"seed={seed} default", scene)
        spheres(f"seed={seed} cluttered", cluttered)
        cli_outputs(seed)
        pair_picks(seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
