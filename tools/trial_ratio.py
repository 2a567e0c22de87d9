"""Criterion 5's trial-time ratio of two source trees, measured alternately.

Run it from anywhere with the ``src`` directories of the two checkouts:

    python tools/trial_ratio.py PARENT_SRC CHANGE_SRC --runs 20

Each run measures both sides, each in a fresh interpreter that imports
spherefit from that side's directory; odd runs start with the parent, even
runs with the change.  The measurement is the acceptance suite's criterion 5:
``monte_carlo_views`` at k = 2 and 8 on the noisy lab scene (the default
``SceneConfig`` with 0.5 px noise drawn from its seed) and sweep seed 0, which
draws the same view subsets as the suite does.  For each run it prints both
sides' mean k=2 and k=8 trial times and their ratio, and at the end, for each
side, the runs whose ratio is below 10 (the criterion's failures) and the
median ratio.  It asserts no timing and exits 0 whatever the ratios are.

The sweep runs its trials in one worker process per CPU of the process's
affinity set, so the ratios are those of trials run side by side; each run
prints the worker count of each side (1 for a tree whose sweep has no
workers).  Under ``taskset -c 0`` both sides run their trials one after
another.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

#: The criterion's bound on the k=8 over k=2 mean trial time.
BOUND = 10.0

#: One side's measurement, run in a fresh interpreter with the side's src
#: directory as its argument; prints the mean trial ms by k and the sweep's
#: worker count as JSON.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spherefit import SceneConfig, generate_scene, monte_carlo_views, perturb_observations, synth
scene = generate_scene(SceneConfig())
noisy = perturb_observations(scene, 0.5, scene.config.seed)
stats = monte_carlo_views(noisy, [2, 8], 0, timing=True)
means = {s.k: s.mean_ms for s in stats if s.selection == "random"}
print(json.dumps({"workers": synth._workers() if hasattr(synth, "_workers") else 1, **means}))
"""


def measure(src: str) -> tuple[float, float, int]:
    """The mean k=2 and k=8 trial ms of the spherefit in ``src``, and its
    sweep's worker count."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(pathlib.Path(src).resolve())],
                          check=True, capture_output=True, text=True)
    means = json.loads(done.stdout.splitlines()[-1])
    return means["2"], means["8"], means["workers"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="src directory of the parent checkout")
    parser.add_argument("change", help="src directory of the changed checkout")
    parser.add_argument("--runs", type=int, default=20, help="alternating runs (default 20)")
    args = parser.parse_args(argv)
    ratios: dict = {"parent": [], "change": []}
    for run in range(1, args.runs + 1):
        for side in ("parent", "change") if run % 2 else ("change", "parent"):
            k2, k8, workers = measure(getattr(args, side))
            ratios[side].append(k8 / k2)
            print(f"run {run} {side}: {workers} worker(s), k=2 {k2:.3f} ms, k=8 {k8:.3f} ms, "
                  f"ratio {k8 / k2:.2f}", flush=True)
    for side, values in ratios.items():
        failed = [f"{ratio:.2f}" for ratio in values if ratio < BOUND]
        print(f"{side}: {len(failed)} of {len(values)} runs below {BOUND:g} {failed}, "
              f"median ratio {statistics.median(values):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
