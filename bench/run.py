"""Benchmark of spherefit's two user paths and its pipeline layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The workloads (``sweep``, ``reconstruct_cli``, ``filter_survey``) are
described in ``bench/workloads.py``.  The script builds the inputs from the
seed, times the workload's operation in a closed loop with one client for
about ``--seconds`` seconds (always at least one pass over the inputs),
checks every output against ground truth, and prints one JSON object as the
last line of standard output.  ``--size smoke`` shrinks every workload for
the benchmark's own smoke test, ``bench/smoke.py``.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``:

- ``setup_s``: median of the set-ups (fresh-interpreter import plus one
  input's generation, noise and export);
- ``op_ref.p50`` and ``op_ref.p75``: operation time in units of a fixed
  reference computation timed around it (see ``ReferenceClock``); the wall
  times are printed on a comment line;
- ``ok_share``: operations whose output passed every check, over those
  attempted (trials, for the sweep);
- ``err_pct``: the output's error against ground truth, in %, over the
  first pass of inputs (see ``bench/workloads.py``).

With ``--trace 1`` it runs every input once untraced and once traced in
turn and reports the per-layer metrics from the recorded spans
(``bench/spans.py``).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

IMPORT_PROBE = ("import time; start = time.perf_counter(); import spherefit.cli; "
                "print(time.perf_counter() - start)")

#: Set-up runs at least this often per run; ``setup_s`` is the median.
MIN_SETUPS = 5

#: Inside a long operation the reference is sampled at most this often.
SAMPLE_EVERY_S = 1.0


@dataclass
class Op:
    """One timed operation of the closed loop."""

    round: int
    traced: bool
    seconds: float
    outcome: object
    reference: float = math.nan  # reference-work seconds around this op's round


def reference_work() -> float:
    """Fixed work of the kind the pipeline does, without spherefit: a Python
    loop over small numpy vectors, float arithmetic and short-lived objects."""
    rot = np.eye(3)
    total = 0.0
    for i in range(2000):
        point = np.array([i * 1e-3, 1.0, 2.0])
        cam = rot @ point + point
        total += math.sqrt(float(cam @ cam)) + len({"i": i, "xs": [i, i + 1]})
    return total


def reference_seconds() -> float:
    """Median time of three runs of ``reference_work``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ReferenceClock:
    """Times operations together with the reference work done around them.

    On a shared machine single-threaded Python runs 30% slower or faster
    for tens of seconds at a time.  The reference is sampled before and
    after each operation and, inside a long one, every ``SAMPLE_EVERY_S`` at
    the workload's pause points.  An operation's time divided by the mean
    reference sampled over it follows the program's cost rather than the
    machine's.  Time spent sampling inside an operation is not counted in
    the operation's time.
    """

    def __init__(self, pause_points):
        self._pause_points = pause_points
        self._samples = [reference_seconds()]
        self._last = time.perf_counter()
        self._paused = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        self._samples.append(reference_seconds())
        self._last = time.perf_counter()
        self._paused += self._last - start

    def _pausing(self, fn):
        @functools.wraps(fn)
        def pausing(*args, **kwargs):
            result = fn(*args, **kwargs)
            if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
                self._sample()
            return result
        return pausing

    def time(self, operation):
        """Run ``operation``; returns (seconds, reference seconds, result)."""
        originals = [(module, attr, getattr(module, attr)) for module, attr in self._pause_points]
        for module, attr, fn in originals:
            setattr(module, attr, self._pausing(fn))
        first = len(self._samples) - 1
        self._paused = 0.0
        start = time.perf_counter()
        try:
            result = operation()
        finally:
            elapsed = time.perf_counter() - start - self._paused
            for module, attr, fn in originals:
                setattr(module, attr, fn)
        self._sample()
        return elapsed, statistics.fmean(self._samples[first:]), result


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def p75(values: list) -> float:
    """Upper quartile; a filter run of 30 s has about 50 operations, so 12
    lie beyond it."""
    return statistics.quantiles(values, n=4, method="inclusive")[-1] if len(values) > 1 else values[0]


def set_up(workload, seed: int, work: Path):
    """Build every input, repeating set-up until it has run ``MIN_SETUPS``
    times.  One set-up is a fresh-interpreter package import plus the
    generation, noise and export of one input."""
    from workloads import sub_seed

    import_seconds()  # compiles the byte code, as the first use of a checkout does
    inputs, totals, imports, generate, perturb = {}, [], [], [], []
    for rep in range(max(MIN_SETUPS, workload.n_inputs)):
        index = rep % workload.n_inputs
        imported = import_seconds()
        start = time.perf_counter()
        inputs[index] = workload.build(sub_seed(seed, index), str(work / f"in-{index}"))
        totals.append(imported + time.perf_counter() - start)
        imports.append(1e3 * imported)
        generate.append(inputs[index].setup_ms["generate_ms"])
        perturb.append(inputs[index].setup_ms["perturb_ms"])
    return [inputs[i] for i in range(workload.n_inputs)], {
        "setup_s": statistics.median(totals),
        "cli.import_ms": statistics.median(imports),
        "synth.generate_ms": statistics.median(generate),
        "synth.perturb_ms": statistics.median(perturb),
    }


def measure(workload, inputs, seconds: float, out_dir: Path, recorder=None) -> list[Op]:
    """Run the closed loop and check every output.

    A round runs the operation on the next input, timed by the reference
    clock; with a recorder it runs it again traced, on the same input.  A
    new round starts only while the median round still fits before the
    deadline, and the first pass over the inputs always completes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    ops, rounds = [], []
    deadline = time.perf_counter() + seconds
    clock = ReferenceClock(workload.pause_points)
    while True:
        round_start = time.perf_counter()
        inp = inputs[len(rounds) % len(inputs)]
        elapsed, reference, result = clock.time(lambda: workload.run(inp, str(out_dir)))
        ops.append(Op(len(rounds), False, elapsed, workload.check(inp, result, str(out_dir)),
                      reference))
        if recorder is not None:
            start = time.perf_counter()
            with recorder.operation(len(ops), workload.op):
                result = workload.run(inp, str(out_dir))
            elapsed = time.perf_counter() - start
            ops.append(Op(len(rounds), True, elapsed, workload.check(inp, result, str(out_dir))))
        rounds.append(time.perf_counter() - round_start)
        if (len(rounds) >= len(inputs)
                and time.perf_counter() + statistics.median(rounds) > deadline):
            return ops


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, set]:
    """Set up, measure and check one workload; returns (counts, metrics,
    names of the checks that ran)."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    recorder = None
    if trace:
        from spans import Recorder
        recorder = Recorder()
    try:
        inputs, setup = set_up(workload, seed, work)
        # The inputs live for the whole run; keep the collector from walking
        # them on every collection, as it would not in a one-shot CLI process.
        gc.collect()
        gc.freeze()
        ops = measure(workload, inputs, seconds, work / "out", recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcomes = [op.outcome for op in ops]
    counts = {"attempted": sum(o.attempted for o in outcomes),
              "failed": sum(o.failed for o in outcomes)}
    for problem in sorted({p for o in outcomes for p in o.problems}):
        print(f"check failed: {problem}", file=sys.stderr)
    ran = {name for o in outcomes for name in o.ran}
    # Accuracy is taken from the first untraced pass over the inputs, so it
    # is a fixed function of the seed.
    first = [op.outcome for op in ops if not op.traced and op.round < len(inputs)]
    plain = [1e3 * op.seconds for op in ops if not op.traced]
    if trace:
        from spans import SpanTable, layer_metrics

        first_pass = {i for i, op in enumerate(ops) if op.traced and op.round < len(inputs)}
        metrics = layer_metrics(SpanTable(recorder), first_pass)
        metrics.update((k, v) for k, v in setup.items() if k != "setup_s")
        for outcome in first:
            for key, value in outcome.layer.items():
                metrics[key] = metrics.get(key, 0) + value
        traced = [1e3 * op.seconds for op in ops if op.traced]
        metrics["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0
    else:
        print(f"# wall time: op_ms.p50={statistics.median(plain):.1f} "
              f"op_ms.p75={p75(plain):.1f} over {len(plain)} operations; reference "
              f"{1e3 * statistics.median(op.reference for op in ops):.2f} ms")
        relative = [op.seconds / op.reference for op in ops]
        metrics = {
            "setup_s": setup["setup_s"],
            "op_ref.p50": statistics.median(relative),
            "op_ref.p75": p75(relative),
            "ok_share": (counts["attempted"] - counts["failed"]) / counts["attempted"],
            "err_pct": statistics.fmean(o.error_pct for o in first),
        }
    return counts, metrics, ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "spherefit" / "__init__.py").is_file():
        print(f"error: no spherefit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import spherefit
    from workloads import WORKLOADS

    if Path(spherefit.__file__).resolve().parent != SRC / "spherefit":
        print(f"error: spherefit was imported from {spherefit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](smoke=args.size == "smoke")
    counts, metrics, ran = run(workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    print(f"# machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={np.__version__}; workload={args.workload} seed={args.seed} "
          f"loop=closed clients=1")
    print(f"# checks: {','.join(sorted(ran))}")
    print(json.dumps({"correct": counts["failed"] == 0, **counts, "metrics": {
        name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
