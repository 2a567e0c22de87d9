"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at reduced size (``--size smoke``), untraced and
traced, and asserts that the result line has the agreed keys, that every
metric named in ``BENCHMARK.json`` is emitted with its unit, that the
end-to-end metrics are nonzero, and that every output check of the
workload ran and passed.  Last, it asserts that the benchmark refuses to
run, without printing a result, in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, WORK

SEED = 7


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workload(workload, trace: int, declared: dict) -> None:
    done = bench(ROOT, "--workload", workload.name, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
        assert trace or metric["value"] != 0, f"end-to-end metric {name} is 0"
    ran = next(line for line in lines if line.startswith("# checks: "))
    assert set(ran[len("# checks: "):].split(",")) == set(workload.checks), ran
    print(f"ok {workload.name} trace={trace}: {result['attempted']} attempted, "
          f"{len(result['metrics'])} metrics")


def check_refuses_without_sources() -> None:
    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = bench(bare, "--workload", "sweep", "--seed", str(SEED), "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print(f"ok refuses without sources: exit code {done.returncode}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            check_workload(workload, trace, declared)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
