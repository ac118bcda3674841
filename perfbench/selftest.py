"""Quick self-test of the benchmark at the tiny size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with --size tiny and checks that the
last line of each run is the result object, that it prints every metric of
BENCHMARK.json by name with its unit (end-to-end when untraced, per-layer when
traced) and that every verdict was correct.  Then checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads


def fail(msg: str) -> None:
    print(f"selftest: FAIL {msg}")
    sys.exit(1)


def spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    want = {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }
    if want["end_to_end"] != run.END_TO_END or want["per_layer"] != run.PER_LAYER:
        fail("BENCHMARK.json metrics differ from run.py's END_TO_END / PER_LAYER")
    if [w["name"] for w in doc["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return want


def check_run(workload: str, trace: int, want: dict) -> None:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    names = want["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        fail(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(names))} differ")
    for name, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{workload}: {name} = {v!r}")
        if not trace and v <= 0:
            fail(f"{workload}: end-to-end {name} = {v}")
    print(f"selftest: ok {workload} trace={trace} ({result['attempted']} operations)",
          flush=True)


def check_bare() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the program's sources")
    print("selftest: ok refuses to run without sources", flush=True)


def main() -> None:
    want = spec()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, want)
    check_bare()
    print("selftest: all ok")


if __name__ == "__main__":
    main()
