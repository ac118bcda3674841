"""Pin the reference verdicts the benchmark checks against.

    python3 perfbench/pin.py [--default-report FILE] [--only WORKLOAD]

Run from the root of a checkout of the commit whose verdicts are the known
answers.  Writes perfbench/reference/<workload>.json for both sizes:
  fock-sweep   the rows of one pass
  report-rest  the rows of one pass, plus the seed-dependent rows for every
               RunConfig.seed residue the benchmark uses
  cli-cold     exit code, stdout and cost of every call a sequence can
               contain (one pool for both sizes)
Every row must carry the status known by hand (all pass except the designed
red summation:squares) and every call must exit 0, or nothing is written.
With --default-report, the report-rest rows must also equal the matching
rows of that `ltwist report --format json` document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads

COST_REPEATS = 5


def pin_rows(workload: str, size: str, default_doc=None) -> dict:
    _, doc = run.run_worker("pass", workload, size, 0, 0)
    rows = doc["rows"]
    wrong = [r["id"] for r in rows if r["status"] != workloads.expected_status(r["id"])]
    if wrong:
        raise SystemExit(f"{workload}/{size}: unexpected statuses {wrong}")
    if workload == "fock-sweep":
        return {"rows": rows}
    if default_doc is not None and size == "full":
        default = {r["id"]: {k: v for k, v in r.items() if k != "runtime_ms"}
                   for r in default_doc["checks"]}
        differ = [r["id"] for r in rows if default.get(r["id"]) != r]
        if differ:
            raise SystemExit(f"report-rest rows differ from the default report: {differ}")
        print(f"report-rest: {len(rows)} rows equal the default document's", flush=True)
    seeded = {}
    for s in range(workloads.REPORT_SEEDS):
        _, sdoc = run.run_worker("seeded", size, s)
        seeded[str(s)] = sdoc["rows"]
    first = {r["id"]: r for r in rows if r["id"] in workloads.SEEDED_ROWS}
    if seeded["0"] != first:
        raise SystemExit("seeded rows at seed 0 differ from the pass")
    return {"rows": rows, "seeded": seeded}


def timed_calls(argv: list, samples: list):
    """COST_REPEATS timed calls, their latencies added to samples."""
    for _ in range(COST_REPEATS):
        child, doc, ms = run.timed_call(argv)
        if child.rc != 0 or doc is None:
            raise SystemExit(f"ltwist {' '.join(argv)} exited {child.rc}: {child.err}")
        samples.append(ms)
    return child


def pin_calls() -> dict:
    """Reference output of every call, and each pool entry's cost: the median
    of its timed calls, in reference milliseconds.  Every entry must cost
    within workloads.COST_BAND of its pool's median, so that the seed changes
    the calls but hardly the cost of a sequence; an entry that seems outside
    is timed twice as often again before it is refused."""
    out, outside = {}, []
    for sub, pool in workloads.pools().items():
        samples = {json.dumps(argv): [] for argv in pool}
        for argv in pool:
            child = timed_calls(argv, samples[json.dumps(argv)])
            out[json.dumps(argv)] = {"rc": child.rc, "stdout": child.out}
        mid = statistics.median(statistics.median(xs) for xs in samples.values())
        for key, xs in samples.items():
            if abs(statistics.median(xs) - mid) > workloads.COST_BAND * mid:
                for _ in range(2):
                    timed_calls(json.loads(key), xs)
            cost = statistics.median(xs)
            out[key]["cost_ms"] = round(cost, 1)
            if abs(cost - mid) > workloads.COST_BAND * mid:
                outside.append(key)
        costs = [out[key]["cost_ms"] for key in samples]
        print(f"{sub:16} {len(pool):3} calls, cost {min(costs):6.1f} {mid:6.1f} "
              f"{max(costs):6.1f} ms (min, median, max)", flush=True)
    for argv in workloads.DEFECT_POOL:
        ref_argv = workloads.defect_reference_argv(argv)
        child = run.spawn(run.cli_argv(ref_argv), run.CALL_TIMEOUT_S)
        if child.rc != 0:
            raise SystemExit(f"ltwist {' '.join(ref_argv)} exited {child.rc}: {child.err}")
        out[json.dumps(ref_argv)] = {"rc": child.rc, "stdout": child.out}
    if outside:
        raise SystemExit(f"calls outside the cost band: {outside}")
    return {"calls": out}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--default-report", help="`ltwist report --format json` output")
    p.add_argument("--only", choices=workloads.WORKLOADS)
    args = p.parse_args()
    run.check_checkout()
    run.WORK.mkdir(exist_ok=True)
    default_doc = None
    if args.default_report:
        with open(args.default_report, encoding="utf-8") as fh:
            default_doc = json.load(fh)
    for workload in workloads.WORKLOADS:
        if args.only and workload != args.only:
            continue
        if workload == "cli-cold":
            doc = pin_calls()  # one call pool serves both sizes
        else:
            doc = {size: pin_rows(workload, size, default_doc) for size in workloads.SIZES}
        path = run.HERE / "reference" / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(run.ROOT)}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
