"""Benchmark ltwist's verdict path.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--size full|tiny]

Workloads (see perfbench/README.md for why each was chosen):
  fock-sweep   the registry's commutator-sweep row bracket:7 at cutoff 28
  report-rest  report_all without the commutator-sweep families
  cli-cold     a seeded sequence of `ltwist` calls, one fresh process each

Run from the root of a source checkout; the program is imported from its
`src/`.  Every timed pass starts a fresh interpreter, so caches are cold as a
user of `ltwist report` or of one CLI call meets them.  Whole passes repeat
until --seconds have elapsed (at least one).  Every verdict is checked against
the pinned references in perfbench/reference/.  Times are in reference
seconds: wall time corrected for the host's speed, sampled inside each timed
process (see speed.py); the measured wall times are on the `result` line.

Earlier lines of standard output carry the environment and a readable result;
the last line is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of one untraced and one traced pass.
Spans of the traced pass go to .perfbench/trace-<workload>-<size>-<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
}

_ORDERS = ("rat", "c3", "c4", "c5", "c8", "c12")
PER_LAYER = {
    **{f"exactnum.mul_ns.{o}": "ns" for o in _ORDERS},
    **{f"exactnum.add_ns.{o}": "ns" for o in _ORDERS},
    "exactnum.cyclo_ops": "count",
    "characters.s": "s",
    "characters.pf_mul_calls": "count",
    "lvalues.s": "s",
    "lvalues.calls": "count",
    "summation.s": "s",
    "summation.terms": "count",
    "summation.limit_numeric_ms": "ms",
    "fock.s": "s",
    "fock.column_calls": "count",
    "fock.columns_built": "count",
    "fock.column_hit_ratio": "ratio",
    "fock.states_swept": "count",
    "fock.states_per_s": "1/s",
    "fock.column_us.n5": "us",
    "fock.column_us.n7": "us",
    "fock.sweep_s.n7": "s",
    "qseries.s": "s",
    "qseries.mul_ms": "ms",
    "qseries.inverse_ms": "ms",
    "qseries.modular_s": "s",
    "cocycle.build_s": "s",
    "cocycle.elim_s": "s",
    "cocycle.rows": "count",
    "report.checks_s": "s",
    "report.assemble_ms": "ms",
    "report.rows": "count",
    "cli.import_ms": "ms",
    **{f"cli.call_ms.{sub}": "ms" for sub in workloads.SUBCOMMANDS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

SETUP_PROBES = 20           # per row-workload run, half before and half after
SETUP_PER_SEQUENCE = 6      # per cli-cold sequence
IMPORT_PROBES = 5
MIN_SEQUENCES = 3
PASS_TIMEOUT_S = 170.0
CALL_TIMEOUT_S = 60.0
# A failed call counts as missing any latency limit: it is given this latency.
FAILED_CALL_MS = CALL_TIMEOUT_S * 1000.0

WORK = ROOT / ".perfbench"


class HarnessError(Exception):
    """The benchmark itself could not run (not a wrong verdict)."""


# ---------------------------------------------------------------------------
# child processes


class Child:
    def __init__(self, rc, out, err, t_spawn, t_end, maxrss_kb):
        self.rc, self.out, self.err = rc, out, err
        self.t_spawn, self.t_end, self.maxrss_kb = t_spawn, t_end, maxrss_kb

    @property
    def ms(self) -> float:
        return (self.t_end - self.t_spawn) * 1000.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


ENV = _env()


def spawn(argv: list, timeout: float) -> Child:
    """Run argv to completion; its own peak RSS comes from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise HarnessError(f"{argv[1:4]} killed after {timeout:.0f} s")
    return Child(proc.returncode, out.decode(), b"".join(err).decode(), t0, t1,
                 usage.ru_maxrss)


_tmp_counter = [0]


def scratch_file() -> Path:
    _tmp_counter[0] += 1
    return WORK / f"tmp-{os.getpid()}-{_tmp_counter[0]}.json"


def run_worker(mode: str, *args, timeout: float = PASS_TIMEOUT_S) -> tuple[Child, dict]:
    """worker.py MODE OUT ARGS...; returns the child and the JSON it wrote."""
    out = scratch_file()
    child = spawn([sys.executable, str(HERE / "worker.py"), mode, str(out)]
                  + [str(a) for a in args], timeout)
    if child.rc != 0 or not out.exists():
        raise HarnessError(f"worker {mode} {args} exited {child.rc}: {child.err[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    out.unlink()
    return child, doc


def setup_samples(workload, size, seed, n: int) -> list:
    samples = []
    for _ in range(n):
        child, doc = run_worker("setup", workload, size, seed)
        samples.append(speed.reference_seconds(doc["samples"], child.t_spawn, doc["ready"]))
    return samples


def source_digest() -> str:
    """sha256 over src/, which names the code measured when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    _, doc = run_worker("env")
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    doc.update(nproc=os.cpu_count(), commit=commit, src_sha256=source_digest())
    return doc


# ---------------------------------------------------------------------------
# verdicts


def load_reference(workload: str, size: str) -> dict:
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc[size] if workload in workloads.ROW_WORKLOADS else doc


def expected_rows(ref: dict, workload: str, seed: int) -> list:
    if workload == "fock-sweep":
        return ref["rows"]
    seeded = ref["seeded"][str(seed % workloads.REPORT_SEEDS)]
    return [seeded.get(r["id"], r) for r in ref["rows"]]


def row_errors(got: list, want: list) -> list:
    """Ids of rows whose verdict differs from the reference or from the
    status known by hand; a missing or extra row is an error too."""
    bad = []
    want_by_id = {r["id"]: r for r in want}
    for row in got:
        ref = want_by_id.pop(row["id"], None)
        if ref is None or row != ref or row["status"] != workloads.expected_status(row["id"]):
            bad.append(row["id"])
    bad += list(want_by_id)
    return bad


def call_ok(child: Child, ref: dict) -> bool:
    return child.rc == ref["rc"] == 0 and child.out == ref["stdout"]


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail(values: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    if best is None:
        return {"p": None, "n": n}
    return {"p": best, "value_ms": percentile(values, best),
            "beyond": n - math.ceil(best / 100.0 * n), "n": n}


# ---------------------------------------------------------------------------
# workloads


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.walls: list = []
        self.raw_walls: list = []       # measured, not speed-corrected
        self.rss_kb: list = []
        self.latencies: list = []       # per user-level call, for call_ms
        self.raw_latencies: list = []   # as measured, not speed-corrected
        self.setup: list = []
        self.info: dict = {}


def rows_pass(out: Outcome, workload, size, seed, want, trace=False) -> dict:
    child, doc = run_worker("pass", workload, size, seed, int(trace))
    bad = row_errors(doc["rows"], want)
    out.attempted += max(len(doc["rows"]), len(want))  # a missing row was attempted too
    out.failed += len(bad)
    out.errors += bad
    out.walls.append(doc["wall_s"])
    out.raw_walls.append(doc["wall_raw_s"])
    out.rss_kb.append(doc["maxrss_kb"])
    # the user-level call here is the whole pass, from process start to exit
    ms = speed.reference_seconds(doc["samples"], child.t_spawn, child.t_end) * 1000.0
    out.latencies.append(FAILED_CALL_MS if bad else ms)
    out.raw_latencies.append(FAILED_CALL_MS if bad else child.ms)
    out.setup.append(speed.reference_seconds(doc["samples"], child.t_spawn, doc["ready"]))
    slowest = sorted(zip(doc["row_ms"], (r["id"] for r in doc["rows"])), reverse=True)[:5]
    out.info["slowest_rows_ms"] = {i: round(ms, 1) for ms, i in slowest}
    return doc


def cli_argv(argv: list) -> list:
    return [sys.executable, "-m", "ltwist.cli"] + argv


def timed_call(argv: list, traced=False, op=0) -> tuple:
    """One `ltwist` call through clicall.py, which samples the host's speed.

    Returns the child, what it wrote (None if nothing) and its latency from
    process start to exit in reference milliseconds."""
    path = scratch_file()
    child = spawn([sys.executable, str(HERE / "clicall.py"), str(path), str(op),
                   str(int(traced))] + argv, CALL_TIMEOUT_S)
    if not path.exists():
        return child, None, None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    path.unlink()
    return child, doc, speed.reference_seconds(doc["samples"], child.t_spawn,
                                               child.t_end) * 1000.0


def cli_pass(out: Outcome, calls: list, refs: dict, traced=False, by_sub=None) -> list:
    """One closed-loop pass over the sequence: each call waits for the last.

    A call's latency is timed_call's, or FAILED_CALL_MS for a failed call.
    Returns the span summaries of a traced pass."""
    latencies, raw, traces = [], [], []
    for op, argv in enumerate(calls):
        child, doc, ms = timed_call(argv, traced, op)
        ok = doc is not None and call_ok(child, refs[json.dumps(argv)])
        out.attempted += 1
        if not ok:
            out.failed += 1
            out.errors.append(" ".join(argv))
            ms = FAILED_CALL_MS
        latencies.append(ms)
        raw.append(child.ms if ok else FAILED_CALL_MS)
        out.rss_kb.append(child.maxrss_kb)
        if by_sub is not None and ok:
            by_sub.setdefault(workloads.subcommand_of(argv), []).append(ms)
        if traced and doc is not None:
            traces.append(doc)
    if traced and len(traces) != len(calls):
        raise HarnessError("a traced call wrote no trace")
    # the sequence's time is the sum of its calls' latencies
    out.walls.append(sum(latencies) / 1000.0)
    out.raw_walls.append(sum(raw) / 1000.0)
    out.latencies += latencies
    out.raw_latencies += raw
    return traces


def defect_probe(argv: list, refs: dict) -> dict:
    """The documented `--s -1/2` spelling, compared with the `--s=-1/2` output."""
    ref = refs[json.dumps(workloads.defect_reference_argv(argv))]
    child = spawn(cli_argv(argv), CALL_TIMEOUT_S)
    return {"call": "ltwist " + " ".join(argv), "exit": child.rc,
            "matches_reference": call_ok(child, ref),
            "stderr_tail": child.err.strip().splitlines()[-1:]}


def measure(workload, size, seed, seconds) -> Outcome:
    """--trace 0: whole passes until `seconds` have elapsed, with set-up
    samples spread over the run."""
    out = Outcome()
    t_start = time.perf_counter()

    def more(last: float) -> bool:
        return time.perf_counter() - t_start + last <= seconds

    if workload in workloads.ROW_WORKLOADS:
        want = expected_rows(load_reference(workload, size), workload, seed)
        out.setup += setup_samples(workload, size, seed, SETUP_PROBES // 2)
        while True:
            t0 = time.perf_counter()
            rows_pass(out, workload, size, seed, want)
            if not more(time.perf_counter() - t0):
                break
        out.setup += setup_samples(workload, size, seed, SETUP_PROBES - SETUP_PROBES // 2)
        out.info["passes"] = len(out.walls)
        return out

    refs = load_reference("cli-cold", size)["calls"]
    calls, defect = workloads.cli_sequence(seed, size)
    while True:
        t0 = time.perf_counter()
        out.setup += setup_samples(workload, size, seed, SETUP_PER_SEQUENCE)
        cli_pass(out, calls, refs)
        if len(out.walls) >= MIN_SEQUENCES and not more(time.perf_counter() - t0):
            break
    known = defect_probe(defect, refs)
    out.info.update(passes=len(out.walls), calls_per_pass=len(calls), known_defect=known,
                    error_rate_with_known_defect=(out.failed + (not known["matches_reference"]))
                    / (out.attempted + 1))
    return out


def end_to_end(workload: str, out: Outcome) -> dict:
    # a row pass is one process; on cli-cold the largest call's peak counts
    rss_kb = max(out.rss_kb) if workload == "cli-cold" else statistics.median(out.rss_kb)
    return {
        "wall_s": statistics.median(out.walls),
        "setup_s": statistics.median(out.setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "call_ms.p50": percentile(out.latencies, 50),
        "call_ms.p90": percentile(out.latencies, 90),
    }


def merge_summaries(summaries: list) -> dict:
    total = {"self_s": {}, "incl_s": {}, "calls": {}, "name_s": {}, "counts": {}, "spans": 0}
    for s in summaries:
        for key in ("self_s", "incl_s", "calls", "name_s", "counts"):
            for k, v in s[key].items():
                total[key][k] = total[key].get(k, 0) + v
        total["spans"] += s["spans"]
    return total


def layer_metrics(s: dict, speed_factor: float) -> dict:
    """Per-layer metrics from a span summary.  Span times are wall seconds;
    speed_factor (the traced pass's reference over wall seconds) turns them
    into reference seconds."""
    counts, calls = s["counts"], s["calls"]
    self_s, incl, name_s = ({k: v * speed_factor for k, v in s[key].items()}
                            for key in ("self_s", "incl_s", "name_s"))

    def calls_of(layer):
        return counts.get(f"{layer}.calls", 0) + sum(
            v for k, v in calls.items() if k.startswith(layer + "."))

    column_calls = counts.get("fock.column_calls", 0)
    built = counts.get("fock.columns_built", 0)
    swept = counts.get("fock.states_swept", 0)
    fock_s = incl.get("fock", 0.0)
    return {
        "exactnum.cyclo_ops": counts.get("exactnum.cyclo_ops", 0),
        "characters.s": self_s.get("characters", 0.0),
        "characters.pf_mul_calls": counts.get("characters.pf_mul_calls", 0),
        "lvalues.s": self_s.get("lvalues", 0.0),
        "lvalues.calls": calls_of("lvalues"),
        "summation.s": self_s.get("summation", 0.0),
        "summation.terms": counts.get("summation.terms", 0),
        "fock.s": self_s.get("fock", 0.0),
        "fock.column_calls": column_calls,
        "fock.columns_built": built,
        "fock.column_hit_ratio": (column_calls - built) / column_calls if column_calls else 0.0,
        "fock.states_swept": swept,
        "fock.states_per_s": swept / fock_s if fock_s else 0.0,
        "qseries.s": self_s.get("qseries", 0.0),
        "qseries.modular_s": name_s.get("qseries.modular_s_check", 0.0),
        "cocycle.build_s": name_s.get("cocycle.build_system", 0.0),
        "cocycle.elim_s": name_s.get("cocycle.nullspace_dim", 0.0),
        "cocycle.rows": counts.get("cocycle.rows", 0),
        "report.checks_s": name_s.get("checks.row", 0.0),
        "report.assemble_ms": self_s.get("report", 0.0) * 1000.0,
        "report.rows": calls.get("checks.row", 0),
        "trace.spans": s["spans"],
    }


def measure_traced(workload, size, seed) -> tuple[Outcome, dict, dict]:
    """--trace 1: one untraced and then one traced pass, then the probes."""
    out = Outcome()
    by_sub: dict = {}
    if workload in workloads.ROW_WORKLOADS:
        want = expected_rows(load_reference(workload, size), workload, seed)
        rows_pass(out, workload, size, seed, want)
        doc = rows_pass(out, workload, size, seed, want, trace=True)
        summary = doc["trace"]
        processes = [{"op": None, "spans": doc["spans"]}]
    else:
        refs = load_reference("cli-cold", size)["calls"]
        calls, _ = workloads.cli_sequence(seed, size)
        cli_pass(out, calls, refs, by_sub=by_sub)
        traces = cli_pass(out, calls, refs, traced=True)
        summary = merge_summaries([t["trace"] for t in traces])
        processes = [{"op": op, "spans": t["spans"]} for op, t in enumerate(traces)]
    untraced, traced = out.walls
    metrics = layer_metrics(summary, traced / out.raw_walls[1])
    metrics["trace.overhead_s"] = traced - untraced
    _, probes = run_worker("probes")
    metrics.update(probes["metrics"])
    imports = [run_worker("import")[1]["import_ms"] for _ in range(IMPORT_PROBES)]
    metrics["cli.import_ms"] = statistics.median(imports)
    for sub in workloads.SUBCOMMANDS:
        xs = by_sub.get(sub)
        metrics[f"cli.call_ms.{sub}"] = statistics.median(xs) if xs else 0.0
    info = {"untraced_wall_s": untraced, "traced_wall_s": traced,
            "untraced_wall_raw_s": out.raw_walls[0], "traced_wall_raw_s": out.raw_walls[1],
            "self_s": summary["self_s"], "calls": summary["calls"],
            "counts": summary["counts"]}
    path = WORK / f"trace-{workload}-{size}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "size": size,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "processes": processes}, fh)
    info["spans_file"] = str(path.relative_to(ROOT))
    return out, metrics, info


# ---------------------------------------------------------------------------


def check_checkout() -> None:
    if not (ROOT / "src" / "ltwist" / "__init__.py").is_file():
        raise HarnessError(f"no ltwist sources under {ROOT / 'src'}; run from a checkout")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks every workload, for the self-test")
    args = p.parse_args(argv)
    try:
        check_checkout()
        WORK.mkdir(exist_ok=True)
        env = environment()
        if args.trace:
            out, metrics, info = measure_traced(args.workload, args.size, args.seed)
            units = PER_LAYER
        else:
            out = measure(args.workload, args.size, args.seed, args.seconds)
            metrics, info, units = end_to_end(args.workload, out), {}, END_TO_END
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info.update(out.info)
    info["error_rate"] = out.failed / out.attempted
    info["errors"] = out.errors[:20]
    info["call_ms_tail"] = tail(out.latencies)
    info["measured_wall_s"] = out.raw_walls
    info["measured_call_ms"] = {"p50": percentile(out.raw_latencies, 50),
                                "p90": percentile(out.raw_latencies, 90)}
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              **info}
    print("result " + json.dumps(report, sort_keys=True), flush=True)
    for name, unit in units.items():
        print(f"  {args.workload:12} {name:32} {metrics[name]:>16.6g} {unit}")
    final = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
             "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
