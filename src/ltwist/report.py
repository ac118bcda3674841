"""Check registry and machine-readable report assembly.

Every verification the package performs is registered here with a stable id
and the exact identity string it certifies.  report_all runs them under one
configuration and emits a deterministic document: with timings disabled the
JSON output is byte-identical across runs.  The rows are independent, so
report_all runs them on every core this process may use, in forked workers
that each hold their own copy of every cache (`_run_checks`); the document
lists the rows in registry order whichever process ran them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ltwist.exactnum import check_precision, scalar_str


@dataclass
class RunConfig:
    moduli_exact: tuple = (5, 7, 9, 11, 12, 13, 15)
    moduli_numeric: tuple = (5, 7, 9, 11, 12, 13)
    moduli_bracket: tuple = (3, 5, 7)
    moduli_decomposition: tuple = (5, 7)
    moduli_energy: tuple = (5, 7, 9, 11, 13)
    cutoff: int = 30
    series_order: int = 50
    euler_order: int = 200
    jacobi_order: int = 60
    jacobi_z_range: int = 6
    qtrace_order: int = 24
    modular_order: int = 400
    n_terms: int = 100_000
    tolerance: float = 1e-3
    numeric_residual: float = 1e-6
    precision_bits: int = 256
    seed: int = 0
    output_format: str = "json"
    timings: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    def validate(self) -> None:
        """Keep every bound inside the module guards."""
        from ltwist.fock import check_cutoff, check_qtrace_order

        check_cutoff(self.cutoff)
        check_qtrace_order(self.qtrace_order, "qtrace_order")
        if self.n_terms < 1000:
            raise ValueError("n_terms must be at least 1000")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.numeric_residual > 0:
            raise ValueError("numeric_residual must be positive")
        check_precision(self.precision_bits)
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError("output format must be json, csv, or text")


CONFIG_KEYS = set(RunConfig().to_dict())
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def config_from_mapping(data: dict, base: Optional[RunConfig] = None) -> RunConfig:
    cfg = base or RunConfig()
    for key, raw in data.items():
        key = key.strip().lower().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        try:
            if isinstance(current, tuple):
                items = raw.replace(",", " ").split() if isinstance(raw, str) else raw
                value = tuple(int(x) for x in items)
            elif isinstance(current, bool):
                value = raw if isinstance(raw, bool) else _BOOLS[str(raw).strip().lower()]
            elif isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = str(raw)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"config key {key!r} cannot take the value {raw!r}") from None
        setattr(cfg, key, value)
    return cfg


def load_config_file(path: str, base: Optional[RunConfig] = None) -> RunConfig:
    """Flat key=value text; blank lines and #-comments ignored."""
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            k, v = line.split("=", 1)
            data[k.strip()] = v.strip()
    return config_from_mapping(data, base)


def config_from_env(environ, base: Optional[RunConfig] = None) -> RunConfig:
    """Fields from LTWIST_<FIELD> variables; as in a config file, a name
    that is not a field raises `unknown config key`."""
    prefix = "LTWIST_"
    data = {key[len(prefix):]: val for key, val in environ.items() if key.startswith(prefix)}
    return config_from_mapping(data, base)


def fmt_float(x: float) -> str:
    return f"{float(x):.12e}"


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, complex):
        return f"{fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{fmt_float(abs(v.imag))}j"
    if isinstance(v, str):
        return v
    try:
        return scalar_str(v)
    except Exception:
        return str(v)


@dataclass
class Check:
    id: str
    formula: str
    fn: Callable


@dataclass
class CheckResult:
    id: str
    formula: str
    status: str               # pass | fail | skip
    value: str = ""
    witness: Optional[str] = None
    runtime_ms: Optional[float] = None


class SkipCheck(Exception):
    """Raised by a check body when the configuration makes it inapplicable."""


def _run_check(check: Check, cfg: RunConfig) -> CheckResult:
    t0 = time.perf_counter()
    try:
        value = check.fn(cfg)
        status, witness = "pass", None
        if isinstance(value, tuple):
            ok, value, witness = value
            status = "pass" if ok else "fail"
            witness = None if ok else fmt_value(witness)
    except SkipCheck as exc:
        status, value, witness = "skip", "", str(exc)
    except ValueError as exc:
        if "cutoff too small" in str(exc):
            status, value, witness = "skip", "", f"window empty: {exc}"
        else:
            status, value, witness = "fail", "", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a failed identity surfaces, never disappears
        status, value, witness = "fail", "", f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    return CheckResult(
        id=check.id,
        formula=check.formula,
        status=status,
        value=fmt_value(value),
        witness=witness,
        runtime_ms=round(ms, 3) if cfg.timings else None,
    )


def _cores() -> int:
    """The cores this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_checks(registry: list, cfg: RunConfig) -> list:
    """Run every row of `registry`; the results come back in its order.

    The caller forks one worker per further core, at most one process per
    row, and works too.  The queue is one pipe that holds the next unrun row
    index: a process reads it, writes back its successor and runs the row, so
    the rows are taken in registry order and the pipe never holds more than
    one index, whatever the registry's size.  A worker pickles its (index,
    CheckResult) pairs back through a pipe of its own and ends with
    os._exit.  With one core the same loop runs in the caller alone.

    A row a worker took and did not report, because the worker died, a row
    body raised a BaseException there, or its results came back short, makes
    this raise a RuntimeError naming every row not run: no document is
    assembled with rows missing.  Every worker is killed and reaped on every
    way out, an interrupt included.
    """
    import pickle
    import signal

    n = len(registry)
    queue_r, queue_w = os.pipe()
    os.write(queue_w, (0).to_bytes(8, "little"))

    def drain() -> list:
        done = []
        while True:
            i = int.from_bytes(os.read(queue_r, 8), "little")
            os.write(queue_w, (i + 1).to_bytes(8, "little"))
            if i >= n:
                return done
            done.append((i, _run_check(registry[i], cfg)))

    pids, pipes = [], []
    try:
        for _ in range(min(n, _cores()) - 1):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    try:
                        out.write(pickle.dumps(drain()))
                        out.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        results = dict(drain())
        for pipe in pipes:
            with pipe:
                data = pipe.read()
            try:
                results.update(pickle.loads(data))
            except (pickle.UnpicklingError, EOFError):
                pass  # a short pickle: its rows count as not run
        missing = [registry[i].id for i in range(n) if i not in results]
        if missing:
            raise RuntimeError(f"report rows not run: {', '.join(missing)}")
        return [results[i] for i in range(n)]
    finally:
        for pid in pids:  # a worker that sent its results has nothing left to do
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        os.close(queue_r)
        os.close(queue_w)


def report_all(cfg: Optional[RunConfig] = None) -> dict:
    """Run the whole verification suite and assemble the report document.

    The rows run on every core (`_run_checks`); the document is the one a
    run of them one after another in registry order gives.
    """
    from ltwist import checks  # imported here: checks imports this module

    cfg = cfg or RunConfig()
    cfg.validate()
    results = _run_checks(checks.build_registry(cfg), cfg)
    summary = {
        "total": len(results),
        "passed": sum(r.status == "pass" for r in results),
        "failed": sum(r.status == "fail" for r in results),
        "skipped": sum(r.status == "skip" for r in results),
    }
    return {
        "tool": "ltwist",
        "config": cfg.to_dict(),
        "checks": [asdict(r) for r in results],
        "summary": summary,
    }


def report_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = ["id", "status", "value", "witness", "runtime_ms", "formula"]


def report_to_csv(doc: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in doc["checks"]:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in CSV_COLUMNS})
    return buf.getvalue()


def report_to_text(doc: dict) -> str:
    lines = []
    width = max((len(r["id"]) for r in doc["checks"]), default=10)
    for r in doc["checks"]:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[r["status"]]
        extra = f"  {r['value']}" if r["value"] else ""
        if r["witness"]:
            extra += f"  [{r['witness']}]"
        if r["runtime_ms"] is not None:
            extra += f"  ({r['runtime_ms']} ms)"
        lines.append(f"{mark}  {r['id']:<{width}}{extra}")
    s = doc["summary"]
    lines.append(
        f"{s['passed']}/{s['total']} passed, {s['failed']} failed, {s['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"
