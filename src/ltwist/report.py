"""Check registry and machine-readable report assembly.

Every verification the package performs is registered here with a stable id
and the exact identity string it certifies.  report_all runs them under one
configuration and emits a deterministic document: with timings disabled the
JSON output is byte-identical across runs.
"""

from __future__ import annotations

import json
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


def report_all(cfg: Optional[RunConfig] = None) -> dict:
    """Run the whole verification suite and assemble the report document."""
    from ltwist import checks  # imported here: checks imports this module

    cfg = cfg or RunConfig()
    cfg.validate()
    results = [_run_check(c, cfg) for c in checks.build_registry(cfg)]
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
