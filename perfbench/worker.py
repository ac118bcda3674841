"""One fresh-interpreter step of a benchmark run.

    python3 perfbench/worker.py setup  OUT WORKLOAD SIZE SEED
    python3 perfbench/worker.py pass   OUT WORKLOAD SIZE SEED TRACE
    python3 perfbench/worker.py probes OUT
    python3 perfbench/worker.py import OUT
    python3 perfbench/worker.py env    OUT
    python3 perfbench/worker.py seeded OUT SIZE SEED

`setup` stops at the first verification call; `pass` runs one pass of a row
workload (fock-sweep or report-rest); `probes` times fixed small inputs per
layer; `import` times importing ltwist.cli; `env` describes the arithmetic
backend and library versions; `seeded` gives the report-rest rows that depend
on RunConfig.seed, for pinning.  Each writes one JSON object to OUT.  The
`ready` field is a time.perf_counter() reading, which on Linux is the
system-wide monotonic clock, so the parent can subtract its own spawn time
from it.  `setup` and `pass` also write the host-speed samples taken through
the process's life (see speed.py), from which the parent turns its own
readings into reference seconds.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import speed


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _setup(workload: str, size: str, seed: int):
    """Imports, RunConfig and registry or call list; returns the pass body."""
    import workloads

    if workload == "cli-cold":
        from ltwist import cli

        workloads.cli_sequence(seed, size)
        cli.build_parser()
        return None
    from ltwist.report import RunConfig

    if workload == "fock-sweep":
        from ltwist import checks

        cfg = RunConfig(timings=True, **workloads.FOCK_CONFIG[size])
        rows = [c for c in checks.build_registry(cfg)
                if c.id.startswith(workloads.FOCK_FAMILIES[size])]

        def body():
            return [_verdict(c, cfg) for c in rows]

        return body
    from ltwist.report import report_all, report_to_json

    # timings only records the per-row time report_all measures anyway
    cfg = RunConfig(timings=True, **workloads.report_config(size, seed))

    def body():
        doc = report_all(cfg)
        report_to_json(doc)
        out = []
        for row in doc["checks"]:
            row = dict(row)
            ms = row.pop("runtime_ms")
            out.append((row, ms))
        return out

    return body


def _verdict(check, cfg):
    """A registry row's verdict and time, from the program's own row runner."""
    from dataclasses import asdict

    from ltwist.report import _run_check

    row = asdict(_run_check(check, cfg))
    return row, row.pop("runtime_ms")


def _seeded_rows(size: str, seed: int) -> dict:
    """The report-rest rows whose value depends on RunConfig.seed."""
    import workloads
    from ltwist import checks
    from ltwist.report import RunConfig

    cfg = RunConfig(timings=True, **workloads.report_config(size, seed))
    return {c.id: _verdict(c, cfg)[0] for c in checks.build_registry(cfg)
            if c.id in workloads.SEEDED_ROWS}


def _environment() -> dict:
    import mpmath
    import numpy

    from ltwist import exactnum

    rat = exactnum.Rat
    return {
        "python": sys.version.split()[0],
        "rat_backend": f"{rat.__module__}.{rat.__name__}",
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv: list) -> None:
    mode, out = argv[0], argv[1]
    if mode == "import":
        sampler = speed.Sampler().start()
        t0 = time.perf_counter()
        import ltwist.cli  # noqa: F401

        t1 = time.perf_counter()
        _write(out, {"import_ms": speed.reference_seconds(sampler.stop(), t0, t1) * 1000.0})
        return
    if mode == "probes":
        import probes

        # every probe is a time: scale them all to reference seconds
        sampler = speed.Sampler().start()
        t0 = time.perf_counter()
        metrics = probes.run_all()
        t1 = time.perf_counter()
        factor = speed.reference_seconds(sampler.stop(), t0, t1) / (t1 - t0)
        _write(out, {"metrics": {k: v * factor for k, v in metrics.items()}})
        return
    if mode == "env":
        _write(out, _environment())
        return
    if mode == "seeded":
        _write(out, {"rows": _seeded_rows(argv[2], int(argv[3]))})
        return

    workload, size, seed = argv[2], argv[3], int(argv[4])
    sampler = speed.Sampler().start()
    tracer = None
    if mode == "pass" and argv[5] == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    body = _setup(workload, size, seed)
    ready = time.perf_counter()
    if mode == "setup":
        _write(out, {"ready": ready, "samples": sampler.stop()})
        return
    results = body()
    end = time.perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = sampler.stop()
    doc = {
        "ready": ready,
        "wall_s": speed.reference_seconds(samples, ready, end),
        "wall_raw_s": end - ready,
        "samples": samples,
        "rows": [r for r, _ in results],
        "row_ms": [ms for _, ms in results],
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
        doc["spans"] = tracer.spans()
    _write(out, doc)

if __name__ == "__main__":
    main(sys.argv[1:])
