"""One `ltwist` call in a fresh interpreter, with host-speed samples.

    python3 perfbench/clicall.py OUT OP TRACE ARGS...

Starts the host-speed sampler (speed.py) and, when TRACE is 1, the span
wrappers, then runs the CLI with ARGS exactly as the `ltwist` entry point
does: its stdout and exit code are the call's.  At exit it writes the speed
samples and, when traced, the span summary and the spans, tagged with
operation number OP, to OUT.
"""

from __future__ import annotations

import json
import sys

import speed


def main() -> None:
    sampler = speed.Sampler().start()
    out, op, trace, args = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
    doc = {}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = op
    from ltwist import cli

    code = cli.dispatch(args)
    sys.stdout.flush()
    if trace:
        doc = {"trace": tracer.summary(), "spans": tracer.spans()}
    doc["samples"] = sampler.stop()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
