"""The report's row runner, `report._run_checks`, on synthetic registries.

Each test starts at most two processes (the core count is patched), bounds
its time with an alarm, and leaves no child behind: a worker is reaped on
every way out of the runner.
"""

import os
import pickle
import signal
import time

import pytest

from ltwist import report
from ltwist.report import Check, RunConfig, _run_checks

_PARENT = os.getpid()
_CORES = report._cores


@pytest.fixture(autouse=True)
def two_cores_and_no_child_left(monkeypatch):
    monkeypatch.setattr(report, "_cores", lambda: 2)

    def too_long(*_):
        raise TimeoutError("the row runner took over 60 s")

    previous = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _registry(n, body):
    """n rows; row i's value is str(body(i))."""
    return [Check(f"r{i}", "synthetic", lambda cfg, i=i: str(body(i))) for i in range(n)]


def _in_worker() -> bool:
    return os.getpid() != _PARENT


def _dwelling(i):
    """The pid of the process that ran row i; the caller dwells on its
    rows, so the worker surely takes some."""
    if not _in_worker():
        time.sleep(0.02)
    return os.getpid()


def test_a_large_queue_comes_back_in_registry_order():
    # far more indices than a pipe buffer holds: the queue passes one
    # index at a time, and the results come back in order
    rows = _run_checks(_registry(20_000, lambda i: i), RunConfig())
    assert [(r.id, r.status, r.value) for r in rows] == [
        (f"r{i}", "pass", str(i)) for i in range(20_000)]


def test_two_workers_share_the_rows():
    rows = _run_checks(_registry(20, _dwelling), RunConfig())
    assert [r.status for r in rows] == ["pass"] * 20
    assert {r.value for r in rows} > {str(_PARENT)}  # and one other pid
    assert len({r.value for r in rows}) == 2


def test_one_process_runs_every_row_where_fork_is_missing(monkeypatch):
    monkeypatch.setattr(report, "_cores", _CORES)
    monkeypatch.delattr(os, "fork")
    assert report._cores() == 1
    rows = _run_checks(_registry(5, lambda i: os.getpid()), RunConfig())
    assert [r.value for r in rows] == [str(_PARENT)] * 5


def _raises_not_run(registry):
    with pytest.raises(RuntimeError, match="^report rows not run: ") as info:
        _run_checks(registry, RunConfig())
    named = str(info.value).split(": ", 1)[1].split(", ")
    assert named and set(named) <= {c.id for c in registry}
    return named


def test_a_worker_that_exits_without_results_fails_the_run():
    def body(i):
        if _in_worker():
            os._exit(0)
        return _dwelling(i)

    _raises_not_run(_registry(6, body))


def test_a_base_exception_in_a_worker_row_fails_the_run():
    # _run_check turns an Exception into a failed row; SystemExit and
    # KeyboardInterrupt pass it, and end the worker before it reports
    for exc in (SystemExit(0), KeyboardInterrupt()):
        def body(i, exc=exc):
            if _in_worker():
                raise exc
            return _dwelling(i)

        _raises_not_run(_registry(6, body))


def test_a_short_pickle_fails_the_run(monkeypatch):
    # only a worker pickles; its rows count as not run, the caller's do not
    real = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj, *a, **k: real(obj, *a, **k)[:-3])
    registry = _registry(6, _dwelling)
    named = _raises_not_run(registry)
    assert len(named) < len(registry)


def test_an_interrupt_in_the_caller_kills_and_reaps_the_worker():
    # the worker is stuck in a row; the caller's interrupt leaves nothing
    # running behind it
    def body(i):
        if _in_worker():
            time.sleep(30)
        time.sleep(0.2)
        raise KeyboardInterrupt

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run_checks(_registry(4, body), RunConfig())
    assert time.monotonic() - t0 < 10
