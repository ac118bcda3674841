import json
import os
from functools import lru_cache
import random
import subprocess
import sys
from dataclasses import asdict
from types import MappingProxyType

import pytest

from ltwist import checks, cli, fock, qseries
from ltwist.characters import even_twist_group
from ltwist.checks import build_registry
from ltwist.exactnum import QuotientRing
from ltwist.report import (
    RunConfig,
    _run_check,
    config_from_env,
    config_from_mapping,
    load_config_file,
    report_all,
    report_to_csv,
    report_to_json,
    report_to_text,
)


def small_config(**over):
    base = dict(
        moduli_exact=(5,),
        moduli_numeric=(5,),
        moduli_bracket=(3,),
        moduli_decomposition=(),
        moduli_energy=(5,),
        cutoff=16,
        euler_order=50,
        jacobi_order=24,
        jacobi_z_range=4,
        series_order=24,
        qtrace_order=12,
        modular_order=200,
        n_terms=20_000,
    )
    base.update(over)
    return config_from_mapping(base, RunConfig())


def test_registry_size():
    assert len(build_registry(RunConfig())) >= 40


def test_report_document_and_determinism():
    cfg = small_config()
    doc1 = report_all(cfg)
    doc2 = report_all(small_config())
    assert report_to_json(doc1) == report_to_json(doc2)
    assert doc1["summary"]["total"] == len(doc1["checks"])
    for row in doc1["checks"]:
        assert set(row) == {"id", "formula", "status", "value", "witness", "runtime_ms"}
        assert row["runtime_ms"] is None  # timings disabled by default
    # the one designed failure is the printed squares value; nothing else fails
    failing = [r["id"] for r in doc1["checks"] if r["status"] == "fail"]
    assert failing == ["summation:squares"]


def test_report_small_cutoff_skips():
    cfg = small_config(cutoff=4)
    doc = report_all(cfg)
    skipped = {r["id"]: r for r in doc["checks"] if r["status"] == "skip"}
    assert any(r.startswith("fock:") for r in skipped)
    for row in skipped.values():
        assert row["witness"]  # skip always carries a reason


def test_report_formats():
    cfg = small_config(cutoff=4, moduli_bracket=(), moduli_energy=())
    doc = report_all(cfg)
    csv_text = report_to_csv(doc)
    header = csv_text.splitlines()[0]
    assert header == "id,status,value,witness,runtime_ms,formula"
    assert len(csv_text.splitlines()) == len(doc["checks"]) + 1
    text = report_to_text(doc)
    assert "passed" in text.splitlines()[-1]


def test_config_file_and_env(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("cutoff = 18\nseed=3\nmoduli_bracket = 3 5\n# comment\n\n")
    cfg = load_config_file(str(p))
    assert cfg.cutoff == 18 and cfg.seed == 3 and cfg.moduli_bracket == (3, 5)
    cfg2 = config_from_env({"LTWIST_CUTOFF": "22", "OTHER": "1"}, cfg)
    assert cfg2.cutoff == 22
    # a misspelt name fails as it does in a config file, not silently
    with pytest.raises(ValueError, match="unknown config key 'cutof'"):
        config_from_env({"LTWIST_CUTOF": "10"}, cfg)
    with pytest.raises(ValueError):
        config_from_mapping({"not_a_key": 1})
    # a value that does not parse raises and names its key
    for env, key in [({"LTWIST_TIMINGS": "on"}, "timings"), ({"LTWIST_SEED": "abc"}, "seed"),
                     ({"LTWIST_TOLERANCE": "tiny"}, "tolerance"),
                     ({"LTWIST_MODULI_BRACKET": "3,x"}, "moduli_bracket")]:
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            config_from_env(env, cfg)
    for spelling, want in [("1", True), ("TRUE", True), ("Yes", True),
                           ("0", False), ("false", False), ("NO", False)]:
        assert config_from_env({"LTWIST_TIMINGS": spelling}).timings is want
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_cli_exact_commands(capsys):
    assert cli.dispatch(["classnumber", "--q", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli.dispatch(["lvalue", "--modulus", "5", "--char", "2", "--point", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "-2/5"
    assert cli.dispatch(["classnumber", "--q", "5"]) == 2
    assert "out of scope" in capsys.readouterr().err


def test_cli_cesaro(capsys):
    code = cli.dispatch([
        "cesaro", "--modulus", "5", "--char", "2", "--weight", "linear", "--exact",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "-2/5"
    assert doc["mode"] == "exact-closed-form"
    code = cli.dispatch([
        "cesaro", "--modulus", "5", "--char", "2", "--weight", "linear",
        "--depth", "2", "--terms", "50000", "--tol", "1e-3",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(float(doc["value"]) + 0.4) < 1e-3
    assert doc["residual"] < 1e-3


def test_cli_fock_and_qseries(capsys):
    assert cli.dispatch([
        "fock", "verify", "--modulus", "5", "--cutoff", "14", "--theorem", "3.28",
        "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["status"] == "pass"
    assert cli.dispatch([
        "qseries", "verify", "--identity", "euler", "--order", "80",
    ]) == 0
    capsys.readouterr()
    assert cli.dispatch([
        "qseries", "verify", "--identity", "316", "--k", "2", "--j", "1",
        "--order", "30",
    ]) == 0
    capsys.readouterr()
    assert cli.dispatch(["qseries", "verify", "--identity", "euler", "--order", "0"]) == 2
    capsys.readouterr()
    assert cli.dispatch(["cocycle", "verify", "--field", "Q", "--height", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 2


@pytest.mark.parametrize("order", [["--order", "0"], ["--order=-1"]])
def test_qseries_modular_rejects_a_nonpositive_order(order, capsys):
    assert cli.dispatch(["qseries", "modular", *order]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "order must be positive\n")


@pytest.mark.parametrize("k", ["0", "-1", "1"])
def test_qseries_modular_names_a_k_below_the_family(k, capsys):
    # The family starts at k = 2: a smaller --k is one usage error naming
    # the flag, raised before any series is evaluated, and the function
    # refuses it by its own name.
    assert cli.dispatch(["qseries", "modular", f"--k={k}", "--order", "50"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --k must be at least 2\n")
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        qseries.modular_s_check(int(k), order=50)


def test_qseries_modular_runs_at_the_smallest_k(capsys):
    assert cli.dispatch(["qseries", "modular", "--k=2", "--order", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 2


@pytest.mark.parametrize("order", ["0", "-2", "9"])
def test_fock_qtrace_names_the_order_below_its_bound(order, capsys):
    # the window of a trace needs order >= 2N; the user gave no cutoff, so
    # the message names --order
    assert cli.dispatch(["fock", "qtrace", "--modulus", "5", "--index", "1",
                         "--mode", "char", f"--order={order}"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --order must be at least 2 * modulus = 10\n")
    assert cli.dispatch(["fock", "qtrace", "--modulus", "5", "--index", "1",
                         "--mode", "kernel", "--order", "10"]) == 0


def test_fock_qtrace_names_the_order_above_its_bound(capsys):
    # the walk's depth is the order; past MAX_BASIS_DEGREE it is a usage
    # error, not a RecursionError read as a failed identity
    assert cli.dispatch(["fock", "qtrace", "--modulus", "5", "--index", "1",
                         "--mode", "char", "--order", "61"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --order must lie in 0..60\n")
    with pytest.raises(ValueError, match="cutoff must lie in 0..60"):
        fock.qtrace(even_twist_group(5), 1, "kernel", 61)


def test_char_cross_names_the_order_above_its_bound(capsys):
    # verify_qtrace_char walks to degree order + 2
    argv = ["qseries", "verify", "--identity", "char-cross", "--k", "2", "--order", "59"]
    assert cli.dispatch(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --order must be at most 58\n")


def test_report_rejects_a_qtrace_order_past_the_walk_bound(capsys, monkeypatch):
    monkeypatch.setenv("LTWIST_QTRACE_ORDER", "59")
    assert cli.dispatch(["report"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: qtrace_order must be at most 58\n")
    RunConfig(qtrace_order=58).validate()


def test_cesaro_rejects_a_negative_depth(capsys):
    # a usage error (exit 2), not a divergent series (exit 1)
    assert cli.dispatch(["cesaro", "--modulus", "5", "--char", "2", "--depth", "-1"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: depth must lie in 0..4\n")


@pytest.mark.parametrize("precision", ["53", "100"])
def test_dirichlet_avg_rejects_a_nan_exponent(precision, capsys):
    # NaN lies in no half-plane: both precision paths give a usage error
    assert cli.dispatch(["dirichlet-avg", "--modulus", "5", "--char", "2", "--s=nan",
                         "--terms", "2000", "--precision", precision]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: outside proven half-plane\n")


@pytest.mark.parametrize("precision", ["53", "100"])
@pytest.mark.parametrize("s", ["inf", "1e400"])
def test_dirichlet_avg_rejects_an_infinite_exponent(s, precision, capsys):
    # 1e400 reads as the float infinity, which no path may sum as a number
    assert cli.dispatch(["dirichlet-avg", "--modulus", "5", "--char", "2", f"--s={s}",
                         "--terms", "2000", "--precision", precision]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: outside proven half-plane\n")


@pytest.mark.parametrize("precision", ["0", "-5", "10", "63"])
def test_qseries_modular_shares_the_report_precision_floor(precision, capsys):
    # Below 64 bits the tail and condition bounds 2^(-+precision/2) cannot
    # support a residual; the CLI, the function and the report's
    # precision_bits refuse the same values, each naming its own input.
    assert cli.dispatch(["qseries", "modular", "--k", "2", "--order", "100",
                         f"--precision={precision}"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --precision must be at least 64\n")
    with pytest.raises(ValueError, match="^precision_bits must be at least 64$"):
        qseries.modular_s_check(2, order=100, precision_bits=int(precision))
    with pytest.raises(ValueError, match="^precision_bits must be at least 64$"):
        RunConfig(precision_bits=int(precision)).validate()


def test_qseries_modular_runs_at_the_precision_floor(capsys):
    assert cli.dispatch(["qseries", "modular", "--k", "2", "--order", "100",
                         "--precision", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["precision_bits"] == 64
    RunConfig(precision_bits=64).validate()


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_dirichlet_avg_rejects_a_precision_below_one_bit(precision, capsys):
    assert cli.dispatch(["dirichlet-avg", "--modulus", "5", "--char", "2", "--s=2",
                         "--terms", "2000", f"--precision={precision}"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --precision must be at least 1\n")


@pytest.mark.parametrize("text", ["1/2/3", "1/0", "1.5/2"])
@pytest.mark.parametrize("flag, argv", [
    ("--s", ["dirichlet-avg", "--modulus", "5", "--char", "2", "--terms", "2000"]),
    ("--tol", ["cesaro", "--modulus", "5", "--char", "2"]),
], ids=["dirichlet-avg", "cesaro"])
def test_malformed_rationals_name_the_flag(flag, argv, text, capsys):
    assert cli.dispatch(argv + [f"{flag}={text}"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {flag} takes a number or p/q, "
                                      "p and q != 0 integers\n")


@pytest.mark.parametrize("tol", ["0", "-1", "0/1", "nan"])
def test_cesaro_rejects_a_nonpositive_tolerance(tol, capsys):
    # a usage error (exit 2), not a divergent series (exit 1)
    assert cli.dispatch(["cesaro", "--modulus", "5", "--char", "2", f"--tol={tol}"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: tolerance must be positive\n")


@pytest.mark.parametrize("key", ["TOLERANCE", "NUMERIC_RESIDUAL"])
def test_report_rejects_a_nonpositive_tolerance(key, capsys, monkeypatch):
    monkeypatch.setenv(f"LTWIST_{key}", "0")
    assert cli.dispatch(["report"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {key.lower()} must be positive\n")
    with pytest.raises(ValueError, match="tolerance must be positive"):
        RunConfig(tolerance=-1e-3).validate()


def test_cocycle_verify_reads_the_basis_off_the_dimension(monkeypatch, capsys):
    # nullspace_dim returns [m, m^3] as constructed, checked against every
    # row, so the CLI's basis flag is the dimension test: a larger null space
    # prints false and exits 1
    from ltwist import cocycle

    real = cocycle.nullspace_dim
    monkeypatch.setattr(cocycle, "nullspace_dim", lambda sys_: (3, real(sys_)[1]))
    assert cli.dispatch(["cocycle", "verify", "--field", "Q(sqrt2)", "--height", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["dimension"], doc["basis_is_m_m3"], doc["status"]) == (3, False, "fail")


def test_qseries_314_names_a_first_difference_at_exponent_0(monkeypatch, capsys):
    # a difference at q^0 is still a difference: the detail names it
    from ltwist import qseries

    real = qseries.specialize_314

    def off_at_0(k, j, order):
        lhs, rhs = real(k, j, order)
        return lhs, rhs + qseries.PuiseuxSeries.monomial(0, 1, order=rhs.order)

    monkeypatch.setattr(qseries, "specialize_314", off_at_0)
    argv = ["qseries", "verify", "--identity", "314", "--k", "2", "--j", "1", "--order", "20"]
    assert cli.dispatch(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["detail"]) == ("fail", "first difference at 0")


@pytest.mark.parametrize("argv, value", [
    (["cesaro", "--modulus", "5", "--char", "1"], "6.000300932892e-01+2.000100326057e-01j"),
    (["cesaro", "--modulus", "5", "--char", "2"], "2.507899884637e-05"),
    (["cesaro", "--modulus", "5", "--char", "3"], "6.000300932892e-01-2.000100326057e-01j"),
    (["dirichlet-avg", "--modulus", "5", "--char", "2", "--s", "-1/2"],
     "-2.366448346711e-01+0.000000000000e+00j"),
    (["dirichlet-avg", "--modulus", "5", "--char", "3", "--s", "-1/2"],
     "3.457474051068e-01-1.320870291754e-01j"),
])
def test_cli_numeric_values_use_the_report_number_format(capsys, argv, value):
    assert cli.dispatch(argv + ["--terms", "20000"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value


def test_cli_dirichlet_avg_negative_rational(capsys):
    base = ["dirichlet-avg", "--modulus", "5", "--char", "2", "--terms", "20000"]
    joined = cli.dispatch(base + ["--s=-1/2"])
    want = capsys.readouterr().out
    spaced = cli.dispatch(base + ["--s", "-1/2"])
    got = capsys.readouterr().out
    assert joined == 0
    assert (spaced, got) == (joined, want)


def test_checks_fail_under_optimize():
    """Check bodies test with _require, not assert, so `python -O` cannot
    turn a broken identity into a pass."""
    code = (
        "import json\n"
        "from ltwist import checks, cocycle\n"
        "from ltwist.report import RunConfig, _run_check\n"
        "real = cocycle.nullspace_dim\n"
        "cocycle.nullspace_dim = lambda s: (3,) + tuple(real(s)[1:])\n"
        "row = next(c for c in checks.build_registry() if c.id == 'cocycle:Q')\n"
        "r = _run_check(row, RunConfig())\n"
        "print(json.dumps([__debug__, r.status, r.witness]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, "fail", "AssertionError: ('Q', 3, 3)"]


def test_removed_jobs_option_is_rejected(tmp_path, capsys):
    # the checks are pure Python and hold the GIL, so the report runs them in
    # one thread; the option that set a thread pool is gone everywhere
    assert cli.dispatch(["report", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    cfgfile = tmp_path / "jobs.cfg"
    cfgfile.write_text("jobs = 2\n")
    with pytest.raises(ValueError, match="unknown config key 'jobs'"):
        load_config_file(str(cfgfile))
    with pytest.raises(ValueError, match="unknown config key 'jobs'"):
        config_from_env({"LTWIST_JOBS": "2"})
    assert "jobs" not in RunConfig().to_dict()


_WATCHED = ("concurrent.futures", "logging", "dataclasses", "ltwist.report", "numpy",
            "mpmath")

# A cold call compiles what it imports, so each loads only what its
# subcommand runs: one call from each of perfbench's cli-cold pools, and
# `cesaro --exact`.  Character 2 mod 5 is real: complex() of a complex
# character's value would load mpmath.
_FOOTPRINTS = [
    ([], ()),  # `import ltwist.cli` alone
    (["lvalue", "--modulus", "7", "--char", "3", "--point", "-1"], ()),
    (["classnumber", "--q", "23"], ()),
    (["cesaro", "--modulus", "5", "--char", "2", "--depth", "1"],
     ("dataclasses", "ltwist.report", "numpy")),
    (["cesaro", "--modulus", "5", "--char", "2", "--exact"], ()),
    (["dirichlet-avg", "--modulus", "5", "--char", "2", "--s", "1/2"],
     ("dataclasses", "ltwist.report", "numpy")),
    (["qseries", "verify", "--identity", "euler", "--order", "80"], ()),
    (["qseries", "modular", "--k", "2", "--order", "100", "--precision", "128"], ("mpmath",)),
    (["cocycle", "verify", "--field", "Q(i)", "--height", "3"], ()),
    (["fock", "qtrace", "--modulus", "5", "--index", "1", "--mode", "char", "--order", "16"],
     ()),
    (["fock", "verify", "--modulus", "3", "--cutoff", "12", "--theorem", "2.3"], ()),
]


def _loaded_after(code: str, argv=()) -> str:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code += f"\nprint([m for m in {_WATCHED!r} if m in sys.modules])\n"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_calls_load_only_what_they_run():
    found = {
        " ".join(argv): _loaded_after(
            "import sys\nfrom ltwist import cli\n"
            + ("cli.dispatch(sys.argv[1:])" if argv else ""), argv)
        for argv, _ in _FOOTPRINTS
    }
    assert found == {
        " ".join(argv): str([m for m in _WATCHED if m in want]) for argv, want in _FOOTPRINTS
    }
    # the report's rows load numpy with `checks`, before any of them runs
    assert _loaded_after("import sys\nimport ltwist.checks") == str(
        ["dataclasses", "ltwist.report", "numpy"])


def test_cli_usage_errors(capsys):
    assert cli.dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.dispatch(["qseries", "verify", "--identity", "nope"]) == 2
    capsys.readouterr()


def test_cli_file_errors_exit_2(tmp_path, capsys, monkeypatch):
    # a file that cannot be read or written is a usage error: one line on
    # stderr and exit 2, not a traceback and the exit of a failed identity
    missing = tmp_path / "no-such-dir"
    assert cli.dispatch(["report", "--config", str(missing / "r.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "r.cfg" in err and "Traceback" not in err
    monkeypatch.setattr("ltwist.report.report_all", lambda cfg: {"summary": {"failed": 0}})
    assert cli.dispatch(["report", "--format", "json", "--out", str(missing / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "r.json" in err and "Traceback" not in err


def test_report_all_leaves_the_global_rng_alone():
    # the seeded rows draw from their own random.Random(cfg.seed)
    random.seed(20)
    state = random.getstate()
    report_all(small_config(cutoff=4, moduli_bracket=(), moduli_energy=()))
    assert random.getstate() == state


def test_qtrace_char_row_and_cli_give_one_verdict(monkeypatch, capsys):
    calls = []
    real = fock.verify_qtrace_char
    monkeypatch.setattr(fock, "verify_qtrace_char",
                        lambda k, order: calls.append((k, order)) or real(k, order))
    argv = ["qseries", "verify", "--identity", "char-cross", "--k", "2", "--order", "12"]
    assert cli.dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert checks.check_qtrace_char(RunConfig(qtrace_order=12), 2) == (
        True, "orders up to 12", None)
    assert calls == [(2, 12), (2, 12)]
    # a failing verdict reads the same in both
    monkeypatch.setattr(fock, "verify_qtrace_char",
                        lambda k, order: fock.VerifyResult(False, 1, (1, 5)))
    assert cli.dispatch(argv) == 1
    assert json.loads(capsys.readouterr().out)["detail"] == "i=1: first diff 5"
    assert checks.check_qtrace_char(RunConfig(), 2) == (False, "", "i=1: first diff 5")


def test_cli_fock_verify_rejects_a_cutoff_outside_the_report_bounds(capsys):
    # a negative cutoff is a usage error, as it is for `report`, not five
    # skipped or passing rows
    for cutoff in ("-5", "61"):
        assert cli.dispatch(["fock", "verify", "--modulus", "5", "--cutoff", cutoff]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cutoff must lie in 0..60" in err


def test_cli_fock_small_cutoff_skips(capsys):
    code = cli.dispatch([
        "fock", "verify", "--modulus", "5", "--cutoff", "4", "--theorem", "2.4",
        "--json",
    ])
    assert code == 0  # window problems skip with a reason, they do not fail
    doc = json.loads(capsys.readouterr().out)
    assert any(r["status"] == "skip" and r["witness"] for r in doc["rows"])


def test_cli_fock_verify_skips_each_empty_window_and_runs_the_rest(capsys):
    # Without --theorem every check runs: an empty window skips its own
    # check only, and 3.28, which needs no window, still passes.
    code = cli.dispatch(["fock", "verify", "--modulus", "5", "--cutoff", "14", "--json"])
    assert code == 0
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    assert {k: r["status"] for k, r in rows.items()} == {
        "2.3": "skip", "2.4": "skip", "3.1": "skip", "representation": "skip", "3.28": "pass",
        "scaling": "skip"}
    assert rows["3.28"]["cases"] == 2
    assert all(r["witness"] == "cutoff too small" for k, r in rows.items() if k != "3.28")


_SWEEPS = {"2.3": "verify_lemma_2_3_suite", "2.4": "verify_theorem_2_4_suite",
           "3.1": "verify_theorem_3_1"}


@pytest.mark.parametrize("N, D", [(3, 11), (3, 12), (3, 13), (5, 20)])
@pytest.mark.parametrize("check", list(_SWEEPS))
def test_cli_fock_verify_certificates_agree_with_the_sweeps(monkeypatch, capsys,
                                                            check, N, D):
    # `fock verify` runs the report rows' certificates; the window sweeps
    # stay the independent reference and give the same status and count.
    # N = 3, D = 11 is one below the tightest window of all three suites,
    # where the CLI skips and the sweep raises.
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    argv = ["fock", "verify", "--modulus", str(N), "--cutoff", str(D),
            "--theorem", check, "--json"]
    assert cli.dispatch(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    try:
        swept = getattr(fock, _SWEEPS[check])(even_twist_group(N), D)
        want = ("pass" if swept.passed else "fail", swept.cases, None)
    except ValueError as exc:
        want = ("skip", 0, str(exc))
    assert (row["status"], row["cases"], row["witness"]) == want
    assert (want[0], want[2]) == (("skip", "cutoff too small") if D == 11 else ("pass", None))


def test_cli_report(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text(
        "moduli_exact = 5\nmoduli_numeric =\nmoduli_bracket =\n"
        "moduli_decomposition =\nmoduli_energy =\ncutoff = 4\n"
        "euler_order = 30\njacobi_order = 16\njacobi_z_range = 3\n"
        "series_order = 16\nqtrace_order = 10\nmodular_order = 200\n"
        "n_terms = 20000\n"
    )
    out = tmp_path / "report.json"
    code = cli.dispatch([
        "report", "--config", str(cfgfile), "--format", "json", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    failing = [r["id"] for r in doc["checks"] if r["status"] == "fail"]
    assert failing == ["summation:squares"]
    assert code == 1  # the designed red check keeps the exit honest
    assert doc["config"]["cutoff"] == 4


_GOLDEN_CONFIG = dict(
    moduli_bracket=(), moduli_decomposition=(), moduli_exact=(5,),
    moduli_numeric=(5,), moduli_energy=(5,), cutoff=20, modular_order=100,
    euler_order=60, jacobi_order=20, series_order=20, qtrace_order=10,
    n_terms=20_000, precision_bits=128,
)


def test_report_rows_match_golden_file():
    # The report's behaviour contract: every check row (id, formula, status,
    # value, witness) stays byte-identical across refactors.  The file holds
    # the rows of this reduced configuration; regenerate it only in a change
    # that says why the document changes.
    path = os.path.join(os.path.dirname(__file__), "data", "report_rows_small.json")
    with open(path, encoding="utf-8") as fh:
        want = fh.read()
    doc = json.loads(report_to_json(report_all(RunConfig(**_GOLDEN_CONFIG))))
    got = {"config": doc["config"], "checks": doc["checks"]}
    assert json.dumps(got, indent=2, sort_keys=True) + "\n" == want


def test_report_is_the_same_when_run_twice_in_one_process():
    # The second run reads every derived table the first left behind (the
    # value tables and embeddings cached on the shared characters, the
    # operator registry): no reader may change what it reads.
    runs = [report_to_json(report_all(RunConfig(**_GOLDEN_CONFIG))) for _ in range(2)]
    assert runs[0] == runs[1]
    assert '"runtime_ms": null' in runs[0]  # timings off


# The behaviour contract at full size: the default report and `fock verify`
# at each report modulus, byte for byte, with their exit codes (the report's
# is 1 for its designed red row, summation:squares).
_CLI_GOLDENS = [
    (["report", "--format", "json"], "report_default.json", 1),
    *((["fock", "verify", "--modulus", str(N), "--json"], f"fock_verify_{N}.json", 0)
      for N in (3, 5, 7)),
]


@pytest.mark.parametrize("argv, name, code", _CLI_GOLDENS, ids=[g[1] for g in _CLI_GOLDENS])
def test_cli_documents_match_golden_files(argv, name, code):
    # Each runs in a fresh process, as a user runs it, so no cache of
    # another test reaches it; regenerate a file only in a change that says
    # why the document changes.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ltwist.cli", *argv], env=env,
                          capture_output=True, timeout=300)
    with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
        assert (proc.returncode, proc.stdout) == (code, fh.read()), proc.stderr


def _mutable_parts(value, path: str) -> list:
    """The paths of the lists, dicts and sets inside `value`, through tuples
    and read-only mappings; a ring, shared by design, is not walked."""
    if isinstance(value, QuotientRing):
        return []
    if isinstance(value, (list, dict, set, bytearray)):
        return [path]
    if isinstance(value, MappingProxyType):
        value = tuple(value.items())
    if isinstance(value, tuple):
        return [p for i, v in enumerate(value) for p in _mutable_parts(v, f"{path}[{i}]")]
    return []


def _empty_caches(monkeypatch) -> None:
    """An empty operator registry, vector-count cache and null-space cache,
    each the test's own: no row's leavings from before reach it."""
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    monkeypatch.setattr(fock, "_diagonal_counts",
                        lru_cache(maxsize=None)(fock._diagonal_counts.__wrapped__))
    monkeypatch.setattr(checks, "_null_space",
                        lru_cache(maxsize=None)(checks._null_space.__wrapped__))


def test_shared_values_hold_no_mutable_container(monkeypatch):
    # What one row leaves for another cannot be changed by a reader: the
    # null spaces the cocycle rows leave in the cache of `checks._null_space`
    # (system and basis), which cocycle:recursion reads, and the numerator
    # tables a Fock row leaves on the registry's operators, which later rows
    # share.
    _empty_caches(monkeypatch)
    cfg = RunConfig(**{**_GOLDEN_CONFIG, "moduli_bracket": (3,), "moduli_decomposition": ()})
    rows = [c for c in build_registry(cfg)
            if c.id.startswith(("cocycle:", "fock:bracket:", "fock:representation:"))]
    assert [_run_check(c, cfg).status for c in rows] == ["pass"] * 6
    assert checks._null_space.cache_info().currsize == 9
    null_spaces = [((name, H), checks._null_space(name, H))
                   for name in ("Q", "Q(sqrt2)", "Q(sqrt5)") for H in (3, 4, 5)]
    assert checks._null_space.cache_info().currsize == 9  # each read a cached value
    tables = [(op.M, op._table._by_ring) for op in fock._OP_REGISTRY.values()
              if isinstance(op, fock.BilinearOp)]
    assert len(tables) == 9 and all(by_ring for _, by_ring in tables)  # P_k^(1), |k| <= 4
    found = _mutable_parts(tuple(null_spaces), "_null_space") + [
        p for M, by_ring in tables for ring, elements in by_ring.items()
        for p in _mutable_parts(elements, f"L[{M}, {ring.order}]")]
    assert found == []


_SHARED_CONFIG = {**_GOLDEN_CONFIG, "moduli_bracket": (3,), "moduli_decomposition": (5,)}


def test_rows_do_not_depend_on_the_order_they_run_in(monkeypatch):
    # Rows share caches: the Fock operators in `fock._OP_REGISTRY` with
    # their kernels and forms, the vector counts of `fock._diagonal_counts`
    # and the cocycle null spaces.  Run forward and reversed, each pass from
    # empty caches, every row must come out the same.
    cfg = RunConfig(**_SHARED_CONFIG)
    registry = build_registry(cfg)
    passes = []
    for order in (registry, registry[::-1]):
        _empty_caches(monkeypatch)
        passes.append({r.id: r for r in (_run_check(c, cfg) for c in order)})
    assert len(passes[0]) == len(registry)
    assert passes[0] == passes[1]


def test_each_row_run_alone_gives_its_registry_order_verdict(monkeypatch):
    # No verdict leans on what an earlier row left: each row, run alone
    # from empty caches, gives the status, value and witness it gives in
    # registry order.
    cfg = RunConfig(**_SHARED_CONFIG)
    registry = build_registry(cfg)
    _empty_caches(monkeypatch)
    in_order = [_run_check(c, cfg) for c in registry]
    alone = []
    for c in registry:
        _empty_caches(monkeypatch)
        alone.append(_run_check(c, cfg))
    assert any(r.id.startswith("fock:representation:") for r in alone)
    assert [(r.id, r.status, r.value, r.witness) for r in alone] == [
        (r.id, r.status, r.value, r.witness) for r in in_order]


COMMUTATOR_ROWS = ("fock:mode-bracket:", "fock:bracket:", "fock:decomposition:",
                   "fock:representation:")


def _commutator_rows(cutoff: int) -> dict:
    cfg = RunConfig(moduli_bracket=(3, 5), moduli_decomposition=(5,), cutoff=cutoff)
    rows = [asdict(_run_check(c, cfg)) for c in build_registry(cfg)
            if c.id.startswith(COMMUTATOR_ROWS)]
    return {"config": cfg.to_dict(), "checks": rows}


def test_commutator_rows_match_golden_file():
    # The rows of the three commutator families, pinned from their state
    # sweeps, and the representation rows, which the golden file above
    # leaves out.  At cutoff 20 every row passes; 17 skips the Theorem 2.4,
    # 3.1 and representation rows at N = 5 (they need D >= 4N), 14 also the
    # Lemma 2.3 row at N = 5 (D >= 6 + 2N), 11 all.
    path = os.path.join(os.path.dirname(__file__), "data", "report_rows_fock_small.json")
    with open(path, encoding="utf-8") as fh:
        want = fh.read()
    got = [_commutator_rows(D) for D in (20, 17, 14, 11)]
    assert json.dumps(got, indent=2, sort_keys=True) + "\n" == want
