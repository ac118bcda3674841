"""Acceptance suite: one test per stated criterion, each printing a
pass/fail line with its elapsed time and the arithmetic backend (run with
`pytest -s` to see the lines live).  Tolerances and runtime bounds are
pinned here, not configurable.

The printed worked value 1 - 4 + 9 - 16 + ... = 1/8 is false: the series is
eta(-2) = (1 - 2^3) zeta(-2) = 0, and the averaging engine converges to 0.
Criterion 4b asserts that true value, refutes 1/8 and checks that 1/8
belongs to the alternating triangular series 1 - 3 + 6 - 10 + ....  The
report row `summation:squares` keeps stating the printed 1/8 and stays red
by design; the full-suite criterion asserts that it is the only red row.
"""

import time

import numpy as np
import pytest

from ltwist.characters import (
    PeriodicFn,
    dirichlet_characters,
    even_twist_group,
    kronecker_symbol,
)
from ltwist.exactnum import Rat, cyclo_embed, rat
from ltwist.lvalues import (
    bernoulli_number,
    class_number_imag_quadratic,
    l_minus_one,
    l_zero,
)
from ltwist import fock, qseries, summation


def _criterion(label: str, limit_s: float, body):
    backend = Rat.__module__
    t0 = time.perf_counter()
    try:
        body()
    except Exception:
        elapsed = time.perf_counter() - t0
        print(f"criterion {label}: FAIL ({elapsed:.2f}s, limit {limit_s}s, {backend})")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {label}: PASS ({elapsed:.2f}s, limit {limit_s}s, {backend})")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"


def _quad(q):
    return PeriodicFn(q, [rat(kronecker_symbol(k, q)) for k in range(1, q + 1)])


def _even_nontrivial(N):
    return [
        chi for chi in dirichlet_characters(N)
        if chi.even and not all(v == 1 or not v for v in chi.values())
    ]


def test_criterion_01_exact_l_values():
    def body():
        assert l_zero(_quad(7)) == 1
        assert class_number_imag_quadratic(7) == 1

    _criterion("1 (L(0) and class number at q=7)", 1.0, body)


def test_criterion_02_exact_averaged_limits():
    def body():
        for N in (5, 7, 9, 11, 12, 13, 15):
            for chi in _even_nontrivial(N):
                assert summation.limit_exact_periodic(chi, "const") == l_zero(chi), N
                assert (
                    summation.limit_exact_periodic(chi, "linear") == l_minus_one(chi)
                ), N

    _criterion("2 (exact averaged limits, N in 5..15)", 5.0, body)


def test_criterion_03_numeric_averaged_limits():
    def body():
        for N in (5, 7, 9, 11, 12, 13):
            for chi in _even_nontrivial(N):
                for weight, depth, exact in (
                    ("const", 1, l_zero(chi)),
                    ("linear", 2, l_minus_one(chi)),
                ):
                    rep = summation.limit_numeric(
                        summation.partial_sums(summation.periodic_series(chi, weight)),
                        depth, 100_000, rat(1, 1000),
                    )
                    assert rep.converged, (N, weight)
                    want = complex(cyclo_embed(exact, 64))
                    assert abs(complex(rep.value) - want) < 1e-3, (N, weight)

    _criterion("3 (numeric averaged limits, 1e5 terms, 1e-3)", 30.0, body)


def test_criterion_04a_replay_table():
    def body():
        table = summation.replay_derivations()
        assert table == {
            "0+1+1+1+...": rat(-1, 2),
            "0+1-2+3-4+...": rat(1, 4),
            "0+1+2+3+...": rat(-1, 12),
        }

    _criterion("4a (replayed worked values -1/2, 1/4, -1/12)", 10.0, body)


def _alternating(term):
    """Partial sums of term(1) - term(2) + term(3) - ...

    `term` takes an int or a numpy index array.  The float terms come from
    numpy in one batch; they are integers below 2^53, hence exact.
    """
    def floats(n):
        i = np.arange(1, n + 1)
        return (np.where(i % 2 == 1, 1, -1) * term(i)).astype(np.complex128)

    series = summation.SeqSpec(
        lambda i: rat(term(i)) * (1 if i % 2 == 1 else -1), floats, period_hint=2
    )
    return summation.partial_sums(series)


def _converged_limits(b, depths):
    out = {}
    for depth in depths:
        rep = summation.limit_numeric(b, depth, 100_000, rat(1, 1000))
        if rep.converged:
            out[depth] = complex(rep.value)
    return out


def test_criterion_04b_squares_worked_value():
    # The worked squares value, checked against its provable value: the
    # series is eta(-2) = (1 - 2^3) zeta(-2) with zeta(-2) = -B_3/3, exactly
    # 0 (its Abel value too), so some depth <= 4 must converge to it within
    # 1e-3.  The printed 1/8 is refuted here: it is the value of the
    # alternating triangular series (eta(-2) + eta(-1)) / 2.
    def body():
        eta_2 = (1 - 2**3) * (-bernoulli_number(3) / 3)
        eta_1 = (1 - 2**2) * (-bernoulli_number(2) / 2)
        assert eta_2 == 0 and (eta_2 + eta_1) / 2 == rat(1, 8)

        squares = _converged_limits(_alternating(lambda i: i * i), (1, 2, 3, 4))
        assert 1 not in squares and 2 not in squares, squares
        assert squares, "no depth <= 4 converges at all"
        for depth, value in squares.items():
            assert abs(value - float(eta_2)) < 1e-3, (depth, value)
            assert abs(value - 0.125) >= 1e-3, (depth, value)

        triangular = _converged_limits(
            _alternating(lambda i: i * (i + 1) // 2), (1, 2, 3, 4)
        )
        target = float((eta_2 + eta_1) / 2)
        assert any(abs(v - target) < 1e-3 for v in triangular.values()), triangular

    _criterion("4b (squares series = eta(-2) = 0, not the printed 1/8)", 10.0, body)


def test_criterion_05_bracket_identities():
    def body():
        for N in (3, 5, 7):
            G = even_twist_group(N)
            for chi in G.elements:
                for k in range(-6, 7):
                    for n in range(-2, 3):
                        res = fock.verify_lemma_2_3(chi, k, n, 30)
                        assert res.passed, (N, k, n, res.witness)
            res = fock.verify_theorem_2_4_suite(G, 30)
            assert res.passed, (N, res.witness)

    _criterion("5 (mode and twisted brackets, N in {3,5,7}, D=30)", 120.0, body)


def test_criterion_06_decomposition():
    def body():
        for N in (5, 7):
            G = even_twist_group(N)
            b = G.elements[G.identity].period_sum()
            assert b * rat(1, len(G)) == 2  # central charge per copy
            res = fock.verify_theorem_3_1(G, 30)
            assert res.passed, (N, res.witness)

    _criterion("6 (decomposition into commuting copies, N in {5,7})", 120.0, body)


def test_criterion_07_energy_identity():
    def body():
        for N in (5, 7, 9, 11, 13):
            G = even_twist_group(N)
            for i in range(1, len(G) + 1):
                res = fock.verify_eq_3_28(N, i)
                assert res.passed, (N, i, res.witness)
        d_by_index = {
            i: fock.vacuum_energies(even_twist_group(5), i).d for i in (1, 2)
        }
        assert sorted(d_by_index.values()) == [rat(-1, 60), rat(11, 60)]

    _criterion("7 (three-way vacuum-shift identity, N in {5..13})", 5.0, body)


def test_criterion_08_qtrace_cross_check():
    def body():
        assert qseries.central_charge(2) == rat(-22, 5)
        for k in (2, 3):
            N = 2 * k + 1
            G = even_twist_group(N)
            offsets = set()
            for i in range(1, k + 1):
                energy = fock.vacuum_energies(G, i)
                tr = fock.qtrace(G, i, "char", max(26, 2 * N))
                mc = qseries.minimal_char(k, energy.residue, 25)
                bound = min(tr.order, mc.order)
                assert rat(24) <= bound
                assert tr.truncate(bound) == mc.truncate(bound), (k, i)
                offsets.add(tr.offset)
            if k == 2:
                assert offsets == {rat(11, 60), rat(-1, 60)}

    _criterion("8 (graded traces match minimal characters to order 24)", 60.0, body)


def test_criterion_09_series_identities():
    def body():
        assert qseries.euler_check(200)
        assert qseries.jacobi_check(60, 6)
        for k in (1, 2, 3):
            for j in range(1, k + 1):
                lhs, rhs = qseries.specialize_314(k, j, 50)
                assert lhs == rhs, (k, j)
        for k in (2, 3):
            for j in range(1, k + 1):
                assert qseries.verify_316(k, j, 50), (k, j)

    _criterion("9 (product and theta identities, order 50+)", 60.0, body)


def test_criterion_10_modular_transform():
    def body():
        residual, _ = qseries.modular_s_check(2, order=400, precision_bits=256)
        assert residual < 1e-6, residual

    _criterion("10 (numeric S-transform residual, k=2)", 120.0, body)


def test_criterion_11_central_term_nullspace():
    def body():
        from ltwist import cocycle

        for name in ("Q", "Q(sqrt2)", "Q(sqrt5)"):
            for H in (3, 4, 5):
                sys_ = cocycle.build_system(name, H)
                dim, basis = cocycle.nullspace_dim(sys_)
                assert dim == 2, (name, H)
                assert all(cocycle.fit_cubic(sys_, v) is not None for v in basis)

    _criterion("11 (null space dim 2 with basis {m, m^3})", 60.0, body)


def test_criterion_12_scaling_symmetry():
    def body():
        chi = dirichlet_characters(3)[0]
        for l in (2, 3):
            for (m, n) in ((1, -1), (1, 0)):
                res = fock.scaling_embed_check(chi, l, m, n, 30)
                assert res.passed, (l, m, n, res.witness)

    _criterion("12 (mode-scaled operators, l in {2,3}, N=3)", 60.0, body)


def test_full_suite_report():
    # Stated: the whole suite via report_all finishes under ten minutes.
    # Every row passes except `summation:squares`, which states the printed
    # 1/8 for 1 - 4 + 9 - 16 + ... and is red by design (criterion 4b holds
    # the true value); a new red, or that row turning green, fails here.
    from ltwist.report import RunConfig, report_all

    t0 = time.perf_counter()
    doc = report_all(RunConfig())
    elapsed = time.perf_counter() - t0
    rows = {r["id"]: r for r in doc["checks"]}
    failing = sorted(i for i, r in rows.items() if r["status"] == "fail")
    ok = failing == ["summation:squares"]
    print(
        f"criterion full-suite: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s, limit 600s, {Rat.__module__}), failing={failing}"
    )
    assert elapsed < 600, elapsed
    assert doc["summary"]["total"] >= 40
    assert failing == ["summation:squares"], f"failing checks {failing}"
    assert "differs from 1/8" in rows["summation:squares"]["witness"]
    assert rows["summation:squares-facts"]["status"] == "pass"
