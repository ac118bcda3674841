import bisect
import json
import math
import os
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltwist.characters import (
    PeriodicFn,
    dirichlet_characters,
    even_twist_group,
    kronecker_symbol,
    pf_mul,
)
from ltwist.checks import build_registry
from ltwist.exactnum import CycloNum, cyclo_ring
from ltwist.exactnum import rat, zeta
from ltwist import cli, fock, qseries, report
from ltwist.fock import (
    BilinearOp,
    CommutatorOp,
    ModeOp,
    ScalarOp,
    SumOp,
    basis_partitions,
    build_L,
    build_T,
    commutator_window,
    pair_indicator,
    partition_weight,
    qtrace,
    scaling_embed_check,
    twist_residue,
    vacuum_energies,
    verify_eq_3_28,
    verify_lemma_2_3,
    verify_lemma_2_3_suite,
    verify_theorem_2_4,
    verify_theorem_2_4_suite,
    verify_theorem_3_1,
    verify_transpose_symmetry,
)
from ltwist.lvalues import l_minus_one, l_minus_one_form
from ltwist.report import RunConfig, _run_check, config_from_mapping, report_all


def quad_char(q):
    return PeriodicFn(q, [rat(kronecker_symbol(k, q)) for k in range(1, q + 1)])


def test_basis_counts():
    states = basis_partitions(4)
    assert sum(1 for s in states if sum(s) == 4) == 5  # p(4)
    assert basis_partitions(0) == [()]
    assert len(basis_partitions(30)) == 28629  # sum of p(0..30)
    with pytest.raises(ValueError):
        basis_partitions(61)


def test_one_cutoff_bound_for_the_basis_and_the_windows():
    # The basis and every window raise through `check_cutoff`, so a degree
    # below 0 is refused like one above 60 (not read as the vacuum alone);
    # an empty window still raises `cutoff too small` first.
    for call in (lambda: basis_partitions(-1), lambda: basis_partitions(61),
                 lambda: fock.representation_suite(3, 61), lambda: commutator_window(61)):
        with pytest.raises(ValueError, match=r"^cutoff must lie in 0\.\.60$"):
            call()
    for call in (lambda: commutator_window(-1), lambda: fock.representation_suite(3, 11),
                 lambda: commutator_window(70, 71)):
        with pytest.raises(ValueError, match="^cutoff too small$"):
            call()


# p(n) for n = 0..20
_PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                     231, 297, 385, 490, 627]


def test_basis_partitions_are_the_partitions_in_basis_order():
    for D in range(21):
        basis = basis_partitions(D)
        assert all(all(x > 0 for x in p) for p in basis)
        assert all(list(p) == sorted(p, reverse=True) for p in basis)
        keys = [(sum(p), p) for p in basis]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        counts = [0] * (D + 1)
        for p in basis:
            counts[sum(p)] += 1
        assert counts == _PARTITION_COUNTS[:D + 1]


def test_keys_round_trip_every_partition_of_degree_24():
    basis = basis_partitions(24)
    keys = [fock._key(p) for p in basis]
    assert len(set(keys)) == len(basis)
    assert [fock._partition(q) for q in keys] == basis
    with pytest.raises(ValueError):
        fock._key((61,))


def _tuple_remove(p, u):
    """(multiplicity, p less one part u) by tuple surgery, or None."""
    if u not in p:
        return None
    i = p.index(u)
    return p.count(u), p[:i] + p[i + 1:]


def test_key_surgery_matches_tuple_surgery():
    # On every state of degree <= 24: the walk's (key, degree, largest
    # part), adding a part (one int add) and `_remove_part` agree with the
    # same moves made on descending tuples.
    walked = []

    def visit(q, degree, u, parent):
        p = fock._partition(q)
        walked.append(p)
        assert (degree, u) == (sum(p), p[0] if p else 0), p
        for v in range(1, 25):
            assert fock._partition(q + fock._UNIT[v]) == tuple(sorted(p + (v,), reverse=True))
            hit, want = fock._remove_part(q, v), _tuple_remove(p, v)
            assert hit == (None if want is None else (want[0], fock._key(want[1]))), (p, v)
        return None, q

    assert fock._walk(24, visit) is None
    assert sorted(walked) == sorted(basis_partitions(24))


def test_walk_prunes_below_a_none_value():
    visited = []

    def visit(q, degree, u, parent):
        if q and u % 3 == 0:
            return None, None
        visited.append(fock._partition(q))
        return None, q

    assert fock._walk(15, visit) is None
    want = [p for p in basis_partitions(15) if all(x % 3 for x in p)]
    assert sorted(visited) == sorted(want)
    assert len(visited) == len(set(visited))


@pytest.mark.parametrize("mode", ["char", "kernel"])
def test_qtrace_evaluates_exactly_the_allowed_states(monkeypatch, mode):
    G = even_twist_group(5)
    i = 2
    j = vacuum_energies(G, i).residue
    pair = {j % 5, -j % 5}
    allowed = set(range(1, 5)) - pair if mode == "char" else pair
    want = [p for p in basis_partitions(12) if all(x % 5 in allowed for x in p)]
    seen = []
    real = fock._walk

    def walk(top, visit):
        def recording(q, degree, u, parent):
            bad, value = visit(q, degree, u, parent)
            if value is not None:  # the walk keeps q
                seen.append(fock._partition(q))
            return bad, value
        return real(top, recording)

    fock._diagonal_counts.cache_clear()  # a cached count would walk nothing
    monkeypatch.setattr(fock, "_walk", walk)
    qtrace(G, i, mode, 12)
    assert sorted(seen) == sorted(want)
    assert len(seen) == len(want)


def _column_qtrace(G, i, mode, D):
    """`qtrace` computed per state from `Operator.column`: the diagonal
    eigenvalues of L_0^{identity} and T_0^i on every allowed state."""
    N = G.period
    energy = vacuum_energies(G, i)
    pair = {energy.residue % N, -energy.residue % N}
    L0, T0 = build_L(G.elements[G.identity], 0), build_L(pair_indicator(N, twist_residue(G, i)), 0)
    if mode == "char":
        allowed, shift = set(range(1, N)) - pair, rat(energy.d)
    else:
        allowed, shift = pair, rat(energy.c)
    counts: dict = {}
    for p in basis_partitions(D):
        if any(x % N not in allowed for x in p):
            continue
        lam_L, lam_T = (op.column(p) for op in (L0, T0))
        assert set(lam_L) <= {p} and set(lam_T) <= {p}  # both diagonal
        lam_L, lam_T = lam_L.get(p, rat(0)), lam_T.get(p, rat(0))
        t = (lam_L - lam_T if mode == "char" else lam_T) * N
        assert t.denominator == 1
        key = int(t) * shift.denominator + shift.numerator
        counts[key] = counts.get(key, 0) + 1
    return qseries.PuiseuxSeries(shift.denominator, counts, shift + D + 1)


@pytest.mark.parametrize("N", [5, 7])
def test_qtrace_matches_the_column_eigenvalues(monkeypatch, N):
    # qtrace weights one vector of P_0^(r) eigenvalues per class of states;
    # the column kernel's per-state eigenvalues give the identical series.
    G = even_twist_group(N)
    for i in range(1, len(G) + 1):
        for mode in ("char", "kernel"):
            got, want = qtrace(G, i, mode, 20), _column_qtrace(G, i, mode, 20)
            assert (got.denom, got.coeffs, got.order) == (want.denom, want.coeffs, want.order)
    # and it builds no column on the way: a fresh registry holds none
    def no_column(self, ring):
        raise AssertionError("qtrace built a column")

    fock._diagonal_counts.cache_clear()
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    monkeypatch.setattr(BilinearOp, "_relative", no_column)
    for i in range(1, len(G) + 1):
        assert qtrace(G, i, "char", 20).coeffs and qtrace(G, i, "kernel", 20).coeffs


def test_partition_weight():
    assert partition_weight(()) == 1
    assert partition_weight((3,)) == 3
    assert partition_weight((2, 2)) == 8       # 2^2 * 2!
    assert partition_weight((3, 1, 1)) == 6    # 3 * 1^2 * 2!


def test_normal_ordered_bilinear_examples():
    # _term_action(q, j, M) is :a_{-j} a_{j+M}: on q: (coefficient, state)
    act, K = fock._term_action, fock._key
    # :a_{-1} a_1: counts mode 1 with weight 1
    assert act(K((1,)), 1, 0) == (1, K((1,)))
    # :a_1 a_{-1}: is already creation-left after normal ordering
    assert act(K(()), -1, 0) is None
    # :a_{-2} a_{-3}: creates the pair {2, 3}
    assert act(K(()), 2, -5) == (1, K((3, 2)))
    # double annihilation with sequential multiplicities: :a_1 a_1:
    assert act(K((1, 1)), -1, 2) == (2, K(()))
    assert act(K((1,)), -1, 2) is None


def test_grading_exactness():
    chi = quad_char(5)
    for n in (-2, -1, 0, 1, 2):
        op = build_L(chi, n)
        for state in basis_partitions(12):
            for out, val in op.column(state).items():
                assert sum(out) - sum(state) == -op.M
                assert val


def test_build_L_examples():
    chi = quad_char(5)
    L0 = build_L(chi, 0)
    assert L0.column((1,)) == {(1,): rat(1, 5)}
    assert L0.column(()) == {}
    # odd twist gives the zero operator and warns
    odd = PeriodicFn(5, [rat(1), rat(-1), rat(1), rat(-1), rat(0)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Lodd = build_L(odd, 1)
    assert caught
    assert all(not Lodd.column(s) for s in basis_partitions(10))
    # nonvanishing at 0 mod N is rejected
    bad = PeriodicFn(3, [rat(1), rat(1), rat(1)])
    with pytest.raises(ValueError):
        build_L(bad, 0)


def test_lemma_2_3():
    chi = quad_char(5)
    assert verify_lemma_2_3(chi, 1, 0, 24).passed
    assert verify_lemma_2_3(chi, -2, 1, 24).passed
    assert verify_lemma_2_3(chi, 5, 1, 24).passed  # chi(5) = 0: both sides zero
    # the identity in closed form on a single state
    L0 = build_L(chi, 0)
    a1 = ModeOp(1)
    lhs = CommutatorOp(a1, L0)
    assert lhs.column((1,)) == {(): rat(1, 5)}  # (1/5) chi(1) 1 a_1 on {1}


def test_bracket_central_value():
    chi = quad_char(5)
    L1, Lm1 = build_L(chi, 1), build_L(chi, -1)
    # [L_1, L_-1] on the vacuum: central scalar
    # (1/5) L(-1, triv) + (1/12) sum triv = 1/15 + 1/3 = 2/5
    assert CommutatorOp(L1, Lm1).column(()) == {(): rat(2, 5)}
    assert CommutatorOp(Lm1, L1).column(()) == {(): rat(-2, 5)}


def test_theorem_2_4_cases():
    chi = quad_char(5)
    assert verify_theorem_2_4(None, chi, chi, 1, -1, 24).passed
    assert verify_theorem_2_4(None, chi, chi, 0, 0, 24).passed
    G3 = even_twist_group(3)
    e = G3.elements[0]
    assert verify_theorem_2_4(None, e, e, 2, 1, 24).passed
    with pytest.raises(ValueError, match="cutoff too small"):
        verify_theorem_2_4(None, chi, chi, 2, 2, 10)


def _term_product(p, first, second):
    """(coefficient, state) of :a_{-j2} a_{j2+M2}: :a_{-j1} a_{j1+M1}: on p."""
    a = fock._term_action(fock._key(p), *first)
    b = None if a is None else fock._term_action(a[1], *second)
    return None if b is None else (a[0] * b[0], b[1])


def test_commutator_trivial_cases():
    # disjoint single-mode bilinears commute
    for s in basis_partitions(8):
        assert _term_product(s, (1, 0), (2, 0)) == _term_product(s, (2, 0), (1, 0))
    # diagonal twisted zero modes commute
    G = even_twist_group(7)
    LA = build_L(G.elements[0], 0)
    LB = build_L(G.elements[1], 0)
    com = CommutatorOp(LA, LB)
    for s in basis_partitions(10):
        assert com.column(s) == {}


def test_window_helper():
    assert len(commutator_window(10, 5, 5)) == 1
    with pytest.raises(ValueError, match="cutoff too small"):
        commutator_window(9, 5, 5)


def test_commutator_windows_are_prefixes_of_the_cutoff_basis():
    # A window is built up to its budget only; the basis is ordered by
    # degree, so it is the prefix of the degree <= D basis it once was.
    for D in range(31):
        basis = basis_partitions(D)
        degrees = [sum(p) for p in basis]
        for shift in range(D + 1):
            want = basis[:bisect.bisect_right(degrees, D - shift)]
            assert list(map(fock._partition, commutator_window(D, shift))) == want, (D, shift)


def test_build_T_eigenvalues():
    G = even_twist_group(5)
    # index 2 pairs with residue 1
    assert twist_residue(G, 2) == 1
    T0 = build_L(pair_indicator(G.period, twist_residue(G, 2)), 0)
    assert T0.column((1,)) == {(1,): rat(1, 5)}
    assert T0.column((2,)) == {}
    assert T0.column(()) == {}
    with pytest.raises(ValueError):
        build_T(G, 5, 0)


def test_vacuum_energies():
    G = even_twist_group(5)
    e2 = vacuum_energies(G, 2)
    assert (e2.residue, e2.c, e2.d) == (1, rat(-1, 60), rat(11, 60))
    e1 = vacuum_energies(G, 1)
    assert (e1.residue, e1.c, e1.d) == (2, rat(11, 60), rat(-1, 60))
    for i in (1, 2):
        e = vacuum_energies(G, i)
        ident = G.elements[G.identity]
        assert e.c + e.d == l_minus_one(ident) / 2
        assert e.closed_forms_hold()


def test_energy_identity_examples():
    assert verify_eq_3_28(5, 2).passed
    assert verify_eq_3_28(5, 1).passed
    for i in (1, 2, 3):
        assert verify_eq_3_28(7, i).passed
    for i in (1, 2, 3, 4):
        assert verify_eq_3_28(9, i).passed


def test_theorem_3_1_small():
    G = even_twist_group(5)
    res = verify_theorem_3_1(G, 22)
    assert res.passed and res.cases == 100


def test_theorem_2_4_suite_small():
    G = even_twist_group(5)
    res = verify_theorem_2_4_suite(G, 22, max_mode=1)
    assert res.passed and res.cases == 36


def test_twisted_operator_is_pair_combination():
    # L_m^chi = sum_r chi(r) P_m^(r): the operator linearity that lets the
    # suites sweep the residue-pair basis instead of every element
    for N in (5, 7, 9):  # rational, Z[zeta_3] and folded Z[zeta_4] values
        G = even_twist_group(N)
        states = commutator_window(12)
        for chi in G.elements:
            for m in (-1, 0, 1):
                pairs = SumOp([
                    (chi(r), build_L(pair_indicator(N, r), m))
                    for r in range(1, N // 2 + 1)
                ])
                assert build_L(chi, m).matrix_equal(pairs, states) is None, (N, chi, m)
    # Theorem 3.1's components are the pair operators themselves
    G = even_twist_group(7)
    j = twist_residue(G, 1)
    assert build_T(G, 1, 1) is build_L(pair_indicator(7, j), 1)


def _element_cases(G, D, max_mode):
    span = range(-max_mode, max_mode + 1)
    es = range(len(G))
    return [
        (a, b, m, n, verify_theorem_2_4(G, G.elements[a], G.elements[b], m, n, D).passed)
        for a in es for b in es for m in span for n in span
    ]


@pytest.mark.parametrize("N, D, max_mode, cases", [(5, 20, 2, 100), (9, 20, 1, 144)])
def test_pair_suite_matches_element_cases(N, D, max_mode, cases):
    G = even_twist_group(N)
    reference = _element_cases(G, D, max_mode)
    log = []
    res = verify_theorem_2_4_suite(G, D, max_mode=max_mode, case_log=log)
    assert (res.passed, res.cases) == (all(ok for *_, ok in reference), cases)
    assert [entry[:5] for entry in log] == reference


def test_pair_suite_reports_an_element_case_when_broken(monkeypatch):
    # a wrong central term breaks the identity in both bases; the suite must
    # fail and name the first failing element case with its exact witness
    real = fock._central_term
    monkeypatch.setattr(fock, "_central_term", lambda f, m: real(f, m) + rat(1, 7))
    G = even_twist_group(5)
    res = verify_theorem_2_4_suite(G, 16, max_mode=1)
    assert not res.passed
    (a, b, m, n), state, out_state, got, want = res.witness
    assert a in (0, 1) and b in (0, 1) and m == -n
    assert (state, out_state) == ((), ()) and got != want
    log = []
    assert not verify_theorem_2_4_suite(G, 16, max_mode=1, case_log=log).passed
    assert len(log) == 36
    assert {(m, n) for (_, _, m, n, ok, _) in log if not ok} == {(-1, 1), (0, 0), (1, -1)}
    # a right side broken for every case leaves the exact expansion checks
    # intact, so here the pair sweeps alone have to catch it
    monkeypatch.undo()
    rhs = fock._bracket_rhs
    monkeypatch.setattr(fock, "_bracket_rhs",
                        lambda *a, **k: SumOp([(1, rhs(*a, **k)), (1, ScalarOp(rat(1, 7)))]))
    res = verify_theorem_2_4_suite(G, 16, max_mode=1)
    assert not res.passed and res.witness[0] == (0, 0, -1, -1)


def test_lemma_suite_matches_element_cases(monkeypatch):
    G = even_twist_group(5)
    res = verify_lemma_2_3_suite(G, 18)
    assert (res.passed, res.cases) == (True, 130)
    assert all(
        verify_lemma_2_3(chi, k, n, 18).passed
        for chi in G.elements for k in range(-6, 7) for n in range(-2, 3)
    )
    # a failing case makes the suite fall back to the elements one by one
    real = fock.verify_lemma_2_3

    def broken(chi, k, n, D):
        res = real(chi, k, n, D)
        return fock.VerifyResult(False, res.cases, ((), (), 0, 1)) if (k, n) == (2, 1) else res

    monkeypatch.setattr(fock, "verify_lemma_2_3", broken)
    res = verify_lemma_2_3_suite(G, 18)
    assert (res.passed, res.cases) == (False, 44)  # (0, 2, 1) is case 8 * 5 + 4
    assert res.witness == ((0, 2, 1), (), (), 0, 1)


def test_cli_theorem_2_4_case_detail(capsys):
    assert cli.dispatch([
        "fock", "verify", "--modulus", "5", "--cutoff", "20", "--theorem", "2.4", "--json",
    ]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["check"], row["status"], row["cases"]) == ("2.4", "pass", 100)
    span = range(-2, 3)
    assert [(d["chi1"], d["chi2"], d["m"], d["n"]) for d in row["cases_detail"]] == [
        (a, b, m, n) for a in (0, 1) for b in (0, 1) for m in span for n in span
    ]
    assert all(
        list(d) == ["chi1", "chi2", "m", "n", "status", "witness"]
        and (d["status"], d["witness"]) == ("pass", None)
        for d in row["cases_detail"]
    )


def test_scaling_embedding():
    triv3 = dirichlet_characters(3)[0]
    # l = 1 reduces to the plain bracket identity
    assert scaling_embed_check(triv3, 1, 1, -1, 24).passed
    assert scaling_embed_check(triv3, 2, 1, -1, 30).passed
    assert scaling_embed_check(triv3, 3, 1, 0, 30).passed


def test_transpose_symmetry():
    G = even_twist_group(7)
    for chi in G.elements[:2]:
        for n in (-1, 0, 1, 2):
            assert verify_transpose_symmetry(chi, n, 22).passed


def test_qtrace_char_mode():
    G = even_twist_group(5)
    tr = qtrace(G, 2, "char", 30)
    assert tr.offset == rat(11, 60)
    # 1 + q^2 + q^3 + q^4 + q^5 + 2 q^6 + ...
    want = [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4]
    for deg, count in enumerate(want):
        assert tr.coefficient(rat(11, 60) + deg) == count
    tr1 = qtrace(G, 1, "char", 30)
    assert tr1.offset == rat(-1, 60)
    with pytest.raises(ValueError, match="cutoff too small"):
        qtrace(G, 1, "char", 8)


def test_qtrace_kernel_mode():
    from ltwist.qseries import PuiseuxSeries, product_expand

    G = even_twist_group(5)
    for i in (1, 2):
        energy = vacuum_energies(G, i)
        j = energy.residue
        tr = qtrace(G, i, "kernel", 15)
        assert tr.offset == energy.c
        body = product_expand(5, {j, 5 - j}, -1, 15)
        want = PuiseuxSeries.monomial(rat(energy.c), 1, order=rat(energy.c) + 15) * body
        bound = min(tr.order, want.order)
        assert tr.truncate(bound) == want.truncate(bound)


def test_qtrace_counts_oracle():
    # coefficients equal the number of partitions avoiding 0, +-j mod N
    G = even_twist_group(7)
    for i in (1, 2, 3):
        j = vacuum_energies(G, i).residue
        tr = qtrace(G, i, "char", 20)
        allowed = [r for r in range(1, 7) if r not in (j, 7 - j)]
        parts = [m for m in range(1, 19) if m % 7 in allowed]

        def count(deg):
            if deg == 0:
                return 1
            def rec(remaining, idx):
                if remaining == 0:
                    return 1
                return sum(
                    rec(remaining - parts[t], t)
                    for t in range(idx, -1, -1) if parts[t] <= remaining
                )
            return rec(deg, len(parts) - 1)

        for deg in range(0, 18):
            assert tr.coefficient(tr.offset + deg) == count(deg)


def test_matrix_equal_witness_is_exact():
    # integer columns compared at a common denominator still name the
    # first differing entry with its exact scalar values
    G = even_twist_group(7)
    chi = G.elements[1]  # values in Q(zeta_3)
    lhs = CommutatorOp(build_L(chi, 1), build_L(chi, -1))
    window = commutator_window(20, 7, 7)
    assert lhs.matrix_equal(SumOp([(rat(1), lhs)]), window) is None
    s, t, got, want = lhs.matrix_equal(SumOp([(zeta(3), lhs)]), window)
    assert got == lhs.column(s)[t]
    assert want == zeta(3) * got and want != got
    s2, _, got2, want2 = lhs.matrix_equal(SumOp([(rat(1, 2), lhs)]), window)
    assert s2 == s and want2 * 2 == got2


# -- certified rows ------------------------------------------------------------


def _mode_reference(op, l, p, ring):
    """The integer column of sum_j c(j) :a_{-lj} a_{l(j+M)}: on p, for `op`
    built from the dilated table c.dilate(l) at shift lM, composed from
    ModeOp columns with the annihilator acting first.  A term whose first
    factor annihilates a part that p lacks is zero, so only the j with
    l(j + M) or -lj a part of p, or 0 < j < -M, are summed."""
    M, N = op.M // l, op.coeff.period // l
    table = op._table.elements(ring)  # c(j) at the index lj mod lN
    js = {u // l - M for u in p if not u % l} | {-(u // l) for u in p if not u % l}
    acc = {}
    for j in sorted(js | set(range(1, -M))):
        left, right = -l * j, l * (j + M)
        if not left or not right:
            continue
        if left > 0 > right:  # normal order: the creation operator on the left
            left, right = right, left
        col = ModeOp(left).apply_icolumn(ModeOp(right).icolumn(fock._key(p), ring), ring)
        for t, v in col.items():
            x = ring.mul(table[l * j % (l * N)], v)
            acc[t] = ring.add(acc[t], x) if t in acc else x
    return {t: v for t, v in acc.items() if not ring.is_zero(v)}


@pytest.mark.parametrize("coeff", [
    PeriodicFn(3, [rat(1, 2), rat(-3), rat(5, 3)]),  # rational, c(0) != 0, not even
    PeriodicFn(3, [zeta(3), zeta(3) ** 2 + 1, rat(2)]),  # Q(zeta_3)
], ids=["rational", "zeta3"])
def test_icolumn_matches_mode_composition(coeff):
    N = coeff.period
    states = basis_partitions(16)
    for l in (1, 2, 3):
        for M in range(-3 * N, 3 * N + 1):
            op = BilinearOp(coeff.dilate(l), l * M, rat(1, 2 * N))
            ring = cyclo_ring(op.order)
            for p in states:
                assert (op.icolumn(fock._key(p), ring)
                        == _mode_reference(op, l, p, ring)), (l, M, p)


def _term_sum(op, p, ring):
    """The integer column of `op` on p summed term by term through
    `_term_action`: only the j with j + M or -j a part of p, or 0 < j < -M,
    can act on p."""
    M, N = op.M, op.coeff.period
    table = op._table.elements(ring)
    acc = {}
    for j in sorted({u - M for u in p} | {-u for u in p} | set(range(1, -M))):
        act = fock._term_action(fock._key(p), j, M)
        if act:
            x = ring.smul(table[j % N], act[0])
            acc[act[1]] = ring.add(acc[act[1]], x) if act[1] in acc else x
    return {t: v for t, v in acc.items() if not ring.is_zero(v)}


@pytest.mark.parametrize("unit", [rat(0), zeta(3)], ids=["rational", "zeta3"])
@pytest.mark.parametrize("N", [3, 5, 7])
def test_icolumn_is_the_term_by_term_sum(N, unit):
    # The kernel sums the creating terms j and -M - j into one entry of its
    # creation table (a single term when j = -M - j) and drops zero sums;
    # here every term acts on its own.  The values 1 and -1 at residues 1
    # and 2 make some of those sums zero.
    values = [rat(1) + unit, rat(-1) - unit, rat(3, 2) + unit * unit][:N // 2]
    coeff = _even_periodic(N, values)
    states = basis_partitions(14)
    for M in range(-3 * N, 3 * N + 1):
        op = BilinearOp(coeff, M, rat(1, 2 * N))
        ring = cyclo_ring(op.order)
        for p in states:
            assert op.icolumn(fock._key(p), ring) == _term_sum(op, p, ring), (M, p)


def test_kernel_records_do_not_leak_between_rings():
    # One instance asked in Z, Z[zeta_3], Z[zeta_12] and Z again: each ring
    # reads its own record, so moves, creations or diagonal weights built or
    # grown in one ring never serve another.
    coeff = _even_periodic(7, [rat(1), rat(-1, 2), rat(3)])
    states = basis_partitions(14)
    for M in (0, -7, 7):
        op = BilinearOp(coeff, M, rat(1, 14))
        for m in (1, 3, 12, 1):
            ring = cyclo_ring(m)
            for p in states:
                assert op.icolumn(fock._key(p), ring) == _term_sum(op, p, ring), (M, m, p)


def _even_periodic(N, values):
    """The even N-periodic function with f(0) = 0 and f(r) = values[r - 1]
    for r = 1..N//2."""
    table = [rat(0)] * N
    for r, v in enumerate(values, start=1):
        table[r % N] = table[-r % N] = v
    return PeriodicFn(N, table[1:] + table[:1])


_small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(rat)


_kernel_values = st.one_of(st.sampled_from((rat(-1), rat(0), rat(1))), _small_rationals)


@st.composite
def _kernel_cases(draw):
    # coefficient tables with c(0) = 0, even or not, mostly from -1, 0 and
    # 1, so that the two terms of a double annihilation often cancel
    N = draw(st.sampled_from((3, 5, 7)))
    unit = draw(st.sampled_from((rat(0), zeta(3))))
    pairs = draw(st.lists(st.tuples(_kernel_values, _kernel_values),
                          min_size=N - 1, max_size=N - 1))
    return PeriodicFn(N, [rat(0)] + [a + b * unit for a, b in pairs]), draw(st.integers(-3 * N, 3 * N))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_kernel_cases())
@example((PeriodicFn(3, [rat(0), rat(1), rat(-1)]), 3))  # c(-2) + c(-1) = 0 drops {1, 2}
@example((PeriodicFn(3, [rat(0), rat(1), rat(-1)]), 4))  # 2u = M: m_2 (m_2 - 1) / 2 units
def test_relative_kernel_shifted_by_the_state_is_the_term_by_term_sum(case):
    # Random twists, rational and in Q(zeta_3): the compiled kernel gives
    # each column relative to its state, and every entry shifted by the
    # state is the entry the terms sum to, listed in the kernel's key
    # order, on every state of degree <= 16.
    f, M = case
    op = BilinearOp(f, M, rat(1, 2 * f.period))
    ring = cyclo_ring(op.order)
    column = op._relative(ring)
    for q in fock._basis_by_degree(16):
        p = fock._partition(q)
        got = {q + delta: v for delta, v in column(q).items()}
        assert got == _term_sum(op, p, ring), (M, p)
        assert list(got) == [t for t in _kernel_key_order(op, p, ring) if t in got], (M, p)


def test_the_kernel_calls_term_action_only_to_compile(monkeypatch):
    # The double annihilations are read off `_term_action` on probe states
    # once per operator and ring, as the creations are off the vacuum, so
    # walking a larger window makes no more calls: none is made per state.
    real, counts = fock._term_action, []
    for D in (20, 28):
        calls = []
        monkeypatch.setattr(fock, "_term_action", lambda *a: calls.append(a) or real(*a))
        op = BilinearOp(pair_indicator(7, 1), 7, rat(1, 14))  # fresh: nothing compiled
        assert fock._check_representation(op, D) is None
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@st.composite
def _bracket_cases(draw, dilate=False):
    # with `dilate`, f1 and f2 are dilated by 1 or 2 each: the shift of
    # L_m^{f1} is then not always a multiple of the period of f2, or the
    # other way round, and the Jacobi coefficient has degree 1, not 0
    N = draw(st.sampled_from((3, 5, 7)))
    f1, f2 = (_even_periodic(N, draw(st.lists(_small_rationals, min_size=N // 2,
                                               max_size=N // 2)))
              for _ in range(2))
    m, n = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    shift = draw(st.sampled_from((rat(0), rat(0), rat(1, 7))))
    if dilate:
        f1, f2 = f1.dilate(draw(st.sampled_from((1, 2)))), f2.dilate(draw(st.sampled_from((1, 2))))
    return f1, f2, m, n, shift


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_bracket_cases())
def test_certificate_agrees_with_sweep(case):
    # Random even twists, not only characters; a shifted L(-1) breaks the
    # central term, so the two verdicts must also agree on failures.
    f1, f2, m, n, shift = case
    D = f1.period * (abs(m) + abs(n)) + 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "l_minus_one_form", lambda f: l_minus_one_form(f) + shift)
        swept = fock._verify_bracket(f1, f2, m, n, D)
        certified = _certified_case(f1, f2, m, n)
    assert certified.passed == swept.passed
    assert certified.passed == (not shift or m != -n or m == 0)
    if not certified.passed:
        assert certified.witness[0] == "central"


def _certified_case(f1, f2, m, n, **kw):
    """A Theorem 2.4 case decided as the certified suites decide it."""
    return fock._certify(*fock._bracket_sides(f1, f2, m, n, **kw))


# -- certificate rules the report's rows do not reach -----------------------------


def _certified_and_swept(lhs, rhs, window):
    """The verdicts of `_certify` and of the `matrix_equal` sweep."""
    return fock._certify(lhs, rhs).passed, lhs.matrix_equal(rhs, window) is None


def test_certificate_of_a_bilinear_against_a_mode(monkeypatch):
    # [L_n^chi, a_k] = -(1/N) chi(k) k a_{k+nN}: the quadratic form on the left
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    for chi in even_twist_group(7).elements:
        for k in range(-4, 5):
            for n in (-1, 0, 1):
                lhs = CommutatorOp(build_L(chi, n), ModeOp(k))
                rhs = SumOp([(-chi(k) * rat(k, 7), ModeOp(k + 7 * n))])
                window = commutator_window(15, k, 7 * n)
                assert _certified_and_swept(lhs, rhs, window) == (True, True), (chi, k, n)


def test_certificate_of_two_modes():
    # [a_j, a_k] = j delta_{j+k,0}: the scalar of a mode against a mode
    window = commutator_window(8)
    for j in range(-3, 4):
        for k in range(-3, 4):
            lhs = CommutatorOp(ModeOp(j), ModeOp(k))
            rhs = ScalarOp(rat(j if j + k == 0 else 0))
            assert _certified_and_swept(lhs, rhs, window) == (True, True), (j, k)


def test_certificate_adds_the_tables_of_one_shift(monkeypatch):
    # L_n^a + L_n^b = L_n^{a+b}: a sum of two bilinears with the same shift
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    G = even_twist_group(7)
    for a in G.elements:
        for b in G.elements:
            ab = PeriodicFn(7, [a(x) + b(x) for x in range(1, 8)])
            for n in (-1, 0, 1):
                lhs, rhs = SumOp([(1, build_L(a, n)), (1, build_L(b, n))]), build_L(ab, n)
                window = commutator_window(14, 7 * n)
                assert _certified_and_swept(lhs, rhs, window) == (True, True), (a, b, n)


def test_certificate_names_a_mode_weight_mismatch(monkeypatch):
    # Lemma 2.3 with its right side doubled: the forms differ only in the
    # weight of a_{k+nN}, and the witness names that mode
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    for chi in even_twist_group(7).elements:
        for k, n in ((3, 0), (-3, 0), (1, -1)):
            lhs, rhs = fock._lemma_2_3_sides(chi, k, n)
            doubled = SumOp([(2, rhs)])
            want = chi(k) * rat(k, 7)
            assert fock._certify(lhs, doubled).witness == (k + 7 * n, want, 2 * want)
            window = commutator_window(14, k, 7 * n)
            assert lhs.matrix_equal(doubled, window) is not None


def _pointwise(op):
    """{M: s} for the symmetrised coefficients s of `op`, as functions of x
    by the scalar rules the forms' functions compute in a ring: k (c(x) +
    c(-x - M)) for a bilinear, sum_i c_i s_i(x) for a sum and (x + M1)
    s1(x) s2(x + M1) - (x + M2) s2(x) s1(x + M2) for a commutator."""
    out: dict = {}

    def put(M, s):
        old = out.get(M)
        out[M] = s if old is None else (lambda x, a=old, b=s: a(x) + b(x))

    if isinstance(op, BilinearOp):
        c, M, k = op.coeff, op.M, op.prefactor
        put(M, lambda x: k * (c(x) + c(-x - M)))
    elif isinstance(op, SumOp):
        for c, o in op.terms:
            for M, s in _pointwise(o).items():
                put(M, lambda x, s=s, c=c: c * s(x))
    elif isinstance(op, CommutatorOp):
        for M1, s1 in _pointwise(op.A).items():
            for M2, s2 in _pointwise(op.B).items():
                put(M1 + M2, lambda x, s1=s1, s2=s2, M1=M1, M2=M2:
                    (x + M1) * s1(x) * s2(x + M1) - (x + M2) * s2(x) * s1(x + M2))
    return out


def _pointwise_adjoint(pointwise):
    """s^dagger(x) = conj(s(x - M)) at shift -M."""
    return {-M: (lambda x, s=s, M=M: s(x - M).conjugate()) for M, s in pointwise.items()}


def _assert_tables(form, pointwise):
    # s(x), read through the form's function and its scale, is the
    # pointwise value, of the pointwise value's type, at every x in
    # [-3P, 3P]; and s is a polynomial of the form's degree d on each
    # residue class: its (d + 1)-th difference of step P vanishes on [-6P, 6P]
    ring, scale = form.ring, form.scale
    assert set(form.quad) == set(pointwise)
    for M, (P, d, s) in form.quad.items():
        for x in range(-3 * P, 3 * P + 1):
            want = pointwise[M](x)
            got = ring.to_scalar(s(x), scale)
            assert type(got) is type(want) and got == want, (M, x)
        for x in range(-6 * P, 6 * P + 1):
            diff = ring.zero
            for k in range(d + 2):
                diff = ring.add(diff, ring.smul(s(x + k * P), (-1) ** k * math.comb(d + 1, k)))
            assert ring.is_zero(diff), (M, d, x)


def _assert_forms_are_pointwise(*ops, order=1):
    # each form in the ring of its operator's order times `order`, so a form
    # is also read lifted to a larger ring
    for op in ops:
        ring = cyclo_ring(op.order * order)
        form, pointwise = fock._form(op, ring), _pointwise(op)
        _assert_tables(form, pointwise)
        _assert_tables(fock._adjoint(form), _pointwise_adjoint(pointwise))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_bracket_cases(dilate=True))
def test_coefficient_tables_match_the_pointwise_rules(case):
    f1, f2, m, n, _ = case
    _assert_forms_are_pointwise(*fock._bracket_sides(f1, f2, m, n))


def test_a_bracket_labels_the_degree_its_coefficient_has():
    # [L_m^{f1}, L_n^{f2}] is labelled degree 0 when each shift is a
    # multiple of the other's period, as in every Theorem 2.4 case, and
    # degree 1 otherwise; there the first difference of step P does not
    # vanish, so 2 P points would not decide it.
    f, ring = pair_indicator(3, 1), cyclo_ring(1)
    for l1, l2, m, n, degree in ((1, 1, 1, -2, 0), (2, 1, 1, 2, 0), (2, 2, -1, 1, 0),
                                 (1, 2, 1, 1, 1), (2, 1, 1, -1, 1), (1, 2, -1, 2, 1)):
        A, B = build_L(f.dilate(l1), m), build_L(f.dilate(l2), n)
        ((P, d, s),) = fock._form(CommutatorOp(A, B), ring).quad.values()
        assert d == degree, (l1, l2, m, n)
        assert any(s(x + P) != s(x) for x in range(1, P + 1)) == bool(degree), (l1, l2, m, n)


def test_coefficient_tables_of_the_bracket_row_match_the_pointwise_rules():
    # every pair-indicator case that fock:bracket:7 certifies
    items = [(r, m) for r in (1, 2, 3) for m in range(-2, 3)]
    for i, (r, m) in enumerate(items):
        for s, n in items[i:]:
            _assert_forms_are_pointwise(*fock._bracket_sides(
                pair_indicator(7, r), pair_indicator(7, s), m, n))


def test_pair_cases_take_each_product_in_closed_form(monkeypatch):
    # The pair cases of fock:bracket:7 use 1_r 1_s = delta_rs 1_r: pf_mul
    # runs at most once per (r, s), not once per case (120 of them), and a
    # case certified with the closed-form product is the case with pf_mul's.
    N, span = 7, range(-2, 3)
    calls: list = []

    def counted(a, b):
        calls.append((a, b))
        return pf_mul(a, b)

    monkeypatch.setattr(fock, "pf_mul", counted)
    assert fock._pair_cases_2_4(N, span, _certified_case)
    assert len(calls) <= len(fock._pair_residues(N)) ** 2
    zero = PeriodicFn(N, [rat(0)] * N)
    for r in fock._pair_residues(N):
        for s in fock._pair_residues(N):
            f1, f2 = pair_indicator(N, r), pair_indicator(N, s)
            prod = f1 if r == s else zero
            assert pf_mul(f1, f2) == prod
            for m, n in ((1, -1), (2, 0), (-1, -1)):
                closed = _certified_case(f1, f2, m, n, prod=prod)
                assert closed.passed and _certified_case(f1, f2, m, n).passed, (r, s, m, n)


def test_coefficient_tables_of_dilated_and_nested_brackets():
    # Theorem 3.1's T operators (with the vacuum shift at n = 0), their
    # mode-scaled versions of period 2N and 3N mixed with period-N ones, and
    # brackets of brackets, whose coefficients have degree 2 or 3
    G = even_twist_group(7)
    chi = G.elements[1]  # values in Q(zeta_3)
    T = {(i, n): build_T(G, i, n) for i in (1, 2, 3) for n in (-1, 0, 1)}
    for (i, m), A in T.items():
        for (j, n), B in T.items():
            _assert_forms_are_pointwise(CommutatorOp(A, B))
    for l in (2, 3):
        x = build_L(chi.dilate(l), 1)
        _assert_forms_are_pointwise(CommutatorOp(x, T[1, -1]), CommutatorOp(T[2, 0], x),
                                    CommutatorOp(CommutatorOp(x, T[3, 1]), T[2, -1]),
                                    CommutatorOp(CommutatorOp(x, build_L(chi, 1)),
                                                 build_L(chi, -2)),
                                    CommutatorOp(CommutatorOp(x, build_L(chi, 1)),
                                                 CommutatorOp(build_L(chi, -1), x)))


@pytest.mark.parametrize("sides, witness", [
    (lambda f, g, h: (CommutatorOp(build_L(f, 1), build_L(f, 1)),
                      SumOp([(rat(1), build_L(f, 2))])),
     "(1, Fraction(0, 1), Fraction(1, 7))"),
    (lambda f, g, h: (build_L(f, 1), SumOp([])), "(1, Fraction(1, 7), 0)"),
    (lambda f, g, h: (SumOp([]), build_L(g, -1)), "(1, 0, Fraction(1, 7))"),
    (lambda f, g, h: (build_L(g, 1), build_L(h, 1)),
     "(2, ord=6;[0/1,-1/7], ord=6;[-1/7,1/7])"),
    (lambda f, g, h: (CommutatorOp(build_L(f, 2), build_L(f, -1)), SumOp([])),
     "(1, Fraction(3, 7), 0)"),
], ids=["both-sides", "left-only", "right-only", "cyclotomic", "degree-1-left-only"])
def test_quad_witnesses_are_pinned(sides, witness):
    # The first x where the coefficients differ is named, with the value
    # types of the pointwise rules, and a shift on one side only reads as
    # the int 0 on the other.
    G = even_twist_group(7)
    g, h = G.elements[1], G.elements[2]  # values in Q(zeta_3)
    assert repr(fock._certify(*sides(pair_indicator(7, 1), g, h)).witness) == witness


def test_cyclotomic_witnesses_are_the_scalars_of_the_pointwise_rules():
    # Witnesses in Q(zeta_3) read off ring values through the form's
    # scale: a coefficient mismatch on a form whose scale the vacuum sum
    # halved, a central mismatch and a mode weight mismatch, each the value
    # and type the scalar rules give.
    G = even_twist_group(7)
    g, h = G.elements[1], G.elements[2]
    f = PeriodicFn(7, [zeta(3) * g(u) for u in range(1, 8)])  # f(1) = zeta_3
    cases = [
        (CommutatorOp(build_L(f, 1), build_L(g, -1)), SumOp([(rat(3), build_L(pf_mul(f, g), 0))]),
         (1, zeta(3) * rat(2, 7), zeta(3) * rat(3, 7))),
        (CommutatorOp(build_L(g, 1), build_L(h, -1)),
         SumOp([(rat(2), build_L(pf_mul(g, h), 0)), (1, ScalarOp(g(3) * rat(1, 7)))]),
         ("central", rat(4, 7), g(3) * rat(1, 7))),
        (CommutatorOp(ModeOp(3), build_L(g, 0)), SumOp([(g(3) * rat(6, 7), ModeOp(3))]),
         (3, g(3) * rat(3, 7), g(3) * rat(6, 7))),
    ]
    for lhs, rhs, want in cases:
        got = fock._certify(lhs, rhs).witness
        assert got == want and [type(x) for x in got] == [type(x) for x in want], got
        assert type(want[2]) is CycloNum


def test_adjoints_in_cyclotomic_rings_are_the_operator_adjoints():
    # [A, B]^dagger = [B^dagger, A^dagger] with (L_n^f)^dagger = L_{-n}^{fbar},
    # (c a_k)^dagger = conj(c) a_{-k} and z^dagger = conj(z), for twists
    # with values in Q(zeta_3) and Q(zeta_4), a dilated one among them:
    # coefficients, mode weights and the vacuum scalar of the halved bracket
    # form (M1 + M2 = 0), in the lcm ring Z[zeta_12].  Dropping one
    # conjugation leaves a witness.
    f4 = _even_periodic(8, [zeta(4), rat(1, 2), 1 - zeta(4), rat(0)])
    f3 = _even_periodic(4, [zeta(3), rat(-1, 3)]).dilate(2)
    c, z = zeta(4) + rat(1, 3), zeta(3) * rat(2, 5)

    def sides(m, n, k, conj_c=True):
        A = SumOp([(1, build_L(f4, m)), (c, ModeOp(k))])
        B = SumOp([(1, build_L(f3, n)), (1, ScalarOp(z)), (1, ModeOp(-k))])
        Ad = SumOp([(1, build_L(f4.conj(), -m)), (c.conjugate() if conj_c else c, ModeOp(-k))])
        Bd = SumOp([(1, build_L(f3.conj(), -n)), (1, ScalarOp(z.conjugate())), (1, ModeOp(k))])
        lhs, rhs = CommutatorOp(A, B), CommutatorOp(Bd, Ad)
        ring = cyclo_ring(math.lcm(lhs.order, rhs.order))
        return fock._adjoint(fock._form(lhs, ring)), fock._form(rhs, ring), ring

    for m, n, k in ((1, -1, 3), (1, 0, -2), (-2, 1, 5), (2, -2, 1)):
        got, want, ring = sides(m, n, k)
        assert ring.order == 12 and fock._mismatch(got, want) is None, (m, n, k)
        _assert_forms_are_pointwise(build_L(f4, m), build_L(f3, n), order=3)
        assert fock._mismatch(*sides(m, n, k, conj_c=False)[:2]) is not None, (m, n, k)


def _kernel_key_order(op, p, ring):
    """The keys a kernel column lists, in order: one move per distinct part
    u with u - M > 0 by descending u, the double annihilations (M > 0) by
    descending part, then the creations (M < 0) in `_creations` order."""
    M, q = op.M, fock._key(p)
    keys = [act[1] for u in sorted(set(p), reverse=True)
            for act in [fock._term_action(q, u - M, M)] if act]
    if M < 0:
        keys += [q + t for t, _ in op._creations(ring)]
    return list(dict.fromkeys(keys))


@pytest.mark.parametrize("m", [1, 3], ids=["Z", "Z[zeta_3]"])
def test_icolumn_on_the_bracket_row_windows(m):
    # fock:bracket:7 at cutoff 28 checks P_{+-1}^(r) on degree <= 21 and
    # P_{+-2}^(r) on degree <= 14.  `_difference` names the first key that
    # differs, so the key order is pinned as well as the values.
    ring = cyclo_ring(m)
    for n in (-2, -1, 1, 2):
        states = basis_partitions(28 - 7 * abs(n))
        for r in (1, 2, 3):
            op = BilinearOp(pair_indicator(7, r), 7 * n, rat(1, 14))
            for p in states:
                col = op.icolumn(fock._key(p), ring)
                assert col == _term_sum(op, p, ring), (n, r, p)
                assert list(col) == [t for t in _kernel_key_order(op, p, ring) if t in col]


def _flip_double_creation(real):
    def mutated(p, j, M):
        act = real(p, j, M)
        if act and j > 0 and j + M < 0:
            return -act[0], act[1]
        return act
    return mutated


def _multiplicity_off_by_one(real):
    def mutated(p, u):
        hit = real(p, u)
        return None if hit is None else (hit[0] + 1, hit[1])
    return mutated


def _doubled_scale(real):
    class Mutated(real):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            self.scale = self.scale * 2
    return Mutated


_MUTATIONS = {
    "central-term": ("_central_term",
                     lambda real: lambda f, m: real(f, m) + rat(1, 7)),
    "bracket-rhs": ("_bracket_rhs",
                    lambda real: lambda *a, **k: SumOp([(1, real(*a, **k)),
                                                        (1, ScalarOp(rat(1, 7)))])),
    "term-action-sign": ("_term_action", _flip_double_creation),
    "remove-part-multiplicity": ("_remove_part", _multiplicity_off_by_one),
    "bilinear-scale": ("BilinearOp", _doubled_scale),
}


# the witness prefix of each column-code mutation: its first failing
# operator in r-major order, and the state or table entry it fails at
_COLUMN_WITNESSES = {
    "term-action-sign": "(('P', 1, -4), (), ",
    "remove-part-multiplicity": "(('P', 1, 1), (",
    "bilinear-scale": "(('P', 1, -4), 'table', 1, ",
}
_IDENTITY_ROWS = ("fock:mode-bracket:3", "fock:bracket:3", "fock:decomposition:5")
_REPRESENTATION_ROWS = ("fock:representation:3", "fock:representation:5")


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_certified_rows_turn_red_with_the_sweeps(monkeypatch, mutation):
    # The central term and the right side of Theorem 2.4 enter only the
    # bracket rows: Lemma 2.3 has no central term and Theorem 3.1 builds its
    # own, and there the identity rows turn red with the sweeps.  The three
    # column-code mutations never reach a certificate: the sweeps, which
    # compare columns, turn red, and of the rows only the representation
    # rows do, each naming its first faulty P_k^(r).  A wrong scale leaves
    # the integer columns as they were and shows only against the
    # coefficients the certificate uses.
    attr, make = _MUTATIONS[mutation]
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    cfg = RunConfig(moduli_bracket=(3,), moduli_decomposition=(5,), cutoff=20)
    rows = {c.id: _run_check(c, cfg) for c in build_registry(cfg)
            if c.id in _IDENTITY_ROWS + _REPRESENTATION_ROWS}
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    swept = {
        "fock:mode-bracket:3": verify_lemma_2_3_suite(even_twist_group(3), 20).passed,
        "fock:bracket:3": verify_theorem_2_4_suite(even_twist_group(3), 20).passed,
        "fock:decomposition:5": verify_theorem_3_1(even_twist_group(5), 20).passed,
    }
    column_code = mutation in _COLUMN_WITNESSES
    certified = {k: rows[k].status == "pass" for k in _IDENTITY_ROWS}
    if column_code:  # the sweeps compare columns, the certificates read none
        assert not any(swept.values()) and all(certified.values())
    else:
        assert certified == swept
    red = set(_REPRESENTATION_ROWS) if column_code else {"fock:bracket:3"}
    assert {k for k, r in rows.items() if r.status == "fail"} == red
    for k in red:
        assert rows[k].witness.startswith(_COLUMN_WITNESSES.get(mutation, "((0, 0, "))


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_cli_fock_verify_turns_red_with_the_report_rows(monkeypatch, capsys, mutation):
    # `fock verify` runs the report rows' functions, so it turns red
    # exactly where `test_certified_rows_turn_red_with_the_sweeps` sees the
    # rows fock:mode-bracket:3, fock:bracket:3, fock:decomposition:5 and
    # fock:representation:3|5 red, with the same witnesses.
    attr, make = _MUTATIONS[mutation]
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    column_code = mutation in _COLUMN_WITNESSES
    for check, N in (("2.3", "3"), ("2.4", "3"), ("3.1", "5"), ("representation", "3"),
                     ("representation", "5")):
        monkeypatch.setattr(fock, "_OP_REGISTRY", {})
        code = cli.dispatch(["fock", "verify", "--modulus", N, "--cutoff", "20",
                             "--theorem", check, "--json"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        red = check == ("representation" if column_code else "2.4")
        assert (code, row["status"]) == ((1, "fail") if red else (0, "pass"))
        if red:
            assert row["witness"].startswith(_COLUMN_WITNESSES.get(mutation, "((0, 0, "))


@pytest.mark.parametrize("mutation, prefix, failed", [
    ("term-action-sign", "(('P', ", []),
    ("central-term", "((0, 0, ", [(m, -m) for m in range(-2, 3)]),
])
def test_cli_case_detail_holds_the_certificates_not_the_columns(monkeypatch, capsys,
                                                                mutation, prefix, failed):
    # Each `cases_detail` entry is its case's normal-ordering certificate.
    # A column fault fails no case and leaves the 2.4 row green: the
    # `representation` id names it with a P_k^(r) witness.  A wrong central
    # term fails the 2.4 row at exactly the cases with m = -n.
    attr, make = _MUTATIONS[mutation]
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    assert cli.dispatch(["fock", "verify", "--modulus", "3", "--cutoff", "20", "--json"]) == 1
    rows = {row["check"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    row, detail = rows["2.4"], rows["2.4"]["cases_detail"]
    assert (row["status"], row["cases"], len(detail)) == ("fail" if failed else "pass", 25, 25)
    assert [(d["m"], d["n"]) for d in detail if d["status"] == "fail"] == failed
    # the scaling row shares the central term and walks columns of its own
    assert [k for k, r in rows.items() if r["status"] == "fail"] == [
        "2.4" if failed else "representation", "scaling"]
    assert rows["2.4" if failed else "representation"]["witness"].startswith(prefix)


def test_a_wrong_key_delta_turns_the_representation_row_red(monkeypatch):
    # The kernel's move of one part 2 also adds a part 1; the representation
    # check re-keys by its own units, so its row fails at a partition, and
    # the certified bracket row, which builds no column, stays green.
    real = BilinearOp._kernel

    def corrupted(self, ring):
        moves, start, pairs, creations = real(self, ring)
        if self.M:
            moves = [(u, d + (u == 2), c) for u, d, c in moves]
        return moves, start, pairs, creations

    monkeypatch.setattr(BilinearOp, "_kernel", corrupted)
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    cfg = RunConfig(moduli_bracket=(3,), moduli_decomposition=(), cutoff=20)
    rows = {c.id: _run_check(c, cfg) for c in build_registry(cfg)
            if c.id in ("fock:bracket:3", "fock:representation:3")}
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    res = fock.representation_suite(3, 20)
    (tag, r, k), state, out_state, got, want = res.witness
    row = rows["fock:representation:3"]
    assert rows["fock:bracket:3"].status == "pass"
    assert row.status == "fail" and row.witness == repr(res.witness)
    assert (tag, r) == ("P", 1) and 2 in state and got != want
    assert all(isinstance(p, tuple) and list(p) == sorted(p, reverse=True)
               for p in (state, out_state))


def _recording(op, log, fault=None):
    """Route the kernel of `op` through a recorder of the states asked for;
    at the state `fault`, if any, the column gains 1 at its own input state."""
    real = op._relative
    fault = None if fault is None else fock._key(fault)

    def relative(ring):
        column = real(ring)

        def recorded(p):
            log.append(p)
            col = column(p)
            if p == fault:
                col = {**col, 0: ring.add(col.get(0, ring.zero), ring.one)}
            return col
        return recorded

    op._relative = relative
    return op


def _walk_order(top):
    """The keys of degree <= top in the depth-first order of `_walk`."""
    order: list = []

    def visit(q, degree, u, parent):
        order.append(q)
        return None, q

    assert fock._walk(top, visit) is None
    return order


@pytest.mark.parametrize("N, M, D", [(5, -5, 14), (7, 0, 12), (3, 6, 15), (5, -2, 13),
                                     (7, -21, 30)])
def test_representation_check_walks_each_window_state_once(N, M, D):
    # Both checks (M = 0 is the diagonal one) build one column per state of
    # the window and no other, so neither can pass by visiting too few
    # states, and they build them in the depth-first order of `_walk`.
    log: list = []
    op = _recording(BilinearOp(pair_indicator(N, 1), M, rat(1, 2 * N)), log)
    assert fock._check_representation(op, D) is None
    assert sorted(log) == sorted(commutator_window(D, M))
    assert log == _walk_order(D - abs(M))


@pytest.mark.parametrize("N, M, D", [(5, -5, 14), (7, 0, 12), (3, 6, 15), (5, -2, 13)])
def test_representation_check_names_the_first_fault_in_walk_order(N, M, D):
    # Of two faulty states the check names the one `_walk` meets first,
    # whichever is faulted first: the parts 1^top come before (2,)
    # depth-first though not by degree, and of two states next to each
    # other in the walk, the earlier.
    top = D - abs(M)
    order = [fock._partition(q) for q in _walk_order(top)]
    for faults in [((2,), (1,) * top), ((1,) * top, (2,)), tuple(order[len(order) // 2:][:2])]:
        op = BilinearOp(pair_indicator(N, 1), M, rat(1, 2 * N))
        for fault in faults:
            op = _recording(op, [], fault)
        first = min(faults, key=order.index)
        assert fock._check_representation(op, D)[:2] == (first, first), faults


@pytest.mark.parametrize("N, M, D", [(5, -5, 14), (7, 0, 12), (3, 6, 15), (7, -21, 30)])
def test_representation_check_names_a_fault_at_the_top_degree(N, M, D):
    top = D - abs(M)
    for fault in [q for q in map(fock._partition, commutator_window(D, M))
                  if sum(q) == top][::7]:
        op = _recording(BilinearOp(pair_indicator(N, 1), M, rat(1, 2 * N)), [], fault)
        bad = fock._check_representation(op, D)
        assert bad is not None and bad[:2] == (fault, fault), fault


@pytest.mark.parametrize("M", [0, -5, 5])
def test_representation_check_does_not_take_its_steps_from_the_kernel(monkeypatch, M):
    # The check computes its steps u s(-u) from the table itself, so a
    # wrong residue in the kernel's summed coefficients shows on and off
    # the diagonal; were the two to share `_moves`, it would pass unseen.
    real = BilinearOp._moves

    def corrupted(self, ring):
        moves = list(real(self, ring))
        moves[1] = ring.one if moves[1] is None else ring.add(moves[1], ring.one)
        return moves

    monkeypatch.setattr(BilinearOp, "_moves", corrupted)
    bad = fock._check_representation(BilinearOp(pair_indicator(5, 1), M, rat(1, 10)), 12)
    assert bad is not None and bad[0] != "table"
    assert any(x % 5 == 1 for x in bad[0]), bad


@pytest.mark.parametrize("M", [3, 6])
def test_representation_check_reads_the_step_onto_a_0_as_zero(M):
    # At u = M the step [Q, a_{-M}] = M s(-M) a_0 vanishes whatever s(-M):
    # a coefficient with c(0) != 0 reaches it, and the check passes there.
    op = BilinearOp(PeriodicFn(3, [rat(1), rat(2), rat(3)]), M, rat(1, 6))
    assert fock._check_representation(op, 12) is None


_DIAGONAL_FAULTS = {  # (q, its true column {0: x} or {} relative to q, ring) -> a wrong column
    "value-under-another-key": lambda q, col, ring: {1: col[0]},  # q plus a part 1
    "extra-zero-entry": lambda q, col, ring: {**col, 1: ring.zero},
    "empty-for-nonzero": lambda q, col, ring: {},
    "explicit-zero": lambda q, col, ring: {0: ring.zero},
}


@pytest.mark.parametrize("fault", list(_DIAGONAL_FAULTS))
def test_diagonal_check_names_each_wrong_column_like_the_full_comparison(fault):
    # The diagonal walk accepts a column only when it is exactly {q: x}, or
    # {} when x = 0; any other column must give the witness of comparing it
    # in full with that wanted column, at exactly the faulty state.
    N, D, ring = 7, 12, cyclo_ring(1)
    make = _DIAGONAL_FAULTS[fault]
    probe = BilinearOp(pair_indicator(N, 1), 0, rat(1, 2 * N))._relative(ring)
    tried = 0
    for q in commutator_window(D, 0)[::3]:
        p = fock._partition(q)
        want = probe(q)
        if not want and fault in ("value-under-another-key", "empty-for-nonzero"):
            continue
        got = make(q, want, ring)
        bad = next(t for t in [*got, *want] if got.get(t) != want.get(t))
        op = BilinearOp(pair_indicator(N, 1), 0, rat(1, 2 * N))
        expected = (p, fock._partition(q + bad), ring.to_scalar(got.get(bad, ring.zero), op.scale),
                    ring.to_scalar(want.get(bad, ring.zero), op.scale))

        def relative(ring, q=q):
            return lambda p: make(q, probe(p), ring) if p == q else probe(p)

        op._relative = relative
        assert fock._check_representation(op, D) == expected, q
        tried += 1
    assert tried > 20


def test_shared_diagonal_walk_keeps_the_r_major_witness(monkeypatch):
    # The fault of P_0^(3) lies earlier in the walk than that of P_0^(1);
    # the row must still name P_0^(1), the first in r-major order, and walk
    # no operator after it.
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    early, late, walked = (1, 1), (2,), []
    _recording(build_L(pair_indicator(7, 3), 0), walked, early)
    _recording(build_L(pair_indicator(7, 1), 0), [], late)
    res = fock.representation_suite(7, 28)
    assert not res.passed
    assert res.witness[:3] == (("P", 1, 0), late, late)
    assert walked == []


def test_cached_forms_stay_as_built_and_read_only(monkeypatch):
    # fock:bracket:7 and the transpose row share the form cached on each
    # operator: after both, every cached form has the labels and values of
    # one built afresh, and neither it nor its shifts can be changed in place.
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    assert fock.certify_theorem_2_4_suite(even_twist_group(7), 28).passed
    assert _run_check(_transpose_row(), RunConfig()).status == "pass"
    cached = [(op, ring, form) for op in fock._OP_REGISTRY.values() if isinstance(op, BilinearOp)
              for ring, form in op._forms.items()]
    assert len(cached) > 27 and {ring.order for _, ring, _ in cached} == {1, 6}
    for op, ring, form in cached:
        fresh = fock._form(BilinearOp(op.coeff, op.M, op.prefactor), ring)
        assert form._replace(quad=None) == fresh._replace(quad=None)
        assert form.quad.keys() == fresh.quad.keys() == {op.M}
        (P, d, s), (Q, e, t) = form.quad[op.M], fresh.quad[op.M]
        assert (P, d) == (Q, e) == (op.coeff.period, 0)
        assert [s(x) for x in range(-P, 2 * P)] == [t(x) for x in range(-P, 2 * P)]
        assert fock._form(op, ring) is form
        assert type(form.quad[op.M]) is tuple
        with pytest.raises(TypeError):
            form.quad[op.M] = form.quad[op.M]
        with pytest.raises(TypeError):
            form.lin[1] = ring.one
        with pytest.raises(AttributeError):
            form.scale = rat(1)


def test_certified_rows_cache_no_columns_and_build_no_basis(monkeypatch):
    # The certified suites build no column at all, and the representation
    # row builds them one state at a time, keeping none and no basis.
    def no_column(self, ring):
        raise AssertionError("a certified suite built a column")

    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    before = fock._basis_by_degree.cache_info()
    with monkeypatch.context() as m:
        m.setattr(BilinearOp, "_relative", no_column)
        G = even_twist_group(7)
        assert fock.certify_lemma_2_3_suite(G, 28).passed
        assert fock.certify_theorem_2_4_suite(G, 28).passed
        assert fock.certify_theorem_3_1(G, 28).passed
    assert fock.representation_suite(7, 28).passed
    assert fock._basis_by_degree.cache_info() == before


@pytest.mark.parametrize("N, D", [(3, 12), (5, 24)])
def test_representation_row_counts_the_states_it_walks(monkeypatch, N, D):
    # The count comes from partition counts, and it is the number of kernel
    # calls the walks make: one per state of each operator's window.
    calls: list = []
    real = BilinearOp._relative

    def relative(op, ring):
        column = real(op, ring)
        return lambda q: calls.append(q) or column(q)

    monkeypatch.setattr(BilinearOp, "_relative", relative)
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    res = fock.representation_suite(N, D)
    assert res.passed and res.cases == len(calls) > 0


# -- certified transpose row ------------------------------------------------------


def _transpose_row():
    return next(c for c in build_registry(RunConfig()) if c.id == "fock:transpose")


@st.composite
def _transpose_cases(draw):
    N = draw(st.sampled_from((3, 5, 7)))
    unit = draw(st.sampled_from((rat(0), zeta(3), zeta(4))))
    pairs = draw(st.lists(st.tuples(_small_rationals, _small_rationals),
                          min_size=N // 2, max_size=N // 2))
    return _even_periodic(N, [a + b * unit for a, b in pairs]), draw(st.integers(-2, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_transpose_cases())
def test_transpose_certificate_counts_the_sweeps_entries(case):
    # Random even twists, real and complex: the certificate passes and
    # counts the entries the sweep compares.
    f, n = case
    D = f.period * abs(n) + 6
    certified = fock.certify_transpose_symmetry(f, n, D)
    swept = verify_transpose_symmetry(f, n, D)
    assert certified.passed and swept.passed
    assert certified.cases == swept.cases


def test_transpose_row_value_does_not_depend_on_earlier_checks(monkeypatch):
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    first, second = (_run_check(_transpose_row(), RunConfig()) for _ in range(2))
    assert first.status == second.status == "pass"
    assert first.value == second.value == "47970 matrix entries"


def test_transpose_certificate_needs_the_conjugation(monkeypatch):
    # Without conj the adjoint of L_n^x is L_{-n}^x: true for the real
    # character mod 7, false for the two cubic ones.  The mutation drops the
    # conjugation of the rings the twists' values live in, which the
    # certificate's forms and the scalars share; chibar, the twist of the
    # adjoint side, keeps it.
    elements = even_twist_group(7).elements
    bars = {chi.fingerprint(): chi.conj() for chi in elements}
    cubic = [a for a, chi in enumerate(elements) if chi != bars[chi.fingerprint()]]
    monkeypatch.setattr(PeriodicFn, "conj", lambda chi: bars[chi.fingerprint()])
    for order in {BilinearOp(chi, 7, rat(1, 14)).order for chi in elements}:
        monkeypatch.setattr(cyclo_ring(order), "conj", lambda a: a)
    for a, chi in enumerate(elements):
        for n in range(-2, 3):
            assert fock.certify_transpose_symmetry(chi, n, 16).passed == (a not in cubic)
    assert len(cubic) == 2
    row = _run_check(_transpose_row(), RunConfig())
    assert row.status == "fail"
    assert row.witness.startswith(tuple(f"(({a}, " for a in cubic))


_TRANSPOSE_MUTATIONS = {
    **{k: _MUTATIONS[k] for k in
       ("term-action-sign", "remove-part-multiplicity", "bilinear-scale")},
    "weight-without-factorial": ("partition_weight", lambda real: math.prod),
}


@pytest.mark.parametrize("mutation", list(_TRANSPOSE_MUTATIONS))
def test_transpose_row_turns_red_with_the_sweep(monkeypatch, mutation):
    # The row reads no column, neither of L_n^x nor of a_u: a column fault
    # (a flipped double creation, a wrong multiplicity, a doubled scale)
    # leaves it green, and fock:representation:7 names it.  A weight
    # without its factorial breaks the norm itself, so the norm check fails
    # the row at a ("weight", ...) witness.  A common scale on both sides
    # leaves the transposed identity true, so the sweep passes it.
    attr, make = _TRANSPOSE_MUTATIONS[mutation]
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    row = _run_check(_transpose_row(), RunConfig())
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    swept = all(verify_transpose_symmetry(chi, n, 24).passed
                for chi in even_twist_group(7).elements for n in range(-2, 3))
    norm = mutation == "weight-without-factorial"
    assert (row.status, row.value) == (("fail", "") if norm else ("pass", "47970 matrix entries"))
    assert norm == (row.witness or "").startswith("('weight', ")
    assert swept == (mutation == "bilinear-scale")
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    res = fock.representation_suite(7, 28)
    assert res.passed == (mutation == "weight-without-factorial")
    assert res.passed or repr(res.witness).startswith(_COLUMN_WITNESSES[mutation])


def _record_columns(monkeypatch, log: list) -> None:
    """Log every `icolumn` call, of every operator class that defines one
    (`ModeOp`'s included), as (class name, state)."""
    for cls in (fock.Operator, *fock.Operator.__subclasses__()):
        if "icolumn" in vars(cls):
            def recording(op, q, ring, real=vars(cls)["icolumn"], name=cls.__name__):
                log.append((name, q))
                return real(op, q, ring)

            monkeypatch.setattr(cls, "icolumn", recording)


def test_transpose_row_builds_no_column(monkeypatch):
    # The row certifies by forms, counts its entries off the kernel records
    # and reads the norm's u m_u off the keys, so it fetches no kernel and
    # builds no column of any operator, a_u's included, from a fresh
    # registry.
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    log: list = []
    _record_columns(monkeypatch, log)
    real = BilinearOp._relative
    monkeypatch.setattr(BilinearOp, "_relative",
                        lambda op, ring: log.append(("_relative", op)) or real(op, ring))
    row = _run_check(_transpose_row(), RunConfig())
    assert row.status == "pass" and row.value == "47970 matrix entries"
    assert log == []


def _mirrored_pairs(real):
    # each weight of the grading reads the entry of the mirrored residue pair
    return lambda N, top, allowed: tuple((vec[::-1], k) for vec, k in real(N, top, allowed))


def _doubled_table(real):
    class Mutated(real):
        def __init__(self, coeff, M, prefactor):
            super().__init__(coeff, M, prefactor)
            self._table = fock._OverDenominator([2 * coeff(r) for r in range(coeff.period)])
    return Mutated


_QTRACE_MUTATIONS = {
    "pair-weight-mirrored": ("_diagonal_counts", _mirrored_pairs),
    "zero-parts-kept": ("_diagonal_counts",
                        lambda real: lambda N, top, allowed: real(N, top, allowed | {0})),
    "pair-table-doubled": ("BilinearOp", _doubled_table),
    "odd-grading": ("_diagonal_counts", lambda real: lambda N, top, allowed: tuple(
        ((vec[0] + 1,) + vec[1:], k) for vec, k in real(N, top, allowed))),
}
_QTRACE_ROWS = ("fock:qtrace-char:2", "fock:qtrace-char:3", "fock:qtrace-kernel",
                "fock:qtrace-counts")


@pytest.mark.parametrize("mutation", list(_QTRACE_MUTATIONS))
def test_qtrace_rows_turn_red(monkeypatch, mutation):
    # The four rows on the golden file's reduced configuration.  The vector
    # counts are a process-wide cache over the registry's tables, so both
    # are emptied around the case: no cached vector masks the fault or
    # carries it into later tests.
    path = os.path.join(os.path.dirname(__file__), "data", "report_rows_small.json")
    with open(path, encoding="utf-8") as fh:
        cfg = config_from_mapping(json.load(fh)["config"], RunConfig())
    attr, make = _QTRACE_MUTATIONS[mutation]
    counts = fock._diagonal_counts
    counts.cache_clear()
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    try:
        rows = [_run_check(c, cfg) for c in build_registry(cfg) if c.id in _QTRACE_ROWS]
    finally:
        counts.cache_clear()
    assert [r.id for r in rows if r.status == "fail"] == list(_QTRACE_ROWS)
    for r in rows:
        if mutation == "odd-grading":
            assert r.witness == "ArithmeticError: grading did not rescale to an integer"
        else:  # a wrong series, not an exception
            assert r.witness.startswith("AssertionError: (" if r.id.endswith("counts") else "i=")


def test_transpose_certificate_refuses_a_twist_off_the_pair_basis():
    # Not even: no sum_r f(r) 1_r equals it, so no pair check can stand in.
    with pytest.raises(ValueError, match="residue pairs"):
        fock.certify_transpose_symmetry(PeriodicFn(3, [rat(1), rat(2), rat(0)]), 1, 10)


def test_energy_row_is_stable_on_the_shared_groups():
    row = next(c for c in build_registry(RunConfig()) if c.id == "fock:energy:13")
    first, second = (_run_check(row, RunConfig()) for _ in range(2))
    assert first.status == second.status == "pass"
    assert first.value == second.value


# -- the oscillator modes ---------------------------------------------------------


def _heisenberg_mismatch(window):
    """First (j, k, witness) where [a_j, a_k] != j delta_{j+k,0} on the
    window, |j|, |k| <= 8, or None."""
    for j in range(-8, 9):
        for k in range(-8, 9):
            lhs = CommutatorOp(ModeOp(j), ModeOp(k))
            bad = lhs.matrix_equal(ScalarOp(rat(j if j + k == 0 else 0)), window)
            if bad is not None:
                return j, k, bad
    return None


def test_mode_columns_satisfy_the_heisenberg_relation(monkeypatch):
    # Only the sweeps take the ModeOp columns as given; this ties them to
    # [a_j, a_k] = j delta_{j+k,0} on every state of degree <= 20, and shows
    # that a_k without its multiplicity factor fails it.
    window = commutator_window(20)
    assert _heisenberg_mismatch(window) is None
    real = ModeOp.icolumn

    def without_multiplicity(self, p, ring):
        col = real(self, p, ring)
        return {t: ring.from_int(self.k) for t in col} if self.k > 0 else col

    monkeypatch.setattr(ModeOp, "icolumn", without_multiplicity)
    bad = _heisenberg_mismatch(window)
    assert bad is not None and bad[0] == -bad[1]


# -- mode-scaled operators --------------------------------------------------------


@st.composite
def _dilation_cases(draw):
    N = draw(st.sampled_from((3, 5, 7)))
    values = draw(st.lists(_small_rationals, min_size=N // 2, max_size=N // 2))
    return _even_periodic(N, values), draw(st.integers(1, 4)), draw(st.integers(-3, 3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_dilation_cases())
def test_dilate_keeps_the_twist_and_its_central_values(case):
    f, l, m = case
    x = f.dilate(l)
    assert f.dilate(1) == f
    assert x.period == l * f.period and x.even and not x(0)
    assert all(x(y) == (f(y // l) if y % l == 0 else 0) for y in range(x.period))
    assert l_minus_one_form(x) == l * l_minus_one_form(f)
    assert fock._central_term(x, m) == fock._central_term(f, m)


@pytest.mark.parametrize("N", [5, 7, 9])
def test_central_term_is_linear_in_the_twist(N):
    # The pair certificate of Theorem 2.4 rests on this: the central term
    # of sum_r c_r 1_r is sum_r c_r times that of 1_r, c in Q and Q(zeta_3).
    pairs = [pair_indicator(N, r) for r in fock._pair_residues(N)]
    for c in ([rat(r, 3) - 1 for r in range(len(pairs))],
              [zeta(3) ** r + rat(r, 2) for r in range(len(pairs))]):
        f = fock._pair_combination(N, c)
        for m in range(-4, 5):
            want = sum((x * fock._central_term(p, m) for x, p in zip(c, pairs)), rat(0))
            assert fock._central_term(f, m) == want, (N, c, m)


_SCALED_CASES = [(l, m, n) for l in (2, 3) for m, n in ((1, -1), (1, 0), (-1, 1), (0, 1))]


@pytest.mark.parametrize("l, m, n", _SCALED_CASES)
def test_certificate_path_accepts_mode_scaled_operators(monkeypatch, l, m, n):
    # The mode-scaled operators are build_L of the dilated twist, so the
    # normal-ordering certificate and the representation check take them
    # as they are, and agree with the sweep; a shifted central term turns
    # both red wherever there is one.
    chi = dirichlet_characters(3)[0]
    x = chi.dilate(l)
    certified = _certified_case(x, x, m, n)
    swept = fock._verify_bracket(x, x, m, n, 30)
    assert certified.passed and swept.passed
    assert scaling_embed_check(chi, l, m, n, 30).passed
    for k in {m, n, m + n}:
        assert fock._check_representation(build_L(x, k), 30) is None
    real = fock._central_term
    monkeypatch.setattr(fock, "_central_term", lambda f, m: real(f, m) + rat(1, 7))
    certified = _certified_case(x, x, m, n)
    swept = fock._verify_bracket(x, x, m, n, 30)
    assert certified.passed == swept.passed == (m != -n)


@pytest.mark.parametrize("l", [2, 3])
def test_scaling_central_scalar_is_the_unscaled_one(monkeypatch, l):
    # The scaling check's central scalar is the unscaled one: the closed
    # form of L(-1) on the dilated product is l times that on chi chi, and
    # `l_minus_one` admits only chi chi.
    chi = dirichlet_characters(3)[0]
    prod = pf_mul(chi, chi)
    with pytest.raises(ValueError):
        l_minus_one(pf_mul(chi.dilate(l), chi.dilate(l)))
    sides = []
    real = fock._bracket_rhs

    def recording(*a, **k):
        sides.append(real(*a, **k))
        return sides[-1]

    monkeypatch.setattr(fock, "_bracket_rhs", recording)
    assert scaling_embed_check(chi, l, 1, -1, 24).passed
    (rhs,) = sides
    assert rhs.column(()) == {(): fock._central_term(prod, 1)}


def test_cli_scaling_and_energy_rows_name_the_failing_case(monkeypatch, capsys):
    real = fock._central_term
    monkeypatch.setattr(fock, "_central_term", lambda f, m: real(f, m) + rat(1, 7))
    assert cli.dispatch(["fock", "verify", "--modulus", "3", "--cutoff", "20",
                         "--theorem", "scaling", "--json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["check"], row["status"]) == ("scaling", "fail")
    assert row["witness"] is not None and row["witness"].startswith("((2, 1, -1), 'central'")
    monkeypatch.undo()
    hw = qseries.highest_weight
    monkeypatch.setattr(qseries, "highest_weight", lambda k, j: hw(k, j) + rat(1, 7))
    assert cli.dispatch(["fock", "verify", "--modulus", "5", "--theorem", "3.28", "--json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["check"], row["status"]) == ("3.28", "fail")
    assert row["witness"] is not None and row["witness"].startswith("(5, 1, ")


_SCALING_CASES = [(l, m, n) for l in (2, 3) for m, n in ((1, -1), (1, 0))]


def _scaling_row(cutoff):
    cfg = RunConfig(cutoff=cutoff)
    (row,) = [_run_check(c, cfg) for c in build_registry(cfg) if c.id == "fock:scaling"]
    return row


@pytest.mark.parametrize("N", [3, 5])
def test_scaling_suite_counts_and_skips_as_the_sweeps(monkeypatch, capsys, N):
    # fock:scaling (at N = 3) and `fock verify --theorem scaling` certify
    # the cases of the window sweeps and report their count, the states of
    # degree <= D - lN(|m| + |n|), with no basis built.  Below D = 6N, where
    # the window of l = 3, (m, n) = (1, -1) is empty, all of them skip.
    chi = dirichlet_characters(N)[0]
    for D in (17, 18, 20, 24, 29, 30):
        monkeypatch.setattr(fock, "_OP_REGISTRY", {})
        try:
            swept = [scaling_embed_check(chi, l, m, n, D) for l, m, n in _SCALING_CASES]
            want = ("pass", sum(r.cases for r in swept))
            assert all(swept)
        except ValueError as exc:
            want = ("skip", 0)
            assert str(exc) == "cutoff too small"
        assert want[0] == ("skip" if D < 6 * N else "pass"), D
        monkeypatch.setattr(fock, "_OP_REGISTRY", {})
        before = fock._basis_by_degree.cache_info()
        assert cli.dispatch(["fock", "verify", "--modulus", str(N), "--cutoff", str(D),
                             "--theorem", "scaling", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["status"], row["cases"]) == want, D
        if N == 3:
            row = _scaling_row(D)
            value = f"{want[1]} window states" if want[0] == "pass" else ""
            assert (row.status, row.value) == (want[0], value)
        assert fock._basis_by_degree.cache_info() == before


_SCALING_MUTATIONS = {
    "l-minus-one-form": ("l_minus_one_form", lambda real: lambda f: real(f) + rat(1, 7)),
}


@pytest.mark.parametrize("mutation, prefix, row_prefix", [
    ("central-term", ((2, 1, -1), "central"), "(2, 1, -1, 'central', "),
    ("pair-table-doubled", (("L", 2, -1), "table", 2), "('L', 2, -1, 'table', '2', "),
    ("l-minus-one-form", ((2, 1, -1), "L(-1)"), "(2, 1, -1, 'L(-1)', "),
])
def test_scaling_row_and_cli_turn_red_with_the_sweeps(monkeypatch, capsys, mutation, prefix,
                                                      row_prefix):
    # A wrong central term fails the certificate of the first case with
    # m = -n.  A doubled coefficient table reaches no certificate, whose
    # forms come from the coefficients, so only the representation check
    # sees it, at the first operator it checks.  A wrong closed form of
    # L(-1) breaks the row's claim that the central values are chi's, at
    # the first case.  The sweeps are red under all three.
    attr, make = {**_MUTATIONS, **_QTRACE_MUTATIONS, **_SCALING_MUTATIONS}[mutation]
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    chi = dirichlet_characters(3)[0]
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    assert not all(scaling_embed_check(chi, l, m, n, 20) for l, m, n in _SCALING_CASES)
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    res = fock.certify_scaling_suite(chi, 20)
    assert not res.passed and res.witness[:len(prefix)] == prefix
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    assert cli.dispatch(["fock", "verify", "--modulus", "3", "--cutoff", "20",
                         "--theorem", "scaling", "--json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["witness"] == str(res.witness)
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    row = _scaling_row(20)
    assert row.status == "fail" and row.witness.startswith(row_prefix)


def test_default_report_and_fock_verify_build_no_absolute_column(monkeypatch, capsys,
                                                                rows_in_calling_process):
    # Every Fock row and `fock verify` id decides by certificate or by a
    # representation check, whose columns are the kernel's relative ones.
    # The rows run in this process, where the walks are counted.
    # The column check is paid by the rows that make it: 54 walks in the
    # fock:representation:N rows (the 9 P_k^(r) per pair residue) and 6 in
    # fock:scaling, and no other row walks or fetches a kernel, the
    # transpose row after all of them included.  No row builds an absolute
    # column of any operator, a_u's in the transpose row's norm included.
    calls, row, walks, kernels = [], [None], [], []
    real_run = report._run_check
    real_check, real_relative = fock._check_representation, BilinearOp._relative

    def run(check, cfg):
        row[0] = check.id
        return real_run(check, cfg)

    _record_columns(monkeypatch, calls)
    monkeypatch.setattr(report, "_run_check", run)
    monkeypatch.setattr(fock, "_check_representation",
                        lambda op, D: walks.append(row[0]) or real_check(op, D))
    monkeypatch.setattr(BilinearOp, "_relative",
                        lambda op, ring: kernels.append(row[0]) or real_relative(op, ring))
    monkeypatch.setattr(fock, "_OP_REGISTRY", {})
    doc = report_all(RunConfig())
    assert [r["id"] for r in doc["checks"] if r["status"] != "pass"] == ["summation:squares"]
    assert {r: walks.count(r) for r in walks} == {
        "fock:representation:3": 9, "fock:representation:5": 18, "fock:representation:7": 27,
        "fock:scaling": 6}
    assert set(kernels) == set(walks) and "fock:transpose" not in kernels
    assert cli.dispatch(["fock", "verify", "--modulus", "5"]) == 0
    capsys.readouterr()
    assert calls == []


_ALL_MUTATIONS = {**_MUTATIONS, **_TRANSPOSE_MUTATIONS, **_QTRACE_MUTATIONS,
                  **_SCALING_MUTATIONS}


@pytest.mark.parametrize("mutation", list(_ALL_MUTATIONS))
def test_mutations_reach_the_report_s_forked_workers(monkeypatch, mutation):
    # A worker is forked from the patched process, so every mutation of
    # each family turns the same Fock rows red with the same witnesses
    # whether the rows run in workers or one after another here.
    cfg = RunConfig(moduli_bracket=(3,), moduli_decomposition=(5,), moduli_energy=(5,),
                    cutoff=20, qtrace_order=10)
    rows = [c for c in build_registry(cfg) if c.id.startswith("fock:")]
    attr, make = _ALL_MUTATIONS[mutation]
    counts = fock._diagonal_counts
    monkeypatch.setattr(fock, attr, make(getattr(fock, attr)))
    runs = []
    for cores in (2, 1):
        monkeypatch.setattr(report, "_cores", lambda: cores)
        monkeypatch.setattr(fock, "_OP_REGISTRY", {})
        counts.cache_clear()
        try:
            runs.append([(r.id, r.status, r.witness) for r in report._run_checks(rows, cfg)])
        finally:
            counts.cache_clear()
    assert runs[0] == runs[1]
    assert any(status == "fail" for _, status, _ in runs[0])
