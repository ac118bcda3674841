"""Concrete check bodies for report_all.

Each check takes the RunConfig and either returns a printable value (pass),
returns (ok, value, witness), or raises.  Ids are stable; the formula string
records exactly what identity the check certifies.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import cycle, islice

from ltwist import cocycle as coc
from ltwist import fock, lvalues, qseries, summation
from ltwist.characters import (
    PeriodicFn,
    dirichlet_characters,
    even_twist_group,
    folded_power_family,
    kronecker_symbol,
    quadratic_field_group,
)
from ltwist.exactnum import CycloNum, cyclo_embed, euler_phi, rat
from ltwist.report import Check, SkipCheck, fmt_float

# numpy loads with the registry, before any row runs, though only the
# summation rows use it: loaded by the first of them instead, mid-report, it
# raised the report's peak RSS by about 4 MB (glibc's heap layout).
import numpy  # noqa: F401


def _require(cond, *witness) -> None:
    """Fail the check unless cond holds.  Unlike `assert` this survives
    `python -O`; it raises AssertionError(*witness), so a failing row reads
    as a failed `assert cond, witness` would."""
    if not cond:
        raise AssertionError(*witness)


def _even_nontrivial(N: int) -> list[PeriodicFn]:
    out = []
    for chi in dirichlet_characters(N):
        if chi.even and not all(v == 1 or not v for v in chi.values()):
            out.append(chi)
    return out


def _quad_char(q: int) -> PeriodicFn:
    return PeriodicFn(q, [rat(kronecker_symbol(k, q)) for k in range(1, q + 1)])


# -- exactnum ----------------------------------------------------------------


def check_field_axioms(cfg) -> str:
    rng = random.Random(cfg.seed)
    orders = [1, 3, 4, 5, 8, 12, 24]

    def sample():
        m = rng.choice(orders)
        return CycloNum(
            m, [rat(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(euler_phi(m))]
        )

    for _ in range(40):
        a, b, c = sample(), sample(), sample()
        _require((a + b) + c == a + (b + c))
        _require((a * b) * c == a * (b * c))
        _require(a * (b + c) == a * b + a * c)
        _require(a + b == b + a and a * b == b * a)
        if a:
            _require(a * (1 / a) == 1)
    return "40 samples, orders <= 24"


def check_embedding_hom(cfg) -> tuple:
    import mpmath

    rng = random.Random(cfg.seed + 1)
    prec = 128
    bound = 2.0 ** (-prec + 8)
    worst = 0.0
    with mpmath.workprec(prec + 64):
        for _ in range(25):
            m = rng.choice([3, 5, 8, 12])
            a = CycloNum(m, [rat(rng.randint(-3, 3)) for _ in range(euler_phi(m))])
            b = CycloNum(m, [rat(rng.randint(-3, 3)) for _ in range(euler_phi(m))])
            lhs = cyclo_embed(a * b, prec)
            rhs = cyclo_embed(a, prec) * cyclo_embed(b, prec)
            worst = max(worst, float(abs(lhs - rhs)))
    return worst < bound, worst, f"bound {bound}"


# -- characters ---------------------------------------------------------------


def check_twist_group_axioms(cfg) -> str:
    counts = []
    for N in (5, 7, 9, 11, 15):
        G = even_twist_group(N)  # construction verifies the group laws
        for idx, e in enumerate(G.elements):
            _require(e.even)
            if idx != G.identity:
                _require(e.mean_zero)
        counts.append(len(G))
    quadratic_field_group(5)
    quadratic_field_group(2)
    return f"orders {counts} plus quadratic groups"


def check_orthogonality(cfg) -> str:
    for N in (5, 7, 12):
        chars = dirichlet_characters(N)
        for a, chi in enumerate(chars):
            for b, psi in enumerate(chars):
                bar = psi.conj()
                total = sum((chi(j) * bar(j) for j in range(1, N + 1)), rat(0))
                want = rat(euler_phi(N)) if a == b else rat(0)
                _require(total == want, (N, a, b))
    return "moduli 5, 7, 12"


def check_table_roundtrip(cfg) -> str:
    for N in (5, 9):
        for chi in dirichlet_characters(N)[:3]:
            text = chi.to_text()
            back = PeriodicFn.from_text(text)
            _require(back == chi and back.to_text() == text)
    return "bit-exact"


# -- lvalues -------------------------------------------------------------------


def check_quad7_class_number(cfg) -> tuple:
    chi = _quad_char(7)
    val = lvalues.l_zero(chi)
    h = lvalues.class_number_imag_quadratic(7)
    ok = val == 1 and h == 1
    return ok, f"L(0)={val}, h={h}", "expected both 1"


def check_class_numbers(cfg) -> str:
    expected = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 47: 5}
    for q, h in expected.items():
        got = lvalues.class_number_imag_quadratic(q)
        _require(got == h, (q, got, h))
    return f"{expected}"


def check_lvalue_agreement(cfg) -> str:
    n_checked = 0
    for N in range(1, 31):
        for chi in dirichlet_characters(N):
            _require(lvalues.l_zero(chi) == lvalues.l_special(1, chi))
            _require(lvalues.l_minus_one(chi) == lvalues.l_special(2, chi))
            n_checked += 1
    for N in range(3, 16, 2):
        for f in folded_power_family(N).elements:
            _require(lvalues.l_zero(f) == lvalues.l_special(1, f))
            _require(lvalues.l_minus_one(f) == lvalues.l_special(2, f))
            n_checked += 1
    return f"{n_checked} functions"


def check_odd_vanishing(cfg) -> str:
    n_checked = 0
    for N in range(3, 31):
        for chi in dirichlet_characters(N):
            if not chi.even:
                _require(not lvalues.l_minus_one(chi), N)
                n_checked += 1
    return f"{n_checked} odd characters"


def check_bernoulli(cfg) -> str:
    _require(lvalues.bernoulli_poly(0).coeffs == (rat(1),))
    _require(lvalues.bernoulli_poly(1).coeffs == (rat(-1, 2), rat(1)))
    _require(lvalues.bernoulli_poly(2).coeffs == (rat(1, 6), rat(-1), rat(1)))
    for n in range(1, 21):
        Bn = lvalues.bernoulli_poly(n)
        dd = Bn.derivative()
        want = lvalues.bernoulli_poly(n - 1)
        _require(all(
            dd.coeffs[i] == rat(n) * want.coeffs[i] for i in range(len(dd.coeffs))
        ))
        total = sum((c / (i + 1) for i, c in enumerate(Bn.coeffs)), rat(0))
        _require(total == 0)
    return "derivative and normalization, n <= 20"


# -- Theorem 1.1 ---------------------------------------------------------------


def check_exact_limits(cfg, N: int) -> str:
    chars = _even_nontrivial(N)
    if not chars:
        raise SkipCheck(f"no even nontrivial characters mod {N}")
    for chi in chars:
        _require(summation.limit_exact_periodic(chi, "const") == lvalues.l_zero(chi))
        _require(
            summation.limit_exact_periodic(chi, "linear") == lvalues.l_minus_one(chi)
        )
    return f"{len(chars)} characters"


def check_numeric_limits(cfg, N: int) -> tuple:
    chars = _even_nontrivial(N)
    if not chars:
        raise SkipCheck(f"no even nontrivial characters mod {N}")
    worst = 0.0
    for chi in chars:
        for weight, depth, exact in (
            ("const", 1, lvalues.l_zero(chi)),
            ("linear", 2, lvalues.l_minus_one(chi)),
        ):
            series = summation.periodic_series(chi, weight)
            rep = summation.limit_numeric(
                summation.partial_sums(series), depth, cfg.n_terms, cfg.tolerance
            )
            if not rep.converged:
                return False, 0.0, rep.message
            target = complex(cyclo_embed(exact, 64))
            err = abs(complex(rep.value) - target)
            worst = max(worst, err)
    return worst < cfg.tolerance, worst, f"tolerance {cfg.tolerance}"


def check_replay_table(cfg) -> tuple:
    table = summation.replay_derivations()
    want = {
        "0+1+1+1+...": rat(-1, 2),
        "0+1-2+3-4+...": rat(1, 4),
        "0+1+2+3+...": rat(-1, 12),
    }
    ok = set(table) == set(want) and all(table[k] == want[k] for k in want)
    return ok, "{-1/2, 1/4, -1/12}", f"got {table}"


# 1-4+9-16+..., the series of both squares rows: -(-1)^i i^2
_SQUARES = summation.rational_series((0, 0, -1), alternating=True, period_hint=2)


def check_squares_series(cfg) -> tuple:
    """Stated worked value of 1-4+9-16+... under iterated averaging.

    The averaging engine disagrees: depths 1-2 do not converge and depths
    3-4 converge to 0, so no allowed depth reproduces 1/8.  Reported
    honestly as a failure; see check 'summation:squares-facts' for what the
    engine does establish.
    """
    b = summation.partial_sums(_SQUARES)
    best = None
    for depth in (1, 2, 3, 4):
        rep = summation.limit_numeric(b, depth, cfg.n_terms, cfg.tolerance)
        if rep.converged:
            err = abs(complex(rep.value) - 0.125)
            if best is None or err < best[0]:
                best = (err, depth, rep.value)
    if best is None:
        return False, "", "no depth <= 4 converges"
    err, depth, value = best
    shown = complex(value).real
    return err < cfg.tolerance, f"depth {depth} -> {fmt_float(shown)}", (
        f"converged value {fmt_float(shown)} differs from 1/8 by {fmt_float(err)}"
    )


def check_squares_facts(cfg) -> tuple:
    """What iterated averaging provably does on 1-4+9-16+...: no convergence
    at depths 1-2 (the depth-2 averages straddle +-1/8), convergence to 0 at
    depth 3 within the tolerance."""
    b = summation.partial_sums(_SQUARES)
    r1 = summation.limit_numeric(b, 1, cfg.n_terms, cfg.tolerance)
    r2 = summation.limit_numeric(b, 2, cfg.n_terms, cfg.tolerance)
    r3 = summation.limit_numeric(b, 3, cfg.n_terms, cfg.tolerance)
    tail = summation.cesaro(summation.cesaro(b)).floats(cfg.n_terms)[-64:]
    straddle = abs(tail.real.max() - 0.125) < 0.01 and abs(tail.real.min() + 0.125) < 0.01
    ok = (
        not r1.converged
        and not r2.converged
        and straddle
        and r3.converged
        and abs(complex(r3.value)) < cfg.tolerance
    )
    return ok, f"depth3 -> {fmt_float(abs(complex(r3.value)))}", "facts did not replicate"


def check_inflation_compat(cfg) -> str:
    """Inflating the partial-sum sequence leaves the averaged value in place:
    along indices that are multiples of the inflation factor the averages of
    the inflated sequence equal the original averages exactly, and the
    numeric limits agree."""
    checked = 0
    for N in range(2, 13):
        for chi in dirichlet_characters(N):
            if not chi.mean_zero or not chi.even:
                continue
            base = summation.partial_sums(summation.periodic_series(chi, "const"))
            avg = summation.cesaro(base)
            for k in range(2, 6):
                avg_k = summation.cesaro(summation.inflate(base, k))
                for i in range(1, 40):
                    _require(avg_k.term(k * i) == avg.term(i), (N, k, i))
                checked += 1
    quad5 = _quad_char(5)
    base = summation.partial_sums(summation.periodic_series(quad5, "const"))
    want = complex(cyclo_embed(lvalues.l_zero(quad5), 64))
    for k in range(1, 6):
        rep = summation.limit_numeric(
            summation.inflate(base, k), 1, cfg.n_terms, cfg.tolerance
        )
        _require(rep.converged and abs(complex(rep.value) - want) < cfg.tolerance, k)
    return f"{checked} exact subsequence identities, numeric limits stable"


def check_regularity(cfg) -> str:
    probes = [
        (summation.rational_series((1,), (0, 1)), 0.0),  # 1/i
        (summation.rational_series((1, 0, 3), (0, 0, 1)), 3.0),  # 3 + 1/i^2
        (summation.rational_series((1,), (0, 1), alternating=True), 0.0),  # (-1)^i/i
    ]
    for seq, want in probes:
        rep = summation.limit_numeric(seq, 1, 20_000, 1e-2)
        _require(rep.converged and abs(complex(rep.value) - want) < 1e-2)
    return "averaging preserves genuine limits"


def check_no_convergence(cfg) -> tuple:
    ones = summation.rational_series((-1, 1), period_hint=1)  # i - 1
    msgs = []
    for depth in (1, 2, 3, 4):
        rep = summation.limit_numeric(ones, depth, 10_000, cfg.tolerance)
        if rep.converged:
            return False, "", f"depth {depth} unexpectedly converged to {rep.value}"
        msgs.append(rep.message)
    return True, msgs[-1], ""


def check_averaged_dirichlet_zero(cfg) -> tuple:
    worst = 0.0
    for q in (5, 7):
        chi = _quad_char(q)
        got = summation.averaged_dirichlet(chi, 0, cfg.n_terms)
        want = complex(cyclo_embed(lvalues.l_zero(chi), 64))
        worst = max(worst, abs(complex(got) - want))
    return worst < cfg.tolerance, worst, f"tolerance {cfg.tolerance}"


def check_averaged_dirichlet_one(cfg) -> tuple:
    chi = _quad_char(5)
    got = complex(summation.averaged_dirichlet(chi, 1, cfg.n_terms))
    n = cfg.n_terms
    direct = sum(map(operator.truediv, islice(cycle(map(float, chi.values())), n), range(1, n + 1)))
    err = abs(got - direct)
    return err < cfg.tolerance, err, f"direct sum {direct}"


def check_averaged_dirichlet_stability(cfg) -> tuple:
    chi = _quad_char(5)
    a = complex(summation.averaged_dirichlet(chi, rat(-1, 2), 1_000_000))
    b = complex(summation.averaged_dirichlet(chi, rat(-1, 2), 500_000))
    err = abs(a - b)
    return err < 1e-2, err, "instability across n"


def check_averaged_dirichlet_domain(cfg) -> tuple:
    chi = _quad_char(5)
    try:
        summation.averaged_dirichlet(chi, rat(-3, 2), 10_000)
    except ValueError as exc:
        return "outside proven half-plane" in str(exc), str(exc), "wrong error"
    return False, "", "no error raised for s <= -1"


# -- fock ----------------------------------------------------------------------


def check_mode_bracket(cfg, N: int) -> tuple:
    res = fock.certify_lemma_2_3_suite(even_twist_group(N), cfg.cutoff)
    return res.passed, f"{res.cases} cases at cutoff {cfg.cutoff}", res.witness


def check_twisted_bracket(cfg, N: int) -> tuple:
    G = even_twist_group(N)
    res = fock.certify_theorem_2_4_suite(G, cfg.cutoff)
    return res.passed, f"{res.cases} cases", res.witness


def check_decomposition(cfg, N: int) -> tuple:
    G = even_twist_group(N)
    res = fock.certify_theorem_3_1(G, cfg.cutoff)
    b = G.elements[G.identity].period_sum()
    charge = b * rat(1, len(G))
    return res.passed, f"central charge {charge}, {res.cases} cases", res.witness


def check_representation(cfg, N: int) -> tuple:
    res = fock.representation_suite(N, cfg.cutoff)
    value = f"{res.cases} states of the P_k^(r), |k| <= 4, at cutoff {cfg.cutoff}"
    return res.passed, value, res.witness


def check_energy_identity(cfg, N: int) -> tuple:
    res = fock.verify_eq_3_28_suite(N)
    if not res.passed:
        return False, "", res.witness
    G = even_twist_group(N)
    values = [fock.vacuum_energies(G, i).d for i in range(1, len(G) + 1)]
    return True, "d = " + ", ".join(str(v) for v in values), None


def check_qtrace_char(cfg, k: int) -> tuple:
    res = fock.verify_qtrace_char(k, cfg.qtrace_order)
    if not res.passed:
        return False, "", "i={}: first diff {}".format(*res.witness)
    return True, f"orders up to {cfg.qtrace_order}", None


def check_qtrace_kernel(cfg) -> tuple:
    N, k = 5, 2
    G = even_twist_group(N)
    for i in range(1, k + 1):
        energy = fock.vacuum_energies(G, i)
        j = energy.residue
        tr = fock.qtrace(G, i, "kernel", 3 * N)
        body = qseries.product_expand(N, {j % N, (N - j) % N}, -1, 3 * N)
        want = qseries.PuiseuxSeries.monomial(
            rat(energy.c), 1, order=rat(energy.c) + 3 * N
        ) * body
        diff = tr.first_difference(want)
        if diff is not None:
            return False, "", f"i={i}: first diff {diff}"
        if tr.offset != energy.c:
            return False, "", f"i={i}: prefactor {tr.offset} != {energy.c}"
    return True, "prefactor exponents equal the component vacuum shifts", None


def check_scaling(cfg) -> tuple:
    res = fock.certify_scaling_suite(dirichlet_characters(3)[0], cfg.cutoff)
    if not res.passed:
        return False, "", res.witness[0] + tuple(map(str, res.witness[1:]))
    return True, f"{res.cases} window states", None


def check_transpose_symmetry(cfg) -> tuple:
    bad = fock.weight_mismatch(24)
    if bad is not None:
        return False, "", bad
    total = 0
    for a, chi in enumerate(even_twist_group(7).elements):
        for n in (-2, -1, 0, 1, 2):
            res = fock.certify_transpose_symmetry(chi, n, 24)
            if not res.passed:
                return False, "", ((a, n),) + res.witness
            total += res.cases
    return True, f"{total} matrix entries", None


def check_qtrace_counts(cfg) -> str:
    """Mode-1 trace coefficients equal restricted partition counts."""
    N, k = 5, 2
    G = even_twist_group(N)
    for i in (1, 2):
        j = fock.vacuum_energies(G, i).residue
        tr = fock.qtrace(G, i, "char", 20)
        allowed = [r for r in range(1, N) if r not in (j % N, (N - j) % N)]
        for deg in range(0, 18):
            count = _count_partitions(deg, allowed, N)
            got = tr.coefficient(rat(deg) + rat(fock.vacuum_energies(G, i).d))
            _require(got == count, (i, deg, got, count))
    return "combinatorial oracle agrees through degree 17"


def _count_partitions(deg: int, residues, N: int) -> int:
    parts = [m for m in range(1, deg + 1) if m % N in residues]

    def rec(remaining, idx):
        if remaining == 0:
            return 1
        total = 0
        for t in range(idx, -1, -1):
            if parts[t] <= remaining:
                total += rec(remaining - parts[t], t)
        return total

    return rec(deg, len(parts) - 1) if deg else 1


# -- qseries ---------------------------------------------------------------------


def check_euler(cfg) -> str:
    _require(qseries.euler_check(cfg.euler_order))
    return f"order {cfg.euler_order}"


def check_jacobi(cfg) -> str:
    _require(qseries.jacobi_check(cfg.jacobi_order, cfg.jacobi_z_range))
    return f"order {cfg.jacobi_order}, |z| <= {cfg.jacobi_z_range}"


def check_triple_product_specialization(cfg) -> str:
    cases = 0
    for k in (1, 2, 3):
        for j in range(1, k + 1):
            lhs, rhs = qseries.specialize_314(k, j, cfg.series_order)
            _require(lhs == rhs, (k, j))
            cases += 1
    return f"{cases} (k, j) pairs at order {cfg.series_order}"


def check_restricted_product_theta(cfg) -> str:
    cases = 0
    for k in (2, 3):
        for j in range(1, k + 1):
            _require(qseries.verify_316(k, j, cfg.series_order), (k, j))
            cases += 1
    return f"{cases} (k, j) pairs at order {cfg.series_order}"


def check_eta_theta(cfg) -> str:
    _require(qseries.eta_theta_check(cfg.series_order))
    return f"order {cfg.series_order}"


def check_prefactor_exponents(cfg) -> str:
    """The theta-side monomial exponent equals the component vacuum shift."""
    for N in (5, 7):
        k = (N - 1) // 2
        G = even_twist_group(N)
        for i in range(1, k + 1):
            e = fock.vacuum_energies(G, i)
            j = e.residue
            shift = rat(1, 24) - rat((N - 2 * j) ** 2, 8 * N)
            _require(shift == -e.d, (N, i))
    return "moduli 5 and 7"


def check_modular(cfg) -> tuple:
    residual, _ = qseries.modular_s_check(
        2, order=cfg.modular_order, precision_bits=cfg.precision_bits
    )
    return residual < cfg.numeric_residual, residual, f"bound {cfg.numeric_residual}"


# -- cocycle ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _null_space(name: str, H: int) -> tuple:
    """(system, dim, basis) of the field `name` at height H, once per
    process: tuples and read-only mappings, which no reader can change."""
    sys_ = coc.build_system(name, H)
    return (sys_, *coc.nullspace_dim(sys_))


def check_cocycle(cfg, name: str) -> str:
    for H in (3, 4, 5):
        sys_, dim, basis = _null_space(name, H)
        _require(dim == 2, (name, H, dim))
    return "dim 2 with basis {m, m^3} at heights 3..5"


def check_cocycle_recursion(cfg) -> str:
    """Recursion (4.49) at H = 4: each null space check_cocycle uses is
    two-dimensional, and `cocycle.line_recursion_holds` on its basis."""
    for name in ("Q", "Q(sqrt2)", "Q(sqrt5)"):
        sys_, dim, basis = _null_space(name, 4)
        _require(dim == 2 and coc.line_recursion_holds(sys_, basis), name)
    return "line recursion holds for the null-space basis"


# -- registry ----------------------------------------------------------------------


F_BRACKET = (
    "[L_m^x1, L_n^x2] = (m-n) L_{m+n}^{x1 x2} + d(m,-n) "
    "[(m/N) L(-1, x1 x2) + (m^3/12) sum_k (x1 x2)(k)]"
)
F_MODE = "[a_k, L_n^x] = (1/N) x(k) k a_{k+nN}"
F_DECOMP = (
    "[T_m^i, T_n^i] = (m-n) T_{m+n}^i + d(m,-n) (m^3/(12k)) b;  [T_m^i, T_n^j] = 0"
)
F_REPR = "columns of P_k^(r) = (1/2N) sum_{j = +-r} :a_{-j} a_{j+kN}:, |k| <= 4, on degree <= D - |k|N"
F_ENERGY = (
    "(2(k-j)+1)^2/(8(2k+1)) - 1/24 = h^{1,j} - c/24 = "
    "(1/2) L(-1, id) - (1/2k) sum_s w^{is} L(-1, g^s)"
)
F_L13 = "L(1-n, x) = -sum_a x(a) N^{n-1} B_n(a/N)/n"


def build_registry(cfg=None) -> list[Check]:
    from ltwist.report import RunConfig

    cfg = cfg or RunConfig()
    checks: list[Check] = [
        Check("exactnum:field-axioms", "field laws in Q(zeta_m), m <= 24", check_field_axioms),
        Check("exactnum:embedding-hom", "|emb(ab) - emb(a) emb(b)| < 2^(-prec+8)", check_embedding_hom),
        Check("characters:group-axioms", "twist groups: even, mean-zero, closed, associative", check_twist_group_axioms),
        Check("characters:orthogonality", "sum_j x(j) conj(y(j)) = phi(N) d(x,y)", check_orthogonality),
        Check("characters:table-roundtrip", "text table ingestion is bit-exact", check_table_roundtrip),
        Check("lvalues:bernoulli", "B_n' = n B_{n-1}, B_0 = 1, integral normalization", check_bernoulli),
        Check("lvalues:quad7", "L(0, quad mod 7) = 1 = class number of Q(sqrt(-7))", check_quad7_class_number),
        Check("lvalues:class-numbers", "h = -(1/q) sum k (k/q) is a positive integer", check_class_numbers),
        Check("lvalues:agreement", F_L13 + " matches the closed forms at n = 1, 2", check_lvalue_agreement),
        Check("lvalues:odd-vanishing", "L(-1, x) = 0 for odd x", check_odd_vanishing),
    ]
    for N in cfg.moduli_exact:
        checks.append(Check(
            f"limits:exact:{N}",
            "averaged limits of sum x(i) and sum x(i) i equal L(0,x), L(-1,x)",
            _bind(check_exact_limits, N),
        ))
    for N in cfg.moduli_numeric:
        checks.append(Check(
            f"limits:numeric:{N}",
            "depth-1/depth-2 averaged partial sums approach the exact values",
            _bind(check_numeric_limits, N),
        ))
    checks += [
        Check("summation:replay", "0+1+1+1+... = -1/2; 0+1-2+3-4+... = 1/4; 0+1+2+3+... = -1/12", check_replay_table),
        Check("summation:squares", "stated worked value 1-4+9-16+... = 1/8 under iterated averaging", check_squares_series),
        Check("summation:squares-facts", "depth-2 averages straddle +-1/8; depth-3 limit is 0", check_squares_facts),
        Check("summation:inflation", "inflating partial sums preserves the averaged limit", check_inflation_compat),
        Check("summation:regularity", "averaging preserves genuine limits", check_regularity),
        Check("summation:no-convergence", "0+1+1+1+... has no averaged limit at depth <= 4", check_no_convergence),
        Check("dirichlet-avg:s0", "averaged partial sums at s=0 approach L(0, x)", check_averaged_dirichlet_zero),
        Check("dirichlet-avg:s1", "averaged partial sums at s=1 match the convergent series", check_averaged_dirichlet_one),
        Check("dirichlet-avg:s-neg-half", "averaged value is stable in n at s=-1/2", check_averaged_dirichlet_stability),
        Check("dirichlet-avg:domain", "s <= -1 is rejected", check_averaged_dirichlet_domain),
    ]
    for N in cfg.moduli_bracket:
        checks.append(Check(f"fock:mode-bracket:{N}", F_MODE, _bind(check_mode_bracket, N)))
    for N in cfg.moduli_bracket:
        checks.append(Check(f"fock:bracket:{N}", F_BRACKET, _bind(check_twisted_bracket, N)))
    for N in cfg.moduli_decomposition:
        checks.append(Check(f"fock:decomposition:{N}", F_DECOMP, _bind(check_decomposition, N)))
    for N in sorted(set(cfg.moduli_bracket) | set(cfg.moduli_decomposition)):
        checks.append(Check(f"fock:representation:{N}", F_REPR, _bind(check_representation, N)))
    for N in cfg.moduli_energy:
        checks.append(Check(f"fock:energy:{N}", F_ENERGY, _bind(check_energy_identity, N)))
    checks += [
        Check("fock:qtrace-char:2", "graded trace on the component vacuum equals the minimal character", _bind(check_qtrace_char, 2)),
        Check("fock:qtrace-char:3", "graded trace on the component vacuum equals the minimal character", _bind(check_qtrace_char, 3)),
        Check("fock:qtrace-kernel", "kernel-mode trace = q^{c_i} prod 1/((1-q^{Nn-j})(1-q^{Nn-(N-j)}))", check_qtrace_kernel),
        Check("fock:qtrace-counts", "trace coefficients equal restricted partition counts", check_qtrace_counts),
        Check("fock:scaling", "mode-scaled operators satisfy the same bracket identity", check_scaling),
        Check("fock:transpose", "w(l) <l|L_n^x|m> = w(m) conj(<m|L_{-n}^{conj x}|l>)", check_transpose_symmetry),
        Check("qseries:euler", "prod (1-x^n) = sum (-1)^n x^{n(3n+1)/2}", check_euler),
        Check("qseries:jacobi", "prod (1-x^{2n})(1+x^{2n-1}z)(1+x^{2n-1}/z) = sum x^{n^2} z^n", check_jacobi),
        Check("qseries:314", "triple-product specialization at x -> x^{N/2}, z -> -x^{(N-2j)/2}", check_triple_product_specialization),
        Check("qseries:316", "restricted product = monomial * theta quotient, phases cancel", check_restricted_product_theta),
        Check("qseries:312", "eta series = phase-stripped reduced theta (1/3, 3)", check_eta_theta),
        Check("qseries:prefactors", "theta-side exponents equal component vacuum shifts", check_prefactor_exponents),
        Check("qseries:modular", "span of the characters is invariant under tau -> -1/tau", check_modular),
        Check("cocycle:Q", "null space of the bracket constraints has basis {m, m^3}", _bind(check_cocycle, "Q")),
        Check("cocycle:Q(sqrt2)", "null space of the bracket constraints has basis {m, m^3}", _bind(check_cocycle, "Q(sqrt2)")),
        Check("cocycle:Q(sqrt5)", "null space of the bracket constraints has basis {m, m^3}", _bind(check_cocycle, "Q(sqrt5)")),
        Check("cocycle:recursion", "(m-1) a((m+1)b1) = (m+2) a(m b1) - (2m+1) a(b1)", check_cocycle_recursion),
    ]
    return checks


def _bind(fn, arg):
    def bound(cfg):
        return fn(cfg, arg)

    bound.__name__ = f"{fn.__name__}[{arg}]"
    return bound


