import numpy as np
import pytest
import summation_reference as reference

from ltwist import checks, summation
from ltwist.characters import PeriodicFn, dirichlet_characters, kronecker_symbol
from ltwist.exactnum import rat
from ltwist.lvalues import l_minus_one, l_zero
from ltwist.report import RunConfig, _run_check
from ltwist.summation import (
    SeqSpec,
    averaged_dirichlet,
    cesaro,
    inflate,
    limit_exact_periodic,
    limit_numeric,
    partial_sums,
    periodic_series,
    rational_series,
    replay_derivations,
)


def quad_char(q):
    return PeriodicFn(q, [rat(kronecker_symbol(k, q)) for k in range(1, q + 1)])


def test_cesaro_terms_exact():
    seq = SeqSpec(lambda i: rat((i + 1) % 2))  # 0,1,0,1,...
    avg = cesaro(seq)
    assert avg.term(1) == 0
    assert avg.term(2) == rat(1, 2)
    assert avg.term(4) == rat(1, 2)
    assert avg.term(5) == rat(2, 5)
    rep = limit_numeric(seq, 1, 2000, rat(1, 500))
    assert rep.converged and abs(complex(rep.value) - 0.5) < 2e-3


def test_paper_alternating_examples():
    # partial sums of 1,-2,3,-4,... averaged twice approach 1/4
    lin = SeqSpec(
        lambda i: rat(i) * (1 if i % 2 == 1 else -1), period_hint=2
    )
    rep = limit_numeric(partial_sums(lin), 2, 100_000, rat(1, 1000))
    assert rep.converged and abs(complex(rep.value) - 0.25) < 1e-3
    # the same value comes from the exact closed form
    alt = PeriodicFn(2, [rat(1), rat(-1)])
    assert limit_exact_periodic(alt, "linear") == rat(1, 4)


def test_inflate():
    seq = SeqSpec(lambda i: rat(i))
    assert inflate(seq, 1) is seq
    doubled = inflate(seq, 2)
    assert [doubled.term(i) for i in range(1, 7)] == [1, 1, 2, 2, 3, 3]
    conv = SeqSpec(lambda i: rat(1) + rat(1, i))
    rep = limit_numeric(inflate(conv, 3), 1, 30_000, rat(1, 100))
    assert rep.converged and abs(complex(rep.value) - 1.0) < 1e-2
    with pytest.raises(ValueError):
        inflate(seq, 0)


def test_inflation_preserves_averaged_value_exactly():
    chi = quad_char(5)
    base = partial_sums(periodic_series(chi, "const"))
    avg = cesaro(base)
    for k in (2, 3, 5):
        avg_k = cesaro(inflate(base, k))
        for i in range(1, 60):
            assert avg_k.term(k * i) == avg.term(i)


def test_limit_exact_periodic_matches_l_values():
    for N in (5, 7, 9, 11, 12, 13, 15):
        for chi in dirichlet_characters(N):
            if not chi.mean_zero:
                continue
            assert limit_exact_periodic(chi, "const") == l_zero(chi)
            assert limit_exact_periodic(chi, "linear") == l_minus_one(chi)


def test_limit_exact_requires_mean_zero():
    triv = dirichlet_characters(5)[0]
    with pytest.raises(ValueError, match="axiom"):
        limit_exact_periodic(triv, "const")


def test_numeric_class_number_series():
    chi = quad_char(7)
    rep = limit_numeric(
        partial_sums(periodic_series(chi, "const")), 1, 100_000, rat(1, 10_000)
    )
    assert rep.converged
    assert abs(complex(rep.value) - 1.0) < 1e-4


def test_numeric_linear_weight():
    chi = quad_char(5)
    rep = limit_numeric(
        partial_sums(periodic_series(chi, "linear")), 2, 100_000, rat(1, 1000)
    )
    assert rep.converged
    assert abs(complex(rep.value) + 0.4) < 1e-3


def test_no_convergence_for_growing_sums():
    ones = SeqSpec(lambda i: rat(i - 1), period_hint=1)
    for depth in (1, 2, 3, 4):
        rep = limit_numeric(ones, depth, 10_000, rat(1, 1000))
        assert not rep.converged
        assert rep.message == f"no convergence at depth {depth}"
    for depth in (-1, 5):
        with pytest.raises(ValueError, match="depth must lie in 0..4"):
            limit_numeric(ones, depth, 10_000, rat(1, 1000))
    # depth 0 tests the raw partial sums
    squares = partial_sums(SeqSpec(lambda i: rat(1, i * i)))
    assert limit_numeric(squares, 0, 10_000, 1e-3).converged


def test_float_fallback_is_the_per_term_conversion():
    # with no batch function, floats(n) converts the exact terms one by one
    seq = SeqSpec(lambda i: rat(i * i) * (1 if i % 2 == 1 else -1), period_hint=2)
    want = [complex(float(i * i * (1 if i % 2 == 1 else -1))) for i in range(1, 1501)]
    np.testing.assert_array_equal(seq.floats(1500), np.array(want, dtype=np.complex128))


def test_squares_series_facts():
    """1-4+9-16+...: no averaged limit at depths 1-2 (the depth-2 averages
    straddle +-1/8), and the depth-3 limit is 0."""
    sq = SeqSpec(
        lambda i: rat(i * i) * (1 if i % 2 == 1 else -1), period_hint=2
    )
    b = partial_sums(sq)
    assert not limit_numeric(b, 1, 100_000, rat(1, 1000)).converged
    assert not limit_numeric(b, 2, 100_000, rat(1, 1000)).converged
    x = b.floats(100_000)
    idx = np.arange(1, 100_001)
    for _ in range(2):
        x = np.cumsum(x) / idx
    tail = x[-64:].real
    assert abs(tail.max() - 0.125) < 0.01 and abs(tail.min() + 0.125) < 0.01
    r3 = limit_numeric(b, 3, 100_000, rat(1, 1000))
    assert r3.converged and abs(complex(r3.value)) < 1e-3
    # the alternating triangular series, by contrast, honestly reaches 1/8
    tri = SeqSpec(
        lambda i: rat(i * (i + 1), 2) * (1 if i % 2 == 1 else -1), period_hint=2
    )
    r = limit_numeric(partial_sums(tri), 3, 200_000, rat(1, 100))
    assert r.converged and abs(complex(r.value) - 0.125) < 1e-3


def test_replay_table():
    table = replay_derivations()
    assert table["0+1+1+1+..."] == rat(-1, 2)
    assert table["0+1-2+3-4+..."] == rat(1, 4)
    assert table["0+1+2+3+..."] == rat(-1, 12)


def test_regularity_on_convergent_probes():
    probes = [
        (SeqSpec(lambda i: rat(1, i)), 0.0),
        (SeqSpec(lambda i: rat(2) - rat(1, i * i)), 2.0),
    ]
    for seq, want in probes:
        rep = limit_numeric(seq, 1, 20_000, rat(1, 100))
        assert rep.converged and abs(complex(rep.value) - want) < 1e-2


def test_averaged_dirichlet():
    quad7 = quad_char(7)
    v = averaged_dirichlet(quad7, 0, 100_000)
    assert abs(complex(v) - 1.0) < 1e-3

    quad5 = quad_char(5)
    v = complex(averaged_dirichlet(quad5, 1, 100_000))
    direct = sum(kronecker_symbol(k, 5) / k for k in range(1, 100_000))
    assert abs(v - direct) < 1e-3

    a = complex(averaged_dirichlet(quad5, -0.5, 1_000_000))
    b = complex(averaged_dirichlet(quad5, -0.5, 500_000))
    assert abs(a - b) < 1e-2

    high = averaged_dirichlet(quad7, 0, 20_000, precision_bits=128)
    assert abs(complex(high) - 1.0) < 1e-3


def test_averaged_dirichlet_in_place_is_bit_identical():
    """The float64 path works in place; it must give exactly the value of
    the plain whole-array expression, for a real and a cyclotomic chi."""

    def whole_array(chi, s, n_terms):
        N = chi.period
        l = N * (n_terms // N)
        vals = np.array([complex(chi(r)) for r in range(N)], dtype=np.complex128)
        k = np.arange(1, l + 1, dtype=np.float64)
        coeff = vals[np.arange(1, l + 1) % N]
        return complex(np.sum((l + 1 - k) * coeff * k ** (-float(s))) / l)

    real = quad_char(5)
    cyclo = dirichlet_characters(7)[1]  # values in Q(zeta_6)
    assert not isinstance(cyclo(3), type(rat(1)))
    for chi in (real, cyclo):
        for s in (rat(-1, 2), rat(0), rat(1, 3), rat(1), rat(3, 2)):
            got = averaged_dirichlet(chi, s, 100_003)
            assert got == whole_array(chi, s, 100_003), (chi, s)


def test_averaged_dirichlet_domain():
    quad5 = quad_char(5)
    for s in (-1, float("nan")):
        for bits in (53, 128):
            with pytest.raises(ValueError, match="outside proven half-plane"):
                averaged_dirichlet(quad5, s, 10_000, precision_bits=bits)
    triv = dirichlet_characters(5)[0]
    with pytest.raises(ValueError, match="mean-zero"):
        averaged_dirichlet(triv, 0, 10_000)


def test_seqspec_guards():
    seq = SeqSpec(lambda i: rat(i))
    assert seq.term(2) == 2
    with pytest.raises(IndexError):
        seq.term(0)
    chi = quad_char(5)
    with pytest.raises(ValueError):
        periodic_series(chi, "quadratic")
    with pytest.raises(ValueError):
        limit_numeric(periodic_series(chi, "const"), 1, 30, rat(1, 10))


def test_int_terms_convert_as_their_rationals():
    # the float paths take complex(v) of each exact term; for an int or a Rat
    # that is correctly rounded, the value the numerator / denominator
    # division gives, and a term function's ints convert as their Rats
    big = 2**53
    for v in (0, 1, -1, -7, big - 1, big + 1, -(big + 1), 2**64 + 3, -(3**40), 10**300):
        want = complex(int(rat(v).numerator) / int(rat(v).denominator))
        for got in (complex(v), complex(rat(v)), complex(rat(v, 3) * 3)):
            assert type(got) is complex and (got.real, got.imag) == (want.real, want.imag), v
    assert complex(big + 1) == complex(float(big))  # rounded to even
    third = rat(1, 3)
    assert complex(third) == complex(1 / 3) and complex(-third) == complex(-1 / 3)
    seq = SeqSpec(lambda i: rat(big + i, 3))
    assert seq.floats(2).tolist() == [complex((big + 1) / 3), complex((big + 2) / 3)]


# ---------------------------------------------------------------------------
# batch floats of rational sequences

_BATCH_ROWS = ("summation:squares", "summation:squares-facts",
               "summation:regularity", "summation:no-convergence")  # registry order


def _exact_floats(seq, n):
    return np.array([complex(seq.term(i)) for i in range(1, n + 1)], dtype=np.complex128)


def _assert_same_bits(got, want):
    # a real sequence's batch is float64: the real parts of the exact terms'
    # complex() bit for bit, viewed as integers so that -0.0 and 0.0 differ,
    # and their imaginary parts all +0.0
    assert got.dtype == np.float64 and want.dtype == np.complex128
    assert got.shape == want.shape and not want.imag.view(np.uint64).any()
    assert np.array_equal(got.view(np.uint64), want.real.copy().view(np.uint64))


def _run_rows(ids):
    cfg = RunConfig()
    return [_run_check(c, cfg) for c in checks.build_registry(cfg) if c.id in ids]


def test_registry_rational_series_floats_are_the_exact_terms_bit_for_bit(monkeypatch):
    # every rational_series the summation rows use, at every n its row asks
    made = [checks._SQUARES]
    asked: dict = {}  # keyed by the sequence itself, so no id is reused
    real_series, real_floats = summation.rational_series, SeqSpec.floats

    def record_series(*args, **kwargs):
        made.append(real_series(*args, **kwargs))
        return made[-1]

    def record_floats(self, n):
        asked.setdefault(self, set()).add(n)
        return real_floats(self, n)

    monkeypatch.setattr(summation, "rational_series", record_series)
    monkeypatch.setattr(SeqSpec, "floats", record_floats)
    _run_rows(_BATCH_ROWS)
    assert len(made) == 5  # squares, three regularity probes, no-convergence
    for seq in made:
        for n in asked[seq]:
            _assert_same_bits(real_floats(seq, n), _exact_floats(seq, n))
    assert sorted(n for seq in made for n in asked[seq]) == [
        10_000, 20_000, 20_000, 20_000, RunConfig().n_terms]


def test_rational_series_terms_and_the_exact_fallback(monkeypatch):
    quartic = rational_series((0, 0, 0, 0, 1))  # i^4: 10^16 > 2^53 at n = 10^4
    cases = [
        (quartic, 10_000, False),
        (quartic, 9_000, True),  # 9000^4 < 2^53
        (rational_series((-1, 1), alternating=True), 50, True),  # a zero term
        (rational_series((1,), (0, -1)), 50, True),              # -1/i
        (rational_series((-1, 1), (-1,)), 50, True),              # 0 over -1 at i = 1
        (rational_series((2, 0, 3), (1, 0, 0, 7), alternating=True), 1_000, True),
    ]
    assert quartic.term(3) == 81 and rational_series((1,), (0, -1)).term(4) == rat(-1, 4)
    assert rational_series((-1, 1), alternating=True).term(3) == -2
    for seq, n, batch in cases:
        want = _exact_floats(seq, n)
        with monkeypatch.context() as m:
            m.setattr(SeqSpec, "term", lambda self, i: 1 / 0)
            if batch:
                _assert_same_bits(seq.floats(n), want)
            else:
                with pytest.raises(ZeroDivisionError):
                    seq.floats(n)
        _assert_same_bits(seq.floats(n), want)


def test_batch_rows_never_convert_a_term(monkeypatch):
    # the summation rows take every float from the batch path: with the exact
    # terms unreachable they give the same status, value and witness
    want = _run_rows(_BATCH_ROWS)
    monkeypatch.setattr(SeqSpec, "term", lambda self, i: 1 / 0)
    got = _run_rows(_BATCH_ROWS)
    assert [r.id for r in got] == list(_BATCH_ROWS)
    assert [(r.status, r.value, r.witness) for r in got] == [
        (r.status, r.value, r.witness) for r in want]
    assert got[0].status == "fail"  # summation:squares, the designed red


# ---------------------------------------------------------------------------
# the averaging chain against the reference engine

_CHAIN_ROWS = ("limits:numeric:", "summation:", "dirichlet-avg:")


def _hexed(value):
    if value is None:
        return None
    return type(value).__name__, complex(value).real.hex(), complex(value).imag.hex()


def _report_key(rep):
    return _hexed(rep.value), rep.residual.hex(), rep.mode, rep.converged, rep.message


def _assert_reference_bits(got, want):
    # float64 exactly when every reference value is real, and then the real
    # parts bit for bit; a complex batch bit for bit
    assert want.dtype == np.complex128 and got.shape == want.shape
    if got.dtype == np.float64:
        assert not want.imag.view(np.uint64).any()
        want = want.real.copy()
    else:
        assert got.dtype == np.complex128 and want.imag.any()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_engine_is_the_reference_on_every_registry_request(monkeypatch):
    """Every series, depth and n the limits:numeric, summation and
    dirichlet-avg rows ask for gives the reference engine's report, value
    and residual by .hex(), and every batch they read the reference floats."""
    refs = {checks._SQUARES: reference.rational_series((0, 0, -1), alternating=True,
                                                       period_hint=2)}
    limits, dirichlet, asked = [], [], set()

    def mirror(name, of_spec):
        real, ref = getattr(summation, name), getattr(reference, name)

        def made(*args, **kwargs):
            out = real(*args, **kwargs)
            if not of_spec:
                refs[out] = ref(*args, **kwargs)
            elif args[0] in refs:
                refs[out] = ref(refs[args[0]], *args[1:], **kwargs)
            return out

        monkeypatch.setattr(summation, name, made)

    for name in ("periodic_series", "rational_series"):
        mirror(name, False)
    for name in ("partial_sums", "cesaro", "inflate"):
        mirror(name, True)
    real_limit, real_avg, real_floats = (
        summation.limit_numeric, summation.averaged_dirichlet, SeqSpec.floats)

    def limit(s, depth, n_terms, tol):
        limits.append((s, depth, n_terms, tol, real_limit(s, depth, n_terms, tol)))
        return limits[-1][-1]

    def averaged(chi, s, n_terms, *args):
        dirichlet.append((chi, s, n_terms, real_avg(chi, s, n_terms, *args)))
        assert not args
        return dirichlet[-1][-1]

    def floats(self, n):
        asked.add((self, n))
        return real_floats(self, n)

    monkeypatch.setattr(summation, "limit_numeric", limit)
    monkeypatch.setattr(summation, "averaged_dirichlet", averaged)
    monkeypatch.setattr(SeqSpec, "floats", floats)
    cfg = RunConfig()
    rows = [_run_check(c, cfg) for c in checks.build_registry(cfg) if c.id.startswith(_CHAIN_ROWS)]
    assert len(rows) == 16 and rows[7].id == "summation:squares" and rows[7].status == "fail"
    assert [r.id for r in rows if r.status != "pass"] == ["summation:squares"]
    assert checks._SQUARES._chain[2] is None  # the memo lives on the row's own spec

    assert len(limits) == 49 and {(d, n) for _, d, n, _, _ in limits} == {
        (1, 100_000), (2, 100_000), (3, 100_000), (4, 100_000), (1, 20_000),
        (1, 10_000), (2, 10_000), (3, 10_000), (4, 10_000)}
    for s, depth, n, tol, got in limits:
        value, residual, converged, message = reference.limit_numeric(refs[s], depth, n, tol)
        want = got._replace(value=value, residual=residual, converged=converged, message=message)
        assert _report_key(got) == _report_key(want), (depth, n)
    assert len(dirichlet) == 5
    for chi, s, n, got in dirichlet:
        assert _hexed(got) == _hexed(reference.averaged_dirichlet(chi, s, n)), (s, n)
    monkeypatch.setattr(SeqSpec, "floats", real_floats)
    assert len([1 for spec, _ in asked if spec in refs]) > 50
    for spec, n in asked:
        if spec in refs:
            _assert_reference_bits(spec.floats(n), refs[spec].floats(n))


def test_float64_steps_are_the_real_parts_of_complex_steps():
    # the identity the float64 chain rests on, checked on the installed
    # numpy: for a real array without -0.0, the cumulative sum and the
    # product with 1/k are the real parts of the complex128 cumulative sum
    # and of the complex128 quotient by k, bit for bit
    rng = np.random.default_rng(41)
    n = 200_000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 31, n)
    x[::97] = 0.0
    k = np.arange(1, n + 1, dtype=np.float64)
    z = x.astype(np.complex128)
    for got, want in ((np.cumsum(x), np.cumsum(z)), (x * (1.0 / k), z / k)):
        assert not want.imag.view(np.uint64).any()
        assert np.array_equal(got.view(np.uint64), want.real.copy().view(np.uint64))


def test_squares_rows_walk_one_chain(monkeypatch):
    # one cumulative sum for the partial sums and one per depth reached:
    # depths 1-4 on one chain; depths 1-3 on one chain, then the depth-2
    # tail on a chain of its own
    counted = []
    real_cumsum = np.cumsum

    def cumsum(*args, **kwargs):
        counted.append(args[0].size)
        return real_cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", cumsum)
    counts = {}
    for row in ("summation:squares", "summation:squares-facts"):
        counted.clear()
        _run_rows((row,))
        counts[row] = len(counted)
    assert counts == {"summation:squares": 5, "summation:squares-facts": 7}


def test_returned_batches_cannot_corrupt_a_chain():
    """Every array floats(n) returns belongs to the caller: scribbling on
    them, between limit_numeric calls that resume, restart or repeat one
    chain, leaves every report as on a fresh spec."""
    real, cyclo = quad_char(5), dirichlet_characters(7)[1]
    n, tol = 3_000, rat(1, 1000)

    def specs(kind):
        if kind == "real":
            base = [periodic_series(real, "const")]
        elif kind == "cyclo":
            base = [periodic_series(cyclo, "linear")]
        elif kind == "rational":
            base = [rational_series((0, 0, -1), alternating=True, period_hint=2)]
        else:  # no batch function: the exact terms one by one
            base = [SeqSpec(lambda i: rat((-1) ** i, i), period_hint=2)]
        base.append(partial_sums(base[-1]))
        if kind == "real":
            base.append(inflate(base[-1], 3))
        return base

    for kind in ("real", "cyclo", "rational", "fallback"):
        want = [_report_key(limit_numeric(specs(kind)[-1], d, n, tol)) for d in range(5)]
        chain = specs(kind)
        for depth in (1, 3, 0, 4, 2, 2, 4):
            for spec in chain + [cesaro(chain[-1])]:
                for m in (n, n // 2):
                    spec.floats(m)[:] = 7
            rep = limit_numeric(chain[-1], depth, n, tol)
            assert _report_key(rep) == want[depth], (kind, depth)
            assert type(rep.residual) is float
    kept = [v for v in vars(summation).values() if isinstance(v, np.ndarray)]
    assert not any(a.flags.writeable for a in kept)
