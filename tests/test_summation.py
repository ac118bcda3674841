import numpy as np
import pytest

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
    # view as integers, so that -0.0 and 0.0 differ
    assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
