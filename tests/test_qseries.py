import math

import pytest

from ltwist.exactnum import rat, zeta
from ltwist.qseries import (
    PuiseuxSeries,
    central_charge,
    eta_series,
    eta_theta_check,
    euler_check,
    euler_product,
    highest_weight,
    jacobi_check,
    minimal_char,
    modular_s_check,
    pentagonal_sum,
    product_expand,
    reduced_theta,
    specialize_314,
    verify_316,
)


def test_series_arithmetic():
    one = PuiseuxSeries.monomial(0, 1, order=10)
    x = PuiseuxSeries.monomial(1, 1, order=10)
    f = one - x
    g = f.inverse()
    assert all(g.coefficient(n) == 1 for n in range(0, 9))
    assert (f * g).coefficient(0) == 1
    assert (f * g).coefficient(3) == 0
    h = PuiseuxSeries.monomial(rat(1, 3), 2, order=5)
    prod = h * h
    assert prod.coefficient(rat(2, 3)) == 4
    assert prod.offset == rat(2, 3)


def test_series_order_tracking():
    x = PuiseuxSeries.monomial(1, 1, order=6)
    f = PuiseuxSeries.monomial(0, 1, order=6) - x
    inv = f.inverse()
    assert inv.order == 6
    shifted = PuiseuxSeries.monomial(2, 1, order=9) * inv
    assert shifted.order == 8  # order 6 body shifted up by valuation 2
    with pytest.raises(ValueError):
        shifted.coefficient(8)


def test_first_difference():
    a = PuiseuxSeries(1, {0: 1, 2: 3}, 10)
    b = PuiseuxSeries(1, {0: 1, 2: 4}, 10)
    assert a.first_difference(b) == 2
    assert a.first_difference(a) is None
    c = PuiseuxSeries(1, {0: 1, 2: 3, 7: 9}, 5)
    assert a.first_difference(c) is None  # difference beyond the common order


def test_product_expand_examples():
    e = euler_product(13)
    assert sorted(e.coeffs.items()) == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)]
    p = product_expand(5, {2, 3}, -1, 9)
    assert sorted(p.coeffs.items()) == [
        (0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (7, 2), (8, 3)
    ]
    empty = product_expand(3, set(), 1, 10)
    assert sorted(empty.coeffs.items()) == [(0, 1)]


def test_euler_identity():
    assert euler_check(1)
    assert euler_check(50)
    assert euler_check(200)
    # increasing the order never breaks a previously verified prefix
    long = euler_product(80)
    short = pentagonal_sum(40)
    assert long.truncate(40) == short


def test_jacobi_identity():
    assert jacobi_check(30, 5)
    assert jacobi_check(60, 6)


def test_jacobi_check_turns_red_on_a_short_z_buffer(monkeypatch):
    # with math.isqrt patched to 0 the product keeps z-degrees up to
    # max(z_range, 1) only, so terms that would flow back into the
    # compared range are lost and the comparison fails
    for z in (0, 1, 2):
        assert jacobi_check(60, z)
    monkeypatch.setattr(math, "isqrt", lambda n: 0)
    for z in (0, 1, 2):
        assert not jacobi_check(60, z)


def test_triple_product_specializations():
    for k in (1, 2, 3):
        for j in range(1, k + 1):
            lhs, rhs = specialize_314(k, j, 40)
            assert lhs == rhs
    lhs, rhs = specialize_314(1, 1, 30)
    assert lhs == euler_product(30)  # k=1 degenerates to the full product
    with pytest.raises(ValueError):
        specialize_314(2, 3, 10)


def test_reduced_theta():
    th, phase = reduced_theta(rat(3, 5), 5, 6)
    assert th.offset == rat(9, 40)
    assert phase == zeta(20) ** 3
    empty, _ = reduced_theta(rat(3, 5), 5, rat(1, 5))
    assert not empty.coeffs
    # eps = 1 collapses by cancellation
    odd, _ = reduced_theta(rat(1), 1, 20)
    assert not odd.coeffs
    with pytest.raises(ValueError):
        reduced_theta(rat(5, 2), 3, 5)


def _step_one_inverse(f):
    """The inverse by the recursion over every key position t < length, the
    reference for PuiseuxSeries.inverse, which visits only its key lattice."""
    v = min(f.coeffs)
    rel = {k - v: c for k, c in f.coeffs.items()}
    length = int(f.order * f.denom) - v
    inv_lead = rat(1) / rel[0]
    g = {0: inv_lead}
    for t in range(1, length):
        acc = sum((c * g[t - k] for k, c in rel.items() if 0 < k <= t and t - k in g), rat(0))
        if acc:
            g[t] = -inv_lead * acc
    return PuiseuxSeries(f.denom, {t - v: c for t, c in g.items()}, rat(length - v, f.denom))


@pytest.mark.parametrize("series", [
    reduced_theta(rat(1, 3), 3, 30)[0],                       # denominator 216
    reduced_theta(rat(3, 5), 5, 20)[0],                       # 1000
    reduced_theta(rat(5, 7), 7, 12)[0],                       # 2744
    PuiseuxSeries(1, {0: rat(2), 4: rat(1), 6: rat(-3)}, 40),  # key step 2
    PuiseuxSeries(3, {5: rat(-2)}, 4),                        # a monomial
], ids=["216", "1000", "2744", "step-2", "monomial"])
def test_inverse_steps_along_its_key_lattice(series):
    got, want = series.inverse(), _step_one_inverse(series)
    assert (got.denom, got.order, got.coeffs) == (want.denom, want.order, want.coeffs)
    prod = series * got
    assert prod.order > 0 and prod == PuiseuxSeries.monomial(0, 1, prod.order)


def _brute_signed_sum(exponent, inside, bound=40):
    """sum over |m| <= bound of (-1)^m q^exponent(m), zero terms dropped."""
    coeffs: dict = {}
    for m in range(-bound, bound + 1):
        e = exponent(m)
        if inside(e):
            coeffs[e] = coeffs.get(e, 0) + (-1) ** (m % 2)
    return {e: c for e, c in coeffs.items() if c}


def test_signed_lattice_sums_match_brute_force():
    # every exponent grows like m^2, so |m| <= 40 covers each one below the
    # orders used here (|m| <= 12 reaches 200 for the pentagonal numbers)
    assert pentagonal_sum(200).coeffs == _brute_signed_sum(
        lambda m: m * (3 * m + 1) // 2, lambda e: e < 200)
    for k in (1, 2, 3):
        N = 2 * k + 1
        for j in range(1, k + 1):
            _, rhs = specialize_314(k, j, 60)
            assert rhs.coeffs == _brute_signed_sum(
                lambda m: N * m * (m + 1) // 2 - j * m, lambda e: 0 <= e < 60), (k, j)
    cases = [(rat(1, 3), 3)] + [(rat(p, N), N) for N in (5, 7) for p in range(1, 2 * N)]
    for eps, M in cases:
        theta, _ = reduced_theta(eps, M, 30)
        p, q = eps.numerator, eps.denominator
        assert theta.denom == 8 * M * q * q
        assert theta.coeffs == _brute_signed_sum(
            lambda m: M * M * (2 * m * q + p) ** 2,
            lambda e: rat(e, theta.denom) < 30), (eps, M)


def test_eta_theta_relation():
    assert eta_theta_check(40)
    th, phase = reduced_theta(rat(1, 3), 3, 20)
    assert th == eta_series(20)
    assert phase * zeta(12).inverse() == 1


def test_restricted_product_theta_identity():
    for k in (2, 3):
        for j in range(1, k + 1):
            assert verify_316(k, j, 50)
    assert verify_316(3, 1, 40)


def test_minimal_characters():
    mc = minimal_char(2, 1, 30)
    assert mc.offset == rat(11, 60)
    assert central_charge(2) == rat(-22, 5)
    assert minimal_char(2, 2, 30).offset == rat(-1, 60)
    assert highest_weight(2, 2) == rat(-1, 5)
    k3 = minimal_char(3, 1, 20)
    assert k3.offset == highest_weight(3, 1) - central_charge(3) / 24
    with pytest.raises(ValueError):
        minimal_char(1, 1, 10)


def test_minimal_char_counts():
    # coefficients count partitions with parts != 0, +-i mod 2k+1
    mc = minimal_char(2, 1, 12)
    want = [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4]
    for n, c in enumerate(want):
        assert mc.coefficient(rat(11, 60) + n) == c


def test_modular_s_transform():
    residual, S = modular_s_check(2, order=400, precision_bits=256)
    assert residual < 1e-6
    # the change of basis is the classic one: columns mix with weights
    # 2/sqrt(5) sin(pi/5), 2/sqrt(5) sin(2 pi/5)
    import math

    s5 = math.sqrt(5)
    want = [
        [-2 / s5 * math.sin(2 * math.pi / 5), 2 / s5 * math.sin(math.pi / 5)],
        [2 / s5 * math.sin(math.pi / 5), 2 / s5 * math.sin(2 * math.pi / 5)],
    ]
    for i in range(2):
        for j in range(2):
            assert abs(float(S[i, j]) - want[i][j]) < 1e-9
    with pytest.raises(ValueError):
        modular_s_check(2, order=10, precision_bits=256)


def test_modular_fixed_point_consistency():
    import mpmath

    residual, S = modular_s_check(2, order=400, precision_bits=128)
    with mpmath.workprec(160):
        q_i = mpmath.e ** (-2 * mpmath.pi)
        chars = [minimal_char(2, i, 400) for i in (1, 2)]
        v = [c.evaluate(q_i, 128) for c in chars]
        for i in range(2):
            pred = mpmath.fsum(S[i, j] * v[j] for j in range(2))
            assert abs(pred - v[i]) < mpmath.mpf(10) ** -20


def test_cross_module_character_match():
    from ltwist.characters import even_twist_group
    from ltwist.fock import qtrace, vacuum_energies

    for k in (2, 3):
        N = 2 * k + 1
        G = even_twist_group(N)
        for i in range(1, k + 1):
            energy = vacuum_energies(G, i)
            tr = qtrace(G, i, "char", 30)
            mc = minimal_char(k, energy.residue, 29)
            bound = min(tr.order, mc.order)
            assert tr.truncate(bound) == mc.truncate(bound)
            assert tr.offset == energy.d


def _evaluate_term_by_term(series, q, precision_bits):
    """The series' value as `evaluate` sums it, each coefficient converted
    at its term: ascending keys, the power of q^(1/denom) stepped up key by
    key, at precision_bits + 16."""
    import mpmath

    with mpmath.workprec(precision_bits + 16):
        w = mpmath.power(q, mpmath.mpf(1) / series.denom)
        acc, wpow, last = mpmath.mpf(0), mpmath.mpf(1), 0
        for k in sorted(series.coeffs):
            wpow = wpow * mpmath.power(w, k - last)
            last = k
            c = rat(series.coeffs[k])
            acc += mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) * wpow
        return +acc


@pytest.mark.parametrize("precision_bits", [128, 256])
def test_shared_coefficient_evaluation_is_bit_for_bit_evaluate(precision_bits):
    # modular_s_check converts each character's coefficients once and
    # evaluates every point from them, and reads the tail check's truncated
    # sum off the same pass: both equal the per-call evaluation (mpf ==).
    import mpmath

    from ltwist.qseries import _mp_sum

    k = 3
    for i in range(1, k + 1):
        ch = minimal_char(k, i, 120)
        terms = ch._mp_terms(precision_bits)
        less = ch.truncate(ch.order - 1)
        with mpmath.workprec(precision_bits + 32):
            for t in [0.8 + 0.6 * a / k for a in range(k + 1)]:
                for q in (mpmath.e ** (-2 * mpmath.pi * t), mpmath.e ** (-2 * mpmath.pi / t)):
                    want = _evaluate_term_by_term(ch, q, precision_bits)
                    assert ch.evaluate(q, precision_bits) == want
                    assert ch.evaluate(q, precision_bits, terms) == want
                    prefix, whole = _mp_sum(terms, ch.denom, q, precision_bits,
                                            len(less.coeffs))
                    assert whole == want
                    assert prefix == less.evaluate(q, precision_bits)
                    assert prefix == _evaluate_term_by_term(less, q, precision_bits)
        assert 0 < len(less.coeffs) < len(terms)  # the snapshot is a proper prefix
