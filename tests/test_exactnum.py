import math
import random

import numpy as np
import pytest

from ltwist.exactnum import (
    CycloNum,
    Rat,
    cyclo_arith,
    cyclo_embed,
    cyclotomic_poly,
    euler_phi,
    factorize,
    horner,
    is_prime,
    is_rational,
    parse_scalar,
    rat,
    rat_str,
    scalar_str,
    zeta,
)


def test_rat_basics():
    assert rat(2, 4) == rat(1, 2)
    assert rat_str(rat(-3, 6)) == "-1/2"
    assert rat_str(rat(5)) == "5/1"


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degree is always phi(m)
    for m in range(1, 40):
        assert len(cyclotomic_poly(m)) == euler_phi(m) + 1


def _brute_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, n))


def test_factorize_and_what_is_read_from_it():
    for n in range(-3, 2):
        assert factorize(n) == []
    for n in range(2, 2001):
        parts = factorize(n)
        assert math.prod(p**e for p, e in parts) == n, n
        assert [p for p, _ in parts] == sorted({p for p, _ in parts}), n
        assert all(_brute_prime(p) and e >= 1 for p, e in parts), n
        assert (parts == [(n, 1)]) == _brute_prime(n), n
    for n in range(1, 501):
        assert euler_phi(n) == sum(math.gcd(a, n) == 1 for a in range(1, n + 1)), n


def test_is_prime_agrees_with_factorize_and_refuses_past_its_bound():
    for n in range(10**5):
        assert is_prime(n) == (factorize(n) == [(n, 1)]), n
    # strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5
    for n in (2047, 1373653, 25326001):
        assert not is_prime(n), n
    assert is_prime(3_215_031_751 - 2)  # the largest prime below the bound
    for n in (3_215_031_751, 3_215_031_752, 1 << 40):
        with pytest.raises(ValueError):
            is_prime(n)


def test_horner_is_the_direct_sum():
    rng = random.Random(7)
    idx = np.arange(-30, 31, dtype=np.int64)
    for _ in range(40):
        ints = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        coeffs = tuple(rat(c, rng.randint(1, 5)) for c in ints)
        x = rat(rng.randint(-7, 7), rng.randint(1, 4))
        assert horner(coeffs, x) == sum(c * x**k for k, c in enumerate(coeffs))
        got = horner(ints, idx)
        assert got.dtype == np.int64
        assert np.array_equal(got, sum(c * idx**k for k, c in enumerate(ints)))


def test_simple_root_identities():
    z4 = zeta(4)
    assert z4 * z4 == -1
    z3 = zeta(3)
    assert z3 + z3**2 == -1
    z5 = zeta(5)
    assert (rat(1, 2) + z5) - z5 == rat(1, 2)
    assert zeta(2) == -1
    assert zeta(1) == 1


def test_is_rational():
    z3, z5 = zeta(3), zeta(5)
    assert is_rational(z3 + z3**2) == -1
    assert is_rational(z5) is None
    assert is_rational(rat(7, 3)) == rat(7, 3)
    assert is_rational(CycloNum(3, (rat(7, 3), rat(0)))) == rat(7, 3)
    assert is_rational(7) == 7 and type(is_rational(7)) is Rat


def test_cyclo_arith_dispatcher():
    z4 = zeta(4)
    assert cyclo_arith(z4, z4, "mul") == -1
    assert cyclo_arith(z4, z4, "sub") == 0
    assert cyclo_arith(1, z4, "add") == 1 + z4
    assert cyclo_arith(z4, z4, "div") == 1
    # two ints divide exactly
    assert type(cyclo_arith(1, 3, "div")) is Rat and cyclo_arith(1, 3, "div") == rat(1, 3)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        cyclo_arith(z4, 0, "div")
    with pytest.raises(ValueError):
        cyclo_arith(z4, z4, "pow")


def test_mixed_order_arithmetic():
    z3, z4 = zeta(3), zeta(4)
    prod = z3 * z4
    assert prod.order == 12
    assert prod == zeta(12) ** 7  # zeta_3 zeta_4 = zeta_12^{4+3}
    # equality across different stored orders
    assert zeta(6) == CycloNum(3, (rat(1), rat(1)))  # 1 + zeta_3 = zeta_6


def test_field_axioms_random():
    rng = random.Random(7)
    orders = [1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24]

    def sample():
        m = rng.choice(orders)
        return CycloNum(
            m, [rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(euler_phi(m))]
        )

    for _ in range(60):
        a, b, c = sample(), sample(), sample()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if a:
            assert a * (1 / a) == 1
            assert (a / a) == 1


def test_round_trip_rationals():
    # a rational value built as a cyclotomic one is that Rat, at every order
    rng = random.Random(11)
    for _ in range(30):
        r = rat(rng.randint(-50, 50), rng.randint(1, 50))
        m = rng.choice((1, 2, 3, 4, 5, 12))
        x = CycloNum(m, [r] + [rat(0)] * (euler_phi(m) - 1))
        assert type(x) is Rat and x == r and is_rational(x) == r


def test_powers_and_inverse():
    z7 = zeta(7)
    assert z7**7 == 1
    assert z7**-1 == z7**6
    assert (1 + z7).inverse() * (1 + z7) == 1


def test_galois_and_conj():
    z5 = zeta(5)
    assert z5.galois(2) == z5 * z5
    assert z5.conjugate() * z5 == 1
    assert rat(3, 2).conjugate() == rat(3, 2) and (3).conjugate() == 3
    x = 1 + 2 * z5 + z5**2
    assert (x * x.conjugate()).conjugate() == x * x.conjugate()  # norm-like element is real


def test_embedding_values():
    import mpmath

    i_emb = cyclo_embed(zeta(4), 128)
    assert abs(i_emb - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** -124
    with mpmath.workprec(160):
        z3_emb = cyclo_embed(zeta(3), 128)
        want = mpmath.e ** (2j * mpmath.pi / 3)
        assert abs(z3_emb - want) < mpmath.mpf(2) ** -120
    third = cyclo_embed(rat(-1, 12), 128)
    assert abs(float(third.real) + 1 / 12) < 1e-30
    with pytest.raises(ValueError):
        cyclo_embed(zeta(3), 32)


def _embed_uncached(a, bits):
    import mpmath

    with mpmath.workprec(bits + 32):
        z = mpmath.e ** (2j * mpmath.pi / a.order)
        acc = mpmath.mpc(0)
        for c in reversed(a.coeffs):
            acc = acc * z
            acc += mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return +acc


def test_embedding_with_a_cached_root_is_the_formula_bit_for_bit():
    from ltwist import exactnum

    bits_all = (64, 128, 256)
    for m in (3, 4, 5, 8, 12, 24):
        x = CycloNum(m, [rat(k - 2, k + 1) for k in range(euler_phi(m))])
        for bits in bits_all:
            want = _embed_uncached(x, bits)
            exactnum._ROOTS.clear()
            cold = cyclo_embed(x, bits)
            exactnum._ROOTS.clear()
            for other in bits_all:
                if other != bits:
                    cyclo_embed(x, other)
            after_others = cyclo_embed(x, bits)  # a miss among filled entries
            warm = cyclo_embed(x, bits)  # a hit
            for got in (cold, after_others, warm):
                assert got == want and repr(got) == repr(want), (m, bits)


def test_embedding_homomorphism():
    import mpmath

    rng = random.Random(3)
    with mpmath.workprec(256):
        for _ in range(20):
            m = rng.choice([3, 5, 8, 12])
            a = CycloNum(m, [rat(rng.randint(-3, 3)) for _ in range(euler_phi(m))])
            b = CycloNum(m, [rat(rng.randint(-3, 3)) for _ in range(euler_phi(m))])
            lhs = cyclo_embed(a * b, 128)
            rhs = cyclo_embed(a, 128) * cyclo_embed(b, 128)
            assert abs(lhs - rhs) < mpmath.mpf(2) ** -120


def test_text_forms():
    z5 = zeta(5)
    x = z5 + rat(1, 2)
    s = scalar_str(x)
    assert s.startswith("ord=5;[")
    assert parse_scalar(s) == x
    assert parse_scalar("-7/3") == rat(-7, 3)
    assert scalar_str(rat(0)) == "0/1"
    with pytest.raises(ValueError):
        parse_scalar("ord=5;1,2")


def test_zero_divisor_message():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        zeta(5) / rat(0)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        zeta(5) / 0
    with pytest.raises(ZeroDivisionError):
        1 / (zeta(5) - zeta(5))


def test_immutability():
    z = zeta(5)
    with pytest.raises(AttributeError):
        z.order = 7


def test_cyclo_ring_matches_cyclonum():
    # the integer ring of the operator sweeps against the scalar field
    from ltwist.exactnum import cyclo_ring

    rng = random.Random(5)
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20):
        ring = cyclo_ring(m)
        for _ in range(40):
            a, b = (
                CycloNum(m, [rat(rng.randint(-5, 5), rng.randint(1, 4))
                             for _ in range(euler_phi(m))])
                for _ in range(2)
            )
            (x, dx), (y, dy) = ring.from_scalar(a), ring.from_scalar(b)
            assert ring.to_scalar(x, rat(1, dx)) == a
            assert ring.to_scalar(ring.mul(x, y), rat(1, dx * dy)) == a * b
            s = ring.add(ring.smul(x, dy), ring.smul(y, dx))
            assert ring.to_scalar(s, rat(1, dx * dy)) == a + b
            d = ring.sub(ring.smul(x, dy), ring.smul(y, dx))
            assert ring.to_scalar(d, rat(1, dx * dy)) == a - b
            assert ring.to_scalar(ring.neg(x), rat(1, dx)) == -a
            assert ring.to_scalar(ring.conj(x), rat(1, dx)) == a.conjugate()
            assert ring.is_zero(ring.sub(x, x))
            assert ring.is_zero(x) == (a == 0)
        assert ring.to_scalar(ring.from_int(7), rat(1)) == 7
        assert ring.to_scalar(ring.one, rat(1)) == 1
    # zeta_3 written in Q(zeta_12)
    x, den = cyclo_ring(12).from_scalar(zeta(3))
    assert den == 1 and cyclo_ring(12).to_scalar(x, rat(1)) == zeta(3)


def test_scalar_parts_round_trip():
    from ltwist.exactnum import scalar_parts

    rng = random.Random(14)
    values = [0, 7, -3, rat(-5, 6), rat(-1, 12), zeta(3) + zeta(3) ** 2]  # the last is -1
    for m in range(3, 25):
        values.append(CycloNum(m, [rat(rng.randint(-6, 6), rng.randint(1, 9))
                                   for _ in range(euler_phi(m))]))
    for x in values:
        order, num, den = scalar_parts(x)
        assert den > 0 and math.gcd(den, *num) == 1
        assert all(type(c) is int for c in num + (den,))
        assert CycloNum(order, [rat(c, den) for c in num]) == x
    assert scalar_parts(zeta(3) + zeta(3) ** 2) == (1, (-1,), 1)


def test_cyclonum_product_runs_in_the_shared_ring(monkeypatch):
    from ltwist.exactnum import cyclo_ring

    ring = cyclo_ring(5)
    calls = []

    def counting(a, b, mul=ring.mul):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(ring, "mul", counting)
    a, b = 1 + zeta(5), zeta(5) ** 2 - 3
    assert a * b == zeta(5) ** 3 + zeta(5) ** 2 - 3 * zeta(5) - 3
    assert (a.num, b.num) in calls


def test_fock_columns_use_the_scalar_ring():
    from ltwist import exactnum, fock
    from ltwist.characters import PeriodicFn

    assert fock.cyclo_ring is exactnum.cyclo_ring
    op = fock.build_L(PeriodicFn(5, [zeta(3), 1, 1, zeta(3), 0]), 0)
    assert op.order == 3 and op.column((2, 1))
    assert exactnum.cyclo_ring(3) in op._kernels


def _schoolbook_mod(a, b, f):
    """The product of two power-basis tuples, reduced mod the monic f by long
    division."""
    from ltwist.exactnum import _poly_divmod_int

    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    rem = _poly_divmod_int(prod, list(f))[1]
    return tuple(rem) + (0,) * (len(f) - 1 - len(rem))


_RING_CASES = [("cyclo", m) for m in (3, 4, 5, 8, 12, 24, 35)] + [
    ("quadratic", name) for name in ("Q", "Q(sqrt2)", "Q(sqrt5)", "Q(i)")]


@pytest.mark.parametrize("kind,key", _RING_CASES, ids=[str(k) for _, k in _RING_CASES])
def test_generated_mul_is_the_product_mod_f(kind, key):
    # one generator builds every ring: the cyclotomic rings Z[x]/(Phi_m)
    # (phi(35) = 24 takes the looped product) and the quadratic orders of
    # the cocycle systems, Z[x]/(f) with f = x, x^2 - 2, x^2 - x - 1, x^2 + 1
    from ltwist.cocycle import field_by_name
    from ltwist.exactnum import cyclo_ring

    ring = cyclo_ring(key) if kind == "cyclo" else field_by_name(key)
    n = len(ring.f) - 1
    assert ring.degree == n and ring.f[-1] == 1
    assert ring.zero == (0,) * n and ring.one == (1,) + (0,) * (n - 1)
    rng = random.Random(21)
    for _ in range(60):
        a, b = (tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(2))
        got = ring.mul(a, b)
        assert got == _schoolbook_mod(a, b, ring.f)
        assert all(type(c) is int for c in got)
        assert ring.add(a, b) == tuple(x + y for x, y in zip(a, b))
        assert ring.sub(a, b) == tuple(x - y for x, y in zip(a, b))
        assert ring.neg(a) == tuple(-x for x in a)
        assert ring.smul(a, 3) == tuple(3 * x for x in a)
    assert ring.from_int(-7) == (-7,) + (0,) * (n - 1)


def test_cyclo_ring_is_plain_ints_at_phi_one():
    from ltwist.exactnum import cyclo_ring

    for m in (1, 2):
        ring = cyclo_ring(m)
        assert ring.degree == 1 and (ring.zero, ring.one) == (0, 1)
        assert ring.mul(3, -4) == -12 and ring.add(3, -4) == -1
        assert ring.conj(5) == 5 and type(ring.from_int(5)) is int
        assert ring.is_zero(0) and not ring.is_zero(2)


REF_ORDERS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24, 28)


def _is_canonical(x):
    # one form per value: a rational is a Rat, and a CycloNum is irrational,
    # of order >= 3, in lowest terms
    if not isinstance(x, CycloNum):
        return type(x) is Rat
    assert x.order >= 3 and any(x.num[1:])
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num + (x.den,))
    return True


def test_integer_cyclonum_matches_fraction_reference():
    import fraction_reference as ref

    rng = random.Random(17)

    def sample(m):
        coeffs = [rat(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))
                  for _ in range(euler_phi(m))]
        return CycloNum(m, coeffs), ref.collapse(m, coeffs)

    for it in range(120):
        m, n = rng.choice(REF_ORDERS), rng.choice(REF_ORDERS)
        if rng.random() < 0.5:
            n = m  # same-order pairs take the fast paths
        (a, ra), (b, rb) = sample(m), sample(n)
        q = rat(rng.randint(-9, 9), rng.randint(1, 5))
        rq = ref.of(q)
        cases = [
            (a, ra), (a + b, ref.add(ra, rb)), (a - b, ref.add(ra, ref.neg(rb))),
            (a * b, ref.mul(ra, rb)), (-a, ref.neg(ra)),
            (a.conjugate(), ref.galois(ra, ra[0] - 1)),
            (a + q, ref.add(ra, rq)), (q + a, ref.add(ra, rq)),
            (q - a, ref.add(rq, ref.neg(ra))), (a * q, ref.mul(ra, rq)),
        ]
        if q:
            cases.append((a / q, ref.mul(ra, ref.of(1 / q))))
        k = it % 19 - 9  # an int operand, -9..9
        for s in (q, k):  # a rational on the left of a CycloNum
            rs = ref.of(s)
            cases += [(s + a, ref.add(rs, ra)), (s - a, ref.add(rs, ref.neg(ra))),
                      (s * a, ref.mul(rs, ra))]
            if a:
                quo = s / a
                assert _is_canonical(quo)
                assert ref.equal(ref.mul(ref.of(quo), ra), rs)
            assert (s == a) is ref.equal(rs, ra) and (s != a) is not ref.equal(rs, ra)
        # two rationals stay a Rat
        for s, t in ((q, k), (k, q), (q, q)):
            assert all(type(x) is Rat for x in (s + t, s - t, s * t)), (s, t)
            if t:
                assert type(s / t) is Rat and s / t * t == s
        power = ref.of(1)
        for e in range(4):
            cases.append((a**e, power))
            power = ref.mul(power, ra)
        cases += [(a.galois(t), ref.galois(ra, t))
                  for t in range(2, ra[0]) if math.gcd(t, ra[0]) == 1]
        for got, want in cases:
            assert _is_canonical(got) and ref.same(got, want), (a, b, q)
        if b:
            quo = a / b
            assert _is_canonical(quo) and ref.equal(ref.mul(ref.of(quo), rb), ra)
        if a:
            assert ref.equal(ref.mul(ref.of(a**-2), ref.mul(ra, ra)), ref.of(1))
        assert (a == b) == ref.equal(ra, rb)
        # the same value written in a larger field compares equal
        big = m * n // math.gcd(m, n)
        assert CycloNum(big, ref.lift(ra, big)) == a
        text = scalar_str(a)
        assert text == ref.text(ra)
        back = parse_scalar(text)
        if isinstance(back, CycloNum):
            assert (back.order, back.num, back.den) == (a.order, a.num, a.den)
        else:
            assert type(back) is Rat and back == a
    # bool is the zero test at every order
    for m in REF_ORDERS:
        x, rx = sample(m)
        assert bool(x) is not ref.equal(rx, ref.of(0))
        assert zeta(m) and not zeta(m) - zeta(m)
        assert not CycloNum(m, [rat(0)] * euler_phi(m))
        assert CycloNum(m, [rat(1, 3)] + [rat(0)] * (euler_phi(m) - 1))
    # sum with a Rat start: CycloNum once a term is, else Rat
    xs = [sample(m)[0] for m in (3, 4, 12, 5)] + [rat(-7, 3), 2]
    want = ref.of(0)
    for x in xs:
        want = ref.add(want, ref.of(x))
    total = sum(xs, rat(0))
    assert isinstance(total, CycloNum) and _is_canonical(total) and ref.same(total, want)
    total = sum([rat(1, 3), 2, rat(-5, 6)], rat(0))
    assert type(total) is Rat and total == rat(3, 2)


def test_canonical_zero_and_one():
    # zero and one are the Rats 0 and 1, however they are reached
    z = zeta(12) + rat(1, 3)
    for zero in (z - z, z * 0, CycloNum(1, [rat(0)]), CycloNum(5, [rat(0)] * 4), zeta(7) * 0):
        assert type(zero) is Rat and zero == 0
    for one in (z / z, zeta(7) ** 7, z * z.inverse(), CycloNum(8, [rat(1), 0, 0, 0]), zeta(1)):
        assert type(one) is Rat and one == 1
    # lowest terms after every operation, denominators positive
    x = CycloNum(5, [rat(2, 6), rat(-4, 6), rat(0), rat(8, 3)])
    assert (x.num, x.den) == ((1, -2, 0, 8), 3)
    assert ((x * 3).num, (x * 3).den) == ((1, -2, 0, 8), 1)
    assert ((x / rat(-2, 3)).num, (x / rat(-2, 3)).den) == ((-1, 2, 0, -8), 2)
    # non-rational terms whose sum is rational: 1 + z3 + z3^2 = 0
    assert zeta(3) + zeta(3) ** 2 + 1 == 0 and type(zeta(3) + zeta(3) ** 2) is Rat


def test_large_order_product_deep_in_the_stack():
    # lcm(7, 15, 16) = 1680 has phi = 384.  Above the straight-line bound the
    # product loops; a straight-line product that large fails to compile
    # with RecursionError when built deep in the stack.
    from ltwist.exactnum import cyclo_ring

    import fraction_reference as ref

    a = 1 + 2 * zeta(7) - zeta(7) ** 3
    b = zeta(15) ** 2 - 3 * zeta(15) ** 7
    c = 2 - zeta(16) + zeta(16) ** 5
    cyclo_ring.cache_clear()

    def deep(k):
        return deep(k - 1) if k else a * b * c

    got = deep(500)
    assert got.order == 1680 and _is_canonical(got)
    want = ref.mul(ref.mul(ref.of(a), ref.of(b)), ref.of(c))
    assert ref.same(got, want)
    assert got.conjugate() == a.conjugate() * b.conjugate() * c.conjugate()


PROPERTY_ORDERS = (1, 3, 4, 5, 8, 12, 24)


def _embedded(a):
    """The reference value a at zeta_m = exp(2 pi i / m), in floats."""
    import cmath

    m, coeffs = a
    return sum(float(c) * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(coeffs))


def test_results_take_the_one_form():
    # every sum, difference, product, quotient and power is a Rat exactly
    # when its value is rational, cancelling cases included, and every
    # CycloNum is canonical of order >= 3; conjugate() and complex() answer
    # for int, Rat and CycloNum alike
    import fraction_reference as ref
    from ltwist.exactnum import cyclo_embed

    rng = random.Random(22)

    def sample(m, sparse):
        coeffs = [rat(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                  if not sparse or rng.random() < 0.3 else rat(0)
                  for _ in range(euler_phi(m))]
        return CycloNum(m, coeffs), ref.collapse(m, coeffs)

    def norm(x):
        if not isinstance(x, CycloNum):
            return x
        return math.prod(x.galois(t) for t in range(1, x.order) if math.gcd(t, x.order) == 1)

    z3, z4, z8, z12, z24 = (zeta(m) for m in (3, 4, 8, 12, 24))
    cancelling = [
        (z3 + z3**2 + 1, 0), (z3 + z3**2, -1), (z4**2, -1), (z4**4, 1),
        ((z8 + z8**7) ** 2, 2), ((z12 + z12**11) ** 2, 3), (z24**12, -1),
        (z3 * z3.conjugate(), 1), (z4 / z4, 1), (z8 - z8, 0), (zeta(1), 1), (zeta(2), -1),
    ]
    for got, want in cancelling:
        assert type(got) is Rat and got == want, (got, want)
    for it in range(150):
        (a, ra), (b, rb) = (sample(rng.choice(PROPERTY_ORDERS), it % 3 == 0) for _ in range(2))
        k = rng.randint(-3, 3)
        cases = [
            (a + b, ref.add(ra, rb)), (a - b, ref.add(ra, ref.neg(rb))),
            (a * b, ref.mul(ra, rb)), (a - a, ref.of(0)), (a + k, ref.add(ra, ref.of(k))),
            (k * a, ref.mul(ref.of(k), ra)), (a.conjugate(), ref.galois(ra, ra[0] - 1)),
            (a * a.conjugate(), ref.mul(ra, ref.galois(ra, ra[0] - 1))),
        ]
        power = ref.of(1)
        for e in range(5):
            cases.append((a**e, power))
            power = ref.mul(power, ra)
        if a:
            cases += [(a * (1 / a), ref.of(1)), (a / a, ref.of(1))]
        # a canonical CycloNum has a nonzero non-constant numerator, so it is
        # irrational: _is_canonical is the one-form test, ref.same the value
        for got, want in cases:
            assert _is_canonical(got) and ref.same(got, want), (a, b)
        if a:
            for got, want in ((b / a, rb), (a**-1, ref.of(1))):  # got * a = want
                assert _is_canonical(got) and ref.equal(ref.mul(ref.of(got), ra), want), (a, b)
            assert type(norm(a)) is Rat and norm(a) != 0
        # Python's numeric protocol: conjugate() and complex()
        for x, rx in ((a, ra), (k, ref.of(k)), (rat(k, 7), ref.of(rat(k, 7)))):
            bar, c = x.conjugate(), complex(x)
            assert type(c) is complex and abs(c - _embedded(rx)) < 1e-12
            assert abs(complex(bar) - c.conjugate()) < 1e-12
            if isinstance(x, CycloNum):
                assert ref.same(bar, ref.galois(rx, rx[0] - 1))
                assert c == complex(cyclo_embed(x, 64))
            else:
                assert bar == x
                assert c == complex(int(rat(x).numerator) / int(rat(x).denominator))
