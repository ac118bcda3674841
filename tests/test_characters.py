import math

import pytest

from ltwist.characters import (
    PeriodicFn,
    TwistGroup,
    dirichlet_characters,
    even_twist_group,
    folded_power_family,
    kronecker_symbol,
    pf_mul,
    quadratic_field_group,
)
from ltwist.exactnum import euler_phi, rat, zeta


def quad_char(q):
    return PeriodicFn(q, [rat(kronecker_symbol(k, q)) for k in range(1, q + 1)])


def test_character_counts_and_values():
    chars = dirichlet_characters(5)
    assert len(chars) == 4
    real_nontrivial = [
        c for c in chars
        if c.even and not all(v == 1 or not v for v in c.values())
    ]
    assert len(real_nontrivial) == 1
    assert real_nontrivial[0].values() == (rat(1), rat(-1), rat(-1), rat(1), rat(0))

    assert dirichlet_characters(1)[0].values() == (rat(1),)

    chars7 = dirichlet_characters(7)
    assert len(chars7) == 6
    assert sum(1 for c in chars7 if c.even) == 3


def test_characters_vanish_off_units():
    for N in (8, 9, 12, 15):
        for chi in dirichlet_characters(N):
            assert chi.is_dirichlet_character
            for a in range(1, N + 1):
                assert (not chi(a)) == (math.gcd(a, N) != 1)


def _all_pairs_character(f):
    # the definition itself: unit support, f(1) = 1, f(ab) = f(a) f(b)
    N = f.period
    units = [a for a in range(N) if math.gcd(a, N) == 1]
    return (f(1) == 1
            and all(bool(f(a)) == (math.gcd(a, N) == 1) for a in range(N))
            and all(f(a * b) == f(a) * f(b) for a in units for b in units))


def test_generator_wise_character_flag_is_the_all_pairs_definition():
    from itertools import product

    from ltwist.characters import _unit_group_generators

    z3 = zeta(3)
    for N in range(1, 31):
        chars = dirichlet_characters(N)
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        fns = chars + [c.conj() for c in chars[-2:]]
        fns += [pf_mul(a, b) for a, b in zip(chars[-2:], chars[-3:])]
        for f in fns:
            assert f.is_dirichlet_character and _all_pairs_character(f), N
        mutants = []
        for c in chars:
            for a in units[1:3]:  # one unit value times another root of unity
                vals = list(c.values())
                vals[a - 1] = vals[a - 1] * z3
                mutants.append(PeriodicFn(N, vals))
        gens = _unit_group_generators(N)
        for i in range(len(gens)):
            # times zeta_3 off the subgroup H the other generators span: the
            # check must reach every generator to see that this is no character
            others = gens[:i] + gens[i + 1:]
            H = {math.prod(pow(g, e, N) for (g, _), e in zip(others, es)) % N
                 for es in product(*(range(d) for _, d in others))}
            mutants.append(PeriodicFn(N, [
                v if k % N in H or not v else v * z3
                for k, v in enumerate(chars[-1].values(), start=1)]))
        if N > 2:  # unit-supported, 1 at 1, not multiplicative: f(u) = u
            mutants.append(PeriodicFn(N, [
                rat(k) if k == 1 or math.gcd(k, N) == 1 else rat(0)
                for k in range(1, N + 1)]))
        for f in mutants:
            assert f(1) == 1
            assert not _all_pairs_character(f), N
            assert not f.is_dirichlet_character, N


def test_orthogonality():
    for N in (5, 7, 9, 12):
        chars = dirichlet_characters(N)
        for ai, chi in enumerate(chars):
            for bi, psi in enumerate(chars):
                bar = psi.conj()
                total = rat(0)
                for j in range(1, N + 1):
                    total = total + chi(j) * bar(j)
                want = rat(euler_phi(N)) if ai == bi else rat(0)
                assert total == want


def test_pf_mul():
    quad = quad_char(5)
    sq = pf_mul(quad, quad)
    assert sq.values() == (rat(1), rat(1), rat(1), rat(1), rat(0))
    G5 = even_twist_group(5)
    e = G5.elements[G5.identity]
    assert pf_mul(quad, e) == quad
    # folded family: f_1 * f_1 = f_2 at N = 9
    G9 = folded_power_family(9)
    f = G9.elements
    assert pf_mul(f[0], f[0]) == f[1]


def test_pf_mul_lifts_periods():
    a = PeriodicFn(2, [rat(1), rat(-1)])
    b = PeriodicFn(3, [rat(1), rat(1), rat(-2)])
    prod = pf_mul(a, b)
    assert prod.period == 6
    for j in range(1, 13):
        assert prod(j) == a(j) * b(j)


def test_even_twist_groups():
    G5 = even_twist_group(5)
    assert len(G5) == 2 and G5.is_cyclic
    G7 = even_twist_group(7)
    assert len(G7) == 3 and G7.is_cyclic
    G9 = even_twist_group(9)
    assert len(G9) == 4
    for idx, f in enumerate(G9.elements):
        assert f.even
        if idx != G9.identity:
            assert f.mean_zero
    with pytest.raises(ValueError, match="unsupported period"):
        even_twist_group(4)
    with pytest.raises(ValueError, match="unsupported period"):
        even_twist_group(1)


def test_twist_group_invariants():
    for N in (5, 7, 9, 11, 15):
        G = even_twist_group(N)
        for idx, chi in enumerate(G.elements):
            for j in range(1, N):
                assert chi(j) == chi(N - j)
            if idx != G.identity:
                total = rat(0)
                for j in range(1, N + 1):
                    total = total + chi(j)
                assert not total
        e = G.elements[G.identity]
        assert not e(0)
        assert all(not v or v == 1 for v in e.values())


def test_user_supplied_table():
    # the order-2 quadratic group given explicitly round-trips through the
    # TwistGroup verifier
    quad = quad_char(5)
    triv = PeriodicFn(5, [rat(1), rat(1), rat(1), rat(1), rat(0)])
    G = TwistGroup(5, [triv, quad])
    assert len(G) == 2 and G.identity == 0
    # an invalid table (odd element) is rejected
    odd = PeriodicFn(5, [rat(1), rat(-1), rat(1), rat(-1), rat(0)])
    with pytest.raises(ValueError):
        TwistGroup(5, [triv, odd])
    # a table without mean-zero non-identity is rejected
    ones = PeriodicFn(5, [rat(1), rat(1), rat(1), rat(1), rat(0)])
    bad = PeriodicFn(5, [rat(2), rat(2), rat(2), rat(2), rat(0)])
    with pytest.raises(ValueError):
        TwistGroup(5, [ones, bad])


def test_twist_group_elements_keep_the_group_period():
    # an element of period 5 is not lifted to a group of period 10
    quad = quad_char(5)
    triv = PeriodicFn(10, [rat(0) if k % 5 == 0 else rat(1) for k in range(1, 11)])
    with pytest.raises(ValueError, match="period"):
        TwistGroup(10, [triv, quad])


def test_folded_power_family_structure():
    for N in (5, 7, 9, 15):
        G = folded_power_family(N)
        k = (N - 1) // 2
        assert len(G) == k
        theta = zeta(k)
        f1 = G.elements[0]
        for u in range(1, k + 1):
            assert f1(u) == (theta ** (u % k) if k > 1 else rat(1))
            assert f1(N - u) == f1(u)
        assert not f1(0)


def test_quadratic_field_groups():
    G5 = quadratic_field_group(5)
    chi = G5.elements[1]
    assert chi.period == 5
    assert chi.values() == (rat(1), rat(-1), rat(-1), rat(1), rat(0))
    G2 = quadratic_field_group(2)
    assert G2.period == 8
    assert G2.elements[1].even
    with pytest.raises(ValueError, match="field not totally real"):
        quadratic_field_group(-7)
    for m in range(2, 31):
        if all(m % (k * k) for k in range(2, 6)):
            assert len(quadratic_field_group(m)) == 2, m
        else:
            with pytest.raises(ValueError, match="squarefree"):
                quadratic_field_group(m)


def test_kronecker_symbol():
    for p in (3, 5, 7, 11, 13, 23):
        for a in range(1, 2 * p):
            euler = pow(a, (p - 1) // 2, p)  # Euler's criterion
            assert kronecker_symbol(a, p) == {0: 0, 1: 1, p - 1: -1}[euler]
    # multiplicativity in the top argument
    for n in (15, 21, 35):
        for a in range(1, 20):
            for b in range(1, 20):
                assert (
                    kronecker_symbol(a * b, n)
                    == kronecker_symbol(a, n) * kronecker_symbol(b, n)
                )
    # (2/n) cases
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(2, 3) == -1
    assert kronecker_symbol(-1, 0) == 1
    assert kronecker_symbol(5, 0) == 0


def test_table_file_round_trip():
    for N in (5, 7, 9):
        for chi in dirichlet_characters(N):
            text = chi.to_text()
            back = PeriodicFn.from_text(text)
            assert back == chi
            assert back.to_text() == text
    with pytest.raises(ValueError):
        PeriodicFn.from_text("1 1/1\n2 0/1\n")
    with pytest.raises(ValueError):
        PeriodicFn.from_text("period 3\n1 1/1\n")


def test_character_tables_match_per_value_powers():
    # the value tables read from the per-order power tables equal the
    # per-value construction prod_i root_i ** s_i, text form for text form
    from itertools import product

    from ltwist.characters import _unit_group_generators
    from ltwist.exactnum import scalar_str

    for N in range(1, 31):
        gens = _unit_group_generators(N)
        orders = [d for _, d in gens]
        dlog = {}
        for t in product(*(range(d) for d in orders)):
            u = 1
            for (g, _), e in zip(gens, t):
                u = u * pow(g, e, N) % N
            dlog[u % N] = t
        chars = dirichlet_characters(N)
        assert len(chars) == euler_phi(N)
        for chi, exps in zip(chars, product(*(range(d) for d in orders))):
            for k in range(1, N + 1):
                want = rat(0)
                if math.gcd(k, N) == 1:
                    want = rat(1)
                    for e, t, d in zip(exps, dlog[k % N], orders):
                        if e * t % d:
                            want = want * zeta(d) ** (e * t % d)
                assert scalar_str(chi(k)) == scalar_str(want), (N, exps, k)


def test_dirichlet_characters_raise_when_a_generator_is_missing(monkeypatch):
    # A check that `python -O` cannot strip: a generator list that misses
    # units raises instead of building too few characters.
    from ltwist import characters

    real = characters._unit_group_generators
    monkeypatch.setattr(characters, "_unit_group_generators", lambda N: real(N)[:-1])
    with pytest.raises(ArithmeticError):
        characters.dirichlet_characters(8)


def test_shared_twist_groups_cannot_be_corrupted():
    # even_twist_group and folded_power_family are built once per process,
    # so every caller holds the same group: it must refuse to change.
    G = even_twist_group(7)
    assert G is even_twist_group(7)
    assert folded_power_family(9) is folded_power_family(9) is even_twist_group(9)
    with pytest.raises(AttributeError):
        G.identity = 1
    with pytest.raises(AttributeError):
        G.elements = G.elements[:1]
    with pytest.raises(TypeError):
        G.elements[0] = G.elements[1]
    with pytest.raises(TypeError):
        G._table[0] = G._table[1]
    with pytest.raises(TypeError):
        G._table[0][0] = 1
    assert G.fingerprint() == (7,) + tuple(e.fingerprint() for e in G.elements)


def test_character_lists_are_fresh_copies_of_one_table():
    first = dirichlet_characters(12)
    second = dirichlet_characters(12)
    assert first == second and first is not second
    first.clear()
    assert dirichlet_characters(12) == second and len(second) == euler_phi(12)


def _holds_only_tuples(value) -> bool:
    if isinstance(value, tuple):
        return all(_holds_only_tuples(v) for v in value)
    return not isinstance(value, (list, dict, set, bytearray))


def test_value_table_and_embedding_are_built_once_on_first_read():
    # Construction computes neither derived table (the Fock certificates
    # build many products they never sum); the first read builds each, a
    # second read returns the same object, and neither can be changed.
    z4, z12 = zeta(4), zeta(12)
    fns = [PeriodicFn(4, [z4, z12, rat(1, 3), 0]), pf_mul(quad_char(5), quad_char(3))]
    fns += dirichlet_characters(7)
    for f in fns:
        f = PeriodicFn(f.period, f.values())  # a fresh object: no earlier reader
        assert "table" not in f._flags and "embedding" not in f._flags
        table, embedding = f.table, f.embedding
        assert f.table is table and f.embedding is embedding
        assert isinstance(table, tuple) and _holds_only_tuples(table)
        assert isinstance(embedding, tuple) and _holds_only_tuples(embedding)
        assert embedding == tuple(complex(f(r)) for r in range(f.period))
        # the blocks cover each nonzero value once, in its own order
        assert sorted(k for _, indices, _, _ in table for k in indices) == [
            k for k, v in enumerate(f.values()) if v]
        for order, indices, columns, den in table:
            assert len(columns) == euler_phi(order)
            assert all(len(column) == len(indices) for column in columns)


def test_periodic_fn_keeps_exact_values_as_they_are():
    # a Rat or a CycloNum is taken in as the same object; an int becomes a Rat
    vals = [rat(1, 3), rat(-2), zeta(3), rat(0), rat(5, 7)]
    f = PeriodicFn(5, vals)
    assert all(got is v for got, v in zip(f.values(), vals))
    g = PeriodicFn(2, [1, -1])
    assert [type(v) for v in g.values()] == [type(rat(1))] * 2 and g.values() == (1, -1)
