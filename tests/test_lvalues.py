import warnings

import pytest

from ltwist.characters import (
    PeriodicFn,
    dirichlet_characters,
    folded_power_family,
    kronecker_symbol,
)
from ltwist.exactnum import rat
from ltwist.lvalues import (
    bernoulli_number,
    bernoulli_poly,
    class_number_imag_quadratic,
    l_minus_one,
    l_special,
    l_zero,
)


def quad_char(q):
    return PeriodicFn(q, [rat(kronecker_symbol(k, q)) for k in range(1, q + 1)])


# independent oracle: Bernoulli numbers by the defining recurrence, then the
# binomial expansion for the polynomials
def _bern_numbers(n):
    from math import comb

    B = [rat(1)]
    for m in range(1, n + 1):
        s = rat(0)
        for j in range(m):
            s += rat(comb(m + 1, j)) * B[j]
        B.append(-s / (m + 1))
    return B


def _bern_poly_oracle(n):
    from math import comb

    B = _bern_numbers(n)
    coeffs = [rat(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = rat(comb(n, k)) * B[k]
    return tuple(coeffs)


def test_bernoulli_stated_values():
    assert bernoulli_poly(0).coeffs == (rat(1),)
    assert bernoulli_poly(1).coeffs == (rat(-1, 2), rat(1))
    assert bernoulli_poly(2).coeffs == (rat(1, 6), rat(-1), rat(1))


def test_bernoulli_against_binomial_oracle():
    for n in range(0, 16):
        assert bernoulli_poly(n).coeffs == _bern_poly_oracle(n), n


def test_bernoulli_invariants():
    for n in range(1, 25):
        Bn = bernoulli_poly(n)
        d = Bn.derivative()
        prev = bernoulli_poly(n - 1)
        assert all(d.coeffs[i] == rat(n) * prev.coeffs[i] for i in range(n))
        assert Bn(rat(0)) == bernoulli_number(n)
        total = sum((c / (i + 1) for i, c in enumerate(Bn.coeffs)), rat(0))
        assert total == 0
    assert bernoulli_number(12) == rat(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli_poly(65)
    with pytest.raises(ValueError):
        bernoulli_poly(-1)


def test_l_values_stated_examples():
    quad7 = quad_char(7)
    assert l_special(1, quad7) == 1
    assert l_zero(quad7) == 1

    quad5 = quad_char(5)
    assert l_special(2, quad5) == rat(-2, 5)
    assert l_minus_one(quad5) == rat(-2, 5)

    for N in (5, 7, 11):
        triv = dirichlet_characters(N)[0]
        assert l_special(2, triv) == rat(N - 1, 12)

    chi3 = PeriodicFn(3, [rat(1), rat(-1), rat(0)])
    assert l_zero(chi3) == rat(1, 3)


def test_agreement_all_characters():
    for N in range(1, 31):
        for chi in dirichlet_characters(N):
            assert l_zero(chi) == l_special(1, chi)
            assert l_minus_one(chi) == l_special(2, chi)
    for N in range(3, 16, 2):
        for f in folded_power_family(N).elements:
            assert l_zero(f) == l_special(1, f)
            assert l_minus_one(f) == l_special(2, f)


def test_parity_vanishing():
    seen = 0
    for N in range(3, 31):
        for chi in dirichlet_characters(N):
            if not chi.even:
                assert not l_minus_one(chi)
                seen += 1
    assert seen > 50


def test_offzero_indicator_value():
    for N in (5, 9, 15):
        G = folded_power_family(N)
        ident = G.elements[G.identity]
        assert ident.is_offzero_indicator
        assert l_minus_one(ident) == rat(N - 1, 12)


def test_l_special_domain():
    # neither mean-zero nor a character nor the indicator: rejected
    junk = PeriodicFn(4, [rat(1), rat(2), rat(3), rat(4)])
    with pytest.raises(ValueError):
        l_special(1, junk)
    with pytest.raises(ValueError):
        l_zero(junk)
    # n > 2 on a mean-zero non-character computes but warns
    mz = PeriodicFn(4, [rat(1), rat(1), rat(-1), rat(-1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        l_special(3, mz)
    assert len(caught) == 1
    # n > 2 on a character is silent
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        l_special(3, quad_char(5))


def _legendre_by_residues(k, q):
    """Independent Legendre symbol: membership in the set of squares."""
    squares = {pow(x, 2, q) for x in range(1, q)}
    k %= q
    if k == 0:
        return 0
    return 1 if k in squares else -1


def test_class_numbers():
    assert class_number_imag_quadratic(7) == 1
    assert class_number_imag_quadratic(11) == 1
    assert class_number_imag_quadratic(23) == 3
    # cross-check the sum with the independent residue-set symbol
    for q in (7, 11, 19, 23, 31, 43, 47):
        s1 = sum(k * kronecker_symbol(k, q) for k in range(1, q))
        s2 = sum(k * _legendre_by_residues(k, q) for k in range(1, q))
        assert s1 == s2
        h = class_number_imag_quadratic(q)
        assert h == -s1 // q and h > 0


def test_class_number_domain():
    for bad in (5, 13, 3, 9, 21, 2, 15, 27, 35, 1, 0, -7):
        with pytest.raises(ValueError, match="out of scope modulus"):
            class_number_imag_quadratic(bad)


def _per_order_sum(values, weights):
    """sum_k weights[k] values[k] by `+`, one running sum per cyclotomic
    order in order of first appearance, then the sums added from 0: the
    accumulation whose text form the value tables keep."""
    from ltwist.exactnum import scalar_parts

    sums: dict = {}
    for v, w in zip(values, weights):
        if v:
            m = scalar_parts(v)[0]
            sums[m] = sums.get(m, rat(0)) + w * v
    return sum(sums.values(), rat(0))


def test_linear_forms_match_per_term_fraction_sums():
    # every linear form read off a function's value table (the L-value
    # closed forms, the period sum, the averaged limits) against its
    # term-by-term sum in the Fraction reference, with the Bernoulli
    # polynomials from the binomial oracle, and in the text form of the
    # per-order accumulation
    from fractions import Fraction

    import fraction_reference as ref
    from ltwist.exactnum import CycloNum, scalar_str, zeta
    from ltwist.summation import limit_exact_periodic

    def bern(n, x):
        return sum((c * x**i for i, c in enumerate(_bern_poly_oracle(n))), Fraction(0))

    fns = [chi for N in range(1, 21) for chi in dirichlet_characters(N)]
    fns += [f for N in range(3, 16, 2) for f in folded_power_family(N).elements]
    z3, z4, z12 = zeta(3), zeta(4), zeta(12)
    fns += [
        PeriodicFn(4, [z4, z12, -z4, -z12]),  # orders 4 and 12 in one table
        PeriodicFn(3, [z3, z3 * z3, rat(1)]),  # the order-3 block of its sum is -1
        PeriodicFn(7, [z4, z12, z3, z3 * z3, rat(1, 3), -z4, rat(2, 3) - z12]),
    ]
    for f in fns:
        N, vals = f.period, f.values()
        ks = range(1, N + 1)
        cases = [
            (l_zero(f), [Fraction(1, 2) - Fraction(k, N) for k in ks]),
            (l_minus_one(f),
             [-Fraction(k * k, 2 * N) + Fraction(k, 2) - Fraction(N, 12) for k in ks]),
            (f.period_sum(), [Fraction(1)] * N),
        ]
        if f.mean_zero:
            cases += [
                (limit_exact_periodic(f, "const"), [-Fraction(k, N) for k in ks]),
                (limit_exact_periodic(f, "linear"),
                 [Fraction(k, 2) - Fraction(k * k, 2 * N) for k in ks]),
            ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n > 2 on the folded family
            for n in range(1, 5):
                cases.append((l_special(n, f),
                              [-Fraction(N) ** (n - 1) * bern(n, Fraction(a, N)) / n for a in ks]))
        for got, weights in cases:
            want = ref.linear_sum(vals, weights)
            # a Rat exactly when the value is rational: the text forms differ
            assert isinstance(got, CycloNum) == (ref.collapse(*want)[0] > 1), (N, vals)
            assert ref.equal(ref.of(got), want), (N, vals)
            assert scalar_str(got) == scalar_str(_per_order_sum(vals, weights)), (N, vals)
