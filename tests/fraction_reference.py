"""Reference cyclotomic arithmetic on Fraction coefficient lists.

An element of Q(zeta_m) is (m, coeffs) with coeffs on the power basis mod
Phi_m, reduced by polynomial long division, and multiplied with plain
coefficient loops.  It shares nothing with `exactnum` but the cyclotomic
polynomials, so tests compare the integer `CycloNum` against it.
"""

from fractions import Fraction
from math import gcd

from ltwist.exactnum import CycloNum, Rat, cyclotomic_poly


def reduce_mod(vec, m):
    """Coefficients of sum vec[t] x^t mod Phi_m, by long division."""
    poly = cyclotomic_poly(m)
    phi = len(poly) - 1
    vec = [Fraction(c) for c in vec]
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            for k, pc in enumerate(poly):
                vec[i - phi + k] -= c * pc
    return (vec + [Fraction(0)] * phi)[:phi]


def collapse(m, coeffs):
    """Order 1 when the value is rational, as exactnum makes it a Rat."""
    coeffs = list(coeffs)
    if m > 1 and not any(coeffs[1:]):
        return 1, coeffs[:1]
    return m, coeffs


def of(x):
    """Reference form of a CycloNum or a rational."""
    if isinstance(x, CycloNum):
        return x.order, [Fraction(c, x.den) for c in x.num]
    return 1, [Fraction(x)]


def lift(a, big):
    m, coeffs = a
    step = big // m
    vec = [Fraction(0)] * big
    for i, c in enumerate(coeffs):
        vec[i * step] += c
    return reduce_mod(vec, big)


def common(a, b):
    big = a[0] * b[0] // gcd(a[0], b[0])
    return big, lift(a, big), lift(b, big)


def add(a, b):
    m, x, y = common(a, b)
    return collapse(m, [s + t for s, t in zip(x, y)])


def neg(a):
    return a[0], [-c for c in a[1]]


def mul(a, b):
    m, x, y = common(a, b)
    prod = [Fraction(0)] * (2 * len(x) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            prod[i + j] += s * t
    return collapse(m, reduce_mod(prod, m))


def galois(a, t):
    m, coeffs = a
    vec = [Fraction(0)] * m
    for i, c in enumerate(coeffs):
        vec[i * t % m] += c
    return collapse(m, reduce_mod(vec, m))


def equal(a, b):
    _, x, y = common(a, b)
    return x == y


def text(a):
    """The `scalar_str` form: "p/q", or "ord=m;[p/q,...]"."""
    m, coeffs = collapse(*a)
    parts = [f"{c.numerator}/{c.denominator}" for c in coeffs]
    return parts[0] if m == 1 else f"ord={m};[{','.join(parts)}]"


def same(x, a):
    """x is the reference value a in its one form: a Rat when a is rational,
    else a CycloNum of the same order and coefficients."""
    m, coeffs = collapse(*a)
    if m == 1:
        return type(x) is Rat and x == coeffs[0]
    return isinstance(x, CycloNum) and x.order == m and list(of(x)[1]) == coeffs


def linear_sum(values, weights):
    """sum_k weights[k] values[k], term by term, as (order, coeffs)."""
    total = (1, [Fraction(0)])
    for v, w in zip(values, weights):
        total = add(total, mul(of(v), (1, [Fraction(w)])))
    return total
