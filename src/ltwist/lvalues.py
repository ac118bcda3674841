"""Exact special values of Dirichlet-type L series via Bernoulli polynomials,
and the explicit class number formula for imaginary quadratic fields."""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import NamedTuple

from ltwist.characters import PeriodicFn, kronecker_symbol
from ltwist.exactnum import Scalar, factorize, horner, linear_form, rat

MAX_BERNOULLI_DEGREE = 64


class BernPoly(NamedTuple):
    """Bernoulli polynomial with exact coefficients, ascending in x."""

    degree: int
    coeffs: tuple

    def __call__(self, x):
        return horner(self.coeffs, x)

    def derivative(self) -> "BernPoly":
        if self.degree == 0:
            return BernPoly(0, (rat(0),))
        d = tuple(i * c for i, c in enumerate(self.coeffs))[1:]
        return BernPoly(self.degree - 1, d)


def bernoulli_poly(n: int) -> BernPoly:
    """The n-th Bernoulli polynomial.

    Built from the defining recursion B_n' = n B_{n-1} with the constant
    fixed by the vanishing of the degree-n polynomial's average over [0, 1]
    (for n >= 1).  B_0 = 1, B_1 = x - 1/2, B_2 = x^2 - x + 1/6.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > MAX_BERNOULLI_DEGREE:
        raise ValueError(f"degree capped at {MAX_BERNOULLI_DEGREE}")
    return _bernoulli_cached(n)


@lru_cache(maxsize=None)
def _bernoulli_cached(n: int) -> BernPoly:
    if n == 0:
        return BernPoly(0, (rat(1),))
    prev = _bernoulli_cached(n - 1)
    # integrate n * B_{n-1}
    body = [rat(0)] + [rat(n) * c / (i + 1) for i, c in enumerate(prev.coeffs)]
    # constant term from sum-normalization: integral over [0,1] vanishes
    const = -sum((c / (i + 1) for i, c in enumerate(body)), rat(0))
    body[0] = const
    return BernPoly(n, tuple(body))


def bernoulli_number(n: int):
    return bernoulli_poly(n)(rat(0))


def _l_domain_ok(chi: PeriodicFn) -> bool:
    return chi.mean_zero or chi.is_dirichlet_character or chi.is_offzero_indicator


def l_special(n: int, chi: PeriodicFn) -> Scalar:
    """Exact L(1-n, chi) = -sum_{a=1..N} chi(a) N^{n-1} B_n(a/N) / n.

    Accepts mean-zero periodic functions, Dirichlet characters mod N, and
    the indicator of nonzero residues.  For n > 2 with a non-character
    input the value is still computed but flagged with a warning, since the
    engine's validity argument only covers characters there.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not _l_domain_ok(chi):
        raise ValueError(
            "l_special needs a mean-zero function, a Dirichlet character, "
            "or the nonzero-residue indicator"
        )
    if n > 2 and not chi.is_dirichlet_character:
        warnings.warn(
            "L(1-n, chi) for n > 2 on a non-character input is computed "
            "formally; the engine's validity argument does not cover it",
            stacklevel=2,
        )
    return linear_form(chi.table, *_special_weights(n, chi.period))


def l_zero(chi: PeriodicFn) -> Scalar:
    """L(0, chi) from its explicit closed form
    sum_k -(k/N) chi(k) + (1/2) sum_k chi(k); equals l_special(1, chi)."""
    if not _l_domain_ok(chi):
        raise ValueError("closed form needs a mean-zero function or character")
    return linear_form(chi.table, *_zero_weights(chi.period))


def l_minus_one(chi: PeriodicFn) -> Scalar:
    """L(-1, chi) from its explicit closed form
    sum_k -(k^2/2N) chi(k) + (1/2) sum_k k chi(k) - (N/12) sum_k chi(k)."""
    if not _l_domain_ok(chi):
        raise ValueError("closed form needs a mean-zero function or character")
    return l_minus_one_form(chi)


def l_minus_one_form(f: PeriodicFn) -> Scalar:
    """The closed form behind `l_minus_one`, for any periodic f.

    It is linear in f.  It equals L(-1, f) only on the domain that
    `l_minus_one` admits; elsewhere it is just the finite sum, which is what
    the central term of the twisted bracket needs.
    """
    return linear_form(f.table, *_minus_one_weights(f.period))


# The three closed forms are linear forms sum_{k=1..N} f(k) w_k.  Their
# rational weights are built whole per (n, N), as integers over one
# denominator, so the sums run on integer numerators.


@lru_cache(maxsize=None)
def _special_weights(n: int, N: int) -> tuple[tuple[int, ...], int]:
    """w_a = -N^{n-1} B_n(a/N) / n = -sum_j c_j N^{n-j} a^j / (D n N), with
    B_n's coefficients b_j = c_j / D over one denominator, in lowest terms."""
    coeffs = bernoulli_poly(n).coeffs
    D = math.lcm(*(b.denominator for b in coeffs))
    scaled = [b.numerator * (D // b.denominator) * N ** (n - j)
              for j, b in enumerate(coeffs)]
    nums = [-horner(scaled, a) for a in range(1, N + 1)]
    g = math.gcd(D * n * N, *nums)
    return tuple(x // g for x in nums), D * n * N // g


@lru_cache(maxsize=None)
def _zero_weights(N: int) -> tuple[tuple[int, ...], int]:
    """w_k = 1/2 - k/N = (N - 2k) / 2N."""
    return tuple(N - 2 * k for k in range(1, N + 1)), 2 * N


@lru_cache(maxsize=None)
def _minus_one_weights(N: int) -> tuple[tuple[int, ...], int]:
    """w_k = -k^2/(2N) + k/2 - N/12 = (6Nk - 6k^2 - N^2) / 12N."""
    return tuple(6 * N * k - 6 * k * k - N * N for k in range(1, N + 1)), 12 * N


def class_number_imag_quadratic(q: int) -> int:
    """h(Q(sqrt(-q))) = -(1/q) sum_{k=1}^{q-1} k (k/q), for prime q = 3 mod 4, q > 3.

    The result is checked to be a positive integer before returning.
    """
    if not (factorize(q) == [(q, 1)] and q % 4 == 3 and q > 3):
        raise ValueError("out of scope modulus")
    s = sum(k * kronecker_symbol(k, q) for k in range(1, q))
    h = rat(-s, q)
    if h.denominator != 1 or h <= 0:
        raise ArithmeticError(f"class number sum gave a non positive integer: {h}")
    return int(h)
