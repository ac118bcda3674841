"""Truncated series with exact coefficients and exponents on a lattice
(1/D) * Z, plus the product/theta identity checks built on them.

Everything here is exact except modular_s_check, which evaluates the
character series numerically at sample points on the imaginary axis and
tests span-invariance under tau -> -1/tau.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ltwist.exactnum import CycloNum, Scalar, check_precision, rat, scalar_str, zeta

class PuiseuxSeries:
    """Truncated series sum c_e q^e with exponents e in (1/denom) * Z.

    `order` is the truncation bound: coefficients are exact for every
    exponent strictly below it.  Arithmetic tracks the tightest valid bound.
    """

    __slots__ = ("denom", "coeffs", "order")

    def __init__(self, denom: int, coeffs: dict, order):
        if denom < 1:
            raise ValueError("lattice denominator must be positive")
        self.denom = denom
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.order = rat(order)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def monomial(exponent, coeff, order) -> "PuiseuxSeries":
        e = rat(exponent)
        return PuiseuxSeries(e.denominator, {e.numerator: coeff}, order)

    # -- structure ------------------------------------------------------

    @property
    def offset(self):
        """Smallest exponent with a nonzero coefficient (valuation)."""
        if not self.coeffs:
            return None
        return rat(min(self.coeffs), self.denom)

    def rescale(self, denom: int) -> "PuiseuxSeries":
        if denom == self.denom:
            return self
        if denom % self.denom:
            raise ValueError("can only refine the lattice")
        f = denom // self.denom
        return PuiseuxSeries(denom, {k * f: v for k, v in self.coeffs.items()}, self.order)

    def _aligned(self, other: "PuiseuxSeries"):
        d = math.lcm(self.denom, other.denom)
        return self.rescale(d), other.rescale(d)

    def coefficient(self, exponent) -> Scalar:
        e = rat(exponent)
        if e >= self.order:
            raise ValueError(f"exponent {e} is at or beyond the truncation order")
        key = e * self.denom
        if key.denominator != 1:
            return rat(0)
        return self.coeffs.get(int(key), rat(0))

    def truncate(self, order) -> "PuiseuxSeries":
        order = rat(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        kept = {k: v for k, v in self.coeffs.items() if rat(k, self.denom) < order}
        return PuiseuxSeries(self.denom, kept, order)

    def terms(self) -> list[tuple]:
        return [(rat(k, self.denom), v) for k, v in sorted(self.coeffs.items())]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        a, b = self._aligned(other)
        order = min(a.order, b.order)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            out[k] = out[k] + v if k in out else v
        out = {k: v for k, v in out.items() if rat(k, a.denom) < order}
        return PuiseuxSeries(a.denom, out, order)

    def __neg__(self):
        return PuiseuxSeries(self.denom, {k: -v for k, v in self.coeffs.items()}, self.order)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        a, b = self._aligned(other)
        # order of the product: each factor's truncation error enters shifted
        # by the other's valuation
        va, vb = a.offset, b.offset
        if va is None and vb is None:
            return PuiseuxSeries(a.denom, {}, a.order + b.order)
        if va is None:
            return PuiseuxSeries(a.denom, {}, a.order + vb)
        if vb is None:
            return PuiseuxSeries(a.denom, {}, b.order + va)
        order = min(a.order + vb, b.order + va)
        out: dict = {}
        bound_key = order * a.denom
        for k1, v1 in a.coeffs.items():
            for k2, v2 in b.coeffs.items():
                k = k1 + k2
                if k >= bound_key:
                    continue
                t = v1 * v2
                out[k] = out[k] + t if k in out else t
        return PuiseuxSeries(a.denom, out, order)

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse of a series with nonzero leading term."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert the zero series")
        d = self.denom
        keys = sorted(self.coeffs)
        v = keys[0]
        lead = self.coeffs[v]
        rel = {k - v: self.coeffs[k] for k in keys}
        length = int(self.order * d) - v  # relative keys known for t < length
        if length < 1:
            raise ZeroDivisionError("series order too small to determine the inverse")
        inv_lead = rat(1) / lead
        g: dict = {0: inv_lead}
        nonzero = sorted(rel)[1:]
        # the inverse lives on the lattice the relative keys generate; a
        # monomial (no nonzero key, gcd 0) has no further terms
        step = math.gcd(*nonzero) or length
        for t in range(step, length, step):
            acc = None
            for k in nonzero:
                if k > t:
                    break
                gt = g.get(t - k)
                if gt is None:
                    continue
                term = rel[k] * gt
                acc = term if acc is None else acc + term
            if acc:
                g[t] = -inv_lead * acc
        out = {t - v: c for t, c in g.items()}
        # keys run from -v to length - v - 1, all exact: order (length - v)/d
        return PuiseuxSeries(d, out, rat(length - v, d))

    def __truediv__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return self.first_difference(other) is None

    __hash__ = None

    def first_difference(self, other: "PuiseuxSeries"):
        """Smallest exponent below both orders where coefficients differ."""
        a, b = self._aligned(other)
        bound = min(a.order, b.order) * a.denom
        keys = sorted(set(a.coeffs) | set(b.coeffs))
        for k in keys:
            if k >= bound:
                break
            if a.coeffs.get(k, 0) != b.coeffs.get(k, 0):
                return rat(k, a.denom)
        return None

    def __repr__(self):
        parts = [
            f"{scalar_str(v)}*q^({rat(k, self.denom)})"
            for k, v in sorted(self.coeffs.items())[:8]
        ]
        more = " + ..." if len(self.coeffs) > 8 else ""
        return f"PuiseuxSeries({' + '.join(parts)}{more}; order<{self.order})"

    # -- numerics ----------------------------------------------------------

    def evaluate(self, q, precision_bits: int = 128, terms=None):
        """Numeric value at real 0 < q < 1 via mpmath at the given precision,
        for rational coefficients; a caller that evaluates at many points
        passes `terms`, the series' `_mp_terms(precision_bits)`."""
        return _mp_sum(terms or self._mp_terms(precision_bits), self.denom, q, precision_bits)[1]

    def _mp_terms(self, precision_bits: int) -> list:
        """(key, coefficient) pairs ascending in the key, each coefficient an
        mpf at the working precision of `evaluate`."""
        import mpmath

        with mpmath.workprec(precision_bits + 16):
            return [(k, mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator))
                    for k, c in sorted((k, rat(v)) for k, v in self.coeffs.items())]


def _mp_sum(terms, denom: int, q, precision_bits: int, cut: int = 0) -> tuple:
    """(prefix, whole): the sum of c q^(k/denom) over the `_mp_terms` pairs
    (k, c), and a snapshot of the same pass after its first `cut` terms, bit
    for bit what `evaluate` gives on the series cut there."""
    import mpmath

    with mpmath.workprec(precision_bits + 16):
        qm = mpmath.mpf(q) if not hasattr(q, "_mpf_") else q
        w = mpmath.power(qm, mpmath.mpf(1) / denom)
        acc = prefix = mpmath.mpf(0)
        wpow, last = mpmath.mpf(1), 0
        power = lru_cache(maxsize=None)(lambda e: mpmath.power(w, e))  # once per step
        for i, (k, c) in enumerate(terms, 1):
            wpow = wpow * power(k - last)
            last = k
            acc += c * wpow
            if i == cut:
                prefix = acc
        return +prefix, +acc


# ---------------------------------------------------------------------------
# products over residue classes


def product_expand(modulus: int, residues, sign: int, order: int) -> PuiseuxSeries:
    """prod (1 - q^e)^sign over the positive integers e with e mod `modulus`
    in `residues`, truncated below `order`.

    Integer-exponent lattice; coefficients are exact integers.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    order = int(order)
    arr = [0] * max(order, 1)
    if order > 0:
        arr[0] = 1
    for e in range(1, order):
        if e % modulus not in residues:
            continue
        if sign == 1:
            for n in range(order - 1, e - 1, -1):
                if arr[n - e]:
                    arr[n] -= arr[n - e]
        else:
            for n in range(e, order):
                if arr[n - e]:
                    arr[n] += arr[n - e]
    return PuiseuxSeries(1, dict(enumerate(arr)), order)


def euler_product(order: int) -> PuiseuxSeries:
    return product_expand(1, {0}, 1, order)


def _signed_lattice_sum(exponent, inside) -> dict:
    """{e: sum of (-1)^m over the integers m with exponent(m) = e}, over m =
    0, +-1, +-2, ... while some exponent(+-n) is `inside`; the exponents
    must grow with |m| so that the sum ends."""
    coeffs: dict = {}
    n = 0
    while True:
        hit = False
        for m in (n, -n) if n else (0,):
            e = exponent(m)
            if inside(e):
                coeffs[e] = coeffs.get(e, 0) + (-1) ** (m % 2)
                hit = True
        if not hit and n > 0:
            return coeffs
        n += 1


def pentagonal_sum(order: int) -> PuiseuxSeries:
    coeffs = _signed_lattice_sum(lambda m: m * (3 * m + 1) // 2, lambda e: e < order)
    return PuiseuxSeries(1, coeffs, order)


def euler_check(order: int) -> bool:
    """prod (1-x^n) equals the alternating pentagonal-number sum below order."""
    return euler_product(order) == pentagonal_sum(order)


def eta_series(order) -> PuiseuxSeries:
    """x^(1/24) * prod (1 - x^n), truncated below `order`."""
    order = rat(order)
    body = euler_product(int(order) + 1)
    return PuiseuxSeries.monomial(rat(1, 24), 1, order=order + rat(1, 24)) * body


# ---------------------------------------------------------------------------
# the triple product


def jacobi_check(order_x: int, z_range: int) -> bool:
    """Triple product prod (1-x^{2n})(1+x^{2n-1}z)(1+x^{2n-1}/z) versus
    sum_n x^{n^2} z^n, compared below order_x and for |z-degree| <= z_range.

    The product is a dict of its (x-degree, z-degree) coefficients.
    Intermediate z-degrees are kept up to a buffer B with B^2 >= order_x;
    terms beyond it already exceed the x-order and cannot flow back.
    """
    if z_range < 0:
        raise ValueError("z_range must be symmetric and nonnegative")
    buffer = max(z_range, math.isqrt(order_x) + 1)
    prod = {(0, 0): 1}
    n = 1
    while 2 * n - 1 < order_x:
        # (1 - x^{2n}) when 2n is below the order, then (1 + x^{2n-1} z^{+-1})
        factors = [(2 * n, 0, -1)] if 2 * n < order_x else []
        for x_exp, z_exp, scalar in factors + [(2 * n - 1, 1, 1), (2 * n - 1, -1, 1)]:
            out = dict(prod)
            for (a, b), v in prod.items():
                a2, b2 = a + x_exp, b + z_exp
                if a2 < order_x and abs(b2) <= buffer:
                    out[a2, b2] = out.get((a2, b2), 0) + scalar * v
            prod = {k: v for k, v in out.items() if v}
        n += 1
    lhs = {k: v for k, v in prod.items() if abs(k[1]) <= z_range}
    rhs = {(m * m, m): 1 for m in range(-z_range, z_range + 1) if m * m < order_x}
    return lhs == rhs


# ---------------------------------------------------------------------------
# specializations and theta functions with characteristics


def specialize_314(k: int, j: int, order: int) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """Product prod (1-x^{Nn})(1-x^{Nn-j})(1-x^{Nn-(N-j)}) with N = 2k+1,
    against the alternating sum with exponents N n(n+1)/2 - j n.

    These are the specializations x -> x^{N/2}, z -> -x^{(N-2j)/2} of the
    triple product; both sides live on the integer lattice.
    """
    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    N = 2 * k + 1
    lhs = product_expand(N, {0, (-j) % N, j % N}, 1, order)
    coeffs = _signed_lattice_sum(lambda m: N * m * (m + 1) // 2 - j * m,
                                 lambda e: 0 <= e < order)
    return lhs, PuiseuxSeries(1, coeffs, order)


def reduced_theta(eps, M: int, order) -> tuple[PuiseuxSeries, CycloNum]:
    """Lattice sum sum_n (-1)^n q^{(M/2)(n+eps/2)^2} and its constant phase.

    The phase e^{i pi eps/2} of the characteristic-[eps, 1] theta series at
    z = 0 and lattice scale M is returned separately as an exact root of
    unity; the series itself has rational coefficients.
    """
    eps = rat(eps)
    if not (0 < eps < 2):
        raise ValueError("characteristic eps must lie in (0, 2)")
    order = rat(order)
    p, q = eps.numerator, eps.denominator
    denom = 8 * M * q * q
    # keyed by exponent * denom
    coeffs = _signed_lattice_sum(lambda m: M * M * (2 * m * q + p) ** 2,
                                 lambda e: rat(e, denom) < order)
    phase = zeta(4 * q) ** p
    return PuiseuxSeries(denom, coeffs, order), phase


def eta_theta_check(order: int) -> bool:
    """The eta series equals the phase-stripped reduced theta of
    characteristic 1/3 at lattice scale 3, with the two constant phases
    cancelling exactly."""
    theta, phase = reduced_theta(rat(1, 3), 3, rat(order))
    phase_check = zeta(12).inverse() * phase  # e^{-pi i/6} * e^{pi i/6}
    return phase_check == 1 and eta_series(rat(order)) == theta


def verify_316(k: int, j: int, order: int) -> bool:
    """Exact identity between the restricted product
    prod_{s != 0, +-j mod N} 1/(1 - x^{N n - s}) and the theta quotient with
    monomial prefactor x^{1/24 - (N-2j)^2/(8N)}, phases cancelling exactly."""
    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    N = 2 * k + 1
    p = N - 2 * j  # = 2(k - j) + 1
    lhs = product_expand(N, set(range(N)) - {0, j, N - j}, -1, order)
    margin = rat(order) + 2
    theta_num, phase_num = reduced_theta(rat(p, N), N, margin)
    theta_den, phase_den = reduced_theta(rat(1, 3), 3, margin)
    shift = rat(1, 24) - rat(p * p, 8 * N)
    quotient = theta_num / theta_den
    rhs = PuiseuxSeries.monomial(shift, 1, order=rat(order) - min(shift, 0) + 1) * quotient
    # explicit constant: e^{pi i/6 - pi i p/(2N)}; total phase must be 1
    phase_const = zeta(12) * zeta(4 * N) ** (-p)
    total_phase = phase_const * phase_num * phase_den.inverse()
    if total_phase != 1:
        return False
    return lhs == rhs


def minimal_char(k: int, i: int, order: int) -> PuiseuxSeries:
    """Character series q^{h - c/24} prod_{n != 0, +-i mod 2k+1} 1/(1 - q^n)
    for the weight-(1,i) member of the central-charge family c = 1 -
    6(2k-1)^2/(4k+2); prefactor exponent computed exactly."""
    if k < 2 or not 1 <= i <= k:
        raise ValueError("need k >= 2 and 1 <= i <= k")
    N = 2 * k + 1
    c = central_charge(k)
    h = highest_weight(k, i)
    shift = h - c / 24
    body = product_expand(N, set(range(N)) - {0, i, N - i}, -1, order)
    return PuiseuxSeries.monomial(shift, 1, order=rat(order) + shift) * body


def central_charge(k: int):
    return rat(1) - rat(6 * (2 * k - 1) ** 2, 4 * k + 2)


def highest_weight(k: int, i: int):
    return rat((2 * (k - i) + 1) ** 2 - (2 * k - 1) ** 2, 8 * (2 * k + 1))


# ---------------------------------------------------------------------------
# numeric modular check


def modular_s_check(
    k: int,
    order: int = 400,
    precision_bits: int = 256,
):
    """Numeric span-invariance of the k character series under tau -> -1/tau.

    Evaluates the characters at k+1 points on the imaginary axis, solves
    the k x k change of basis on the first k, and returns the maximum
    residual on the held-out points.  Raises on k < 2, a precision below 64
    bits, an ill-conditioned solve, and series tails not below 2^(-prec/2).

    Invariance under tau -> tau + 2k+1 needs no numeric check: every
    exponent lies in h - c/24 + Z and (2k+1)(h - c/24) differs from an
    integer by a common constant across the family, so the span is fixed by
    that shift term by term.

    Each character's coefficients become working-precision mpfs once per
    call; every point, and the tail check's truncated sum (a prefix of the
    full sum's pass), is evaluated from them.
    """
    import mpmath

    if k < 2:
        raise ValueError("k must be at least 2")
    check_precision(precision_bits)
    ts = [0.8 + 0.6 * a / k for a in range(k + 1)]
    chars = [minimal_char(k, i, order) for i in range(1, k + 1)]
    terms = [ch._mp_terms(precision_bits) for ch in chars]
    with mpmath.workprec(precision_bits + 32):
        two_pi = 2 * mpmath.pi

        def q_at(t):
            return mpmath.e ** (-two_pi * t)

        def q_at_inv(t):
            # reciprocal taken at working precision, not in float arithmetic
            return mpmath.e ** (-two_pi / mpmath.mpf(t))

        # tail bound: compare evaluations at consecutive truncation orders;
        # the terms of the lower one are a prefix, read off the same pass
        t_min = min(min(ts), min(1 / t for t in ts))
        tail = mpmath.mpf(0)
        for ch, ch_terms in zip(chars, terms):
            cut = len(ch.truncate(ch.order - 1).coeffs)
            less, full = _mp_sum(ch_terms, ch.denom, q_at(t_min), precision_bits, cut)
            tail = max(tail, abs(full - less))
        if tail > mpmath.mpf(2) ** (-(precision_bits // 2)):
            raise ValueError(
                f"order {order} leaves a series tail {mpmath.nstr(tail, 5)}; increase it"
            )

        vals = mpmath.matrix(k, k)
        for a in range(k):
            for i in range(k):
                vals[a, i] = chars[i].evaluate(q_at(ts[a]), precision_bits, terms[i])
        transformed = mpmath.matrix(k, k)
        for a in range(k):
            for i in range(k):
                transformed[a, i] = chars[i].evaluate(q_at_inv(ts[a]), precision_bits, terms[i])
        norm = mpmath.mnorm(vals, 1)
        try:
            inv = vals**-1
        except ZeroDivisionError as exc:
            raise ArithmeticError("ill-conditioned sample matrix") from exc
        cond = norm * mpmath.mnorm(inv, 1)
        if cond > mpmath.mpf(2) ** (precision_bits // 2):
            raise ArithmeticError(f"ill-conditioned solve, condition ~ {mpmath.nstr(cond, 5)}")
        # S[i, j]: ch_i(-1/tau) = sum_j S[i, j] ch_j(tau), solved on the first k points
        S = mpmath.matrix(k, k)
        for i in range(k):
            rhs = mpmath.matrix([transformed[a, i] for a in range(k)])
            col = mpmath.lu_solve(vals, rhs)
            for jj in range(k):
                S[i, jj] = col[jj]
        residual = mpmath.mpf(0)
        for t in ts[k:]:
            v = [chars[i].evaluate(q_at(t), precision_bits, terms[i]) for i in range(k)]
            w = [chars[i].evaluate(q_at_inv(t), precision_bits, terms[i]) for i in range(k)]
            for i in range(k):
                pred = mpmath.fsum(S[i, jj] * v[jj] for jj in range(k))
                residual = max(residual, abs(pred - w[i]))
        return float(residual), S
