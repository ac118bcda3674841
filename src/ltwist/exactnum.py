"""Exact rational and cyclotomic arithmetic.

The scalar domain used throughout the package is the union of arbitrary
precision rationals and elements of cyclotomic fields Q(zeta_m), the latter
represented on the power basis modulo the m-th cyclotomic polynomial so that
equality is decidable and there are no zero divisors.  A controlled-precision
complex embedding is provided for the few numeric checks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Union

try:
    from gmpy2 import mpq as _mpq

    def rat(p=0, q=1):
        return _mpq(p, q)

    RAT_TYPES = (int, type(_mpq(0)))
except ImportError:  # gmpy2 is optional; fractions is the supported fallback
    from fractions import Fraction as _mpq

    def rat(p=0, q=1):
        return _mpq(p, q)

    RAT_TYPES = (int, _mpq)

Rat = type(rat(0))

ZERO = rat(0)
ONE = rat(1)


def rat_str(x) -> str:
    """Canonical "p/q" form with q > 0, used by reports and table files."""
    x = rat(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(text: str):
    text = text.strip()
    if "/" in text:
        p, q = text.split("/")
        return rat(int(p), int(q))
    return rat(int(text))


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("euler_phi needs a positive argument")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for k, dc in enumerate(den):
                num[i - dn + k] -= c * dc
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the proper-divisor cyclotomic
    polynomials; fine at desk scale (m up to a few hundred).
    """
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        poly, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
        if rem:
            raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Integer rows of x^t mod Phi_m for t = phi(m) .. m - 1, built whole.

    Phi_m is monic with integer coefficients, so every row is integral, and
    x^m = 1 mod Phi_m, so higher powers fold onto these rows first.
    """
    poly = cyclotomic_poly(m)
    base = tuple(-c for c in poly[:-1])  # x^phi
    rows = []
    row = base
    for _ in range(len(base), m):
        rows.append(row)
        top = row[-1]
        row = (0,) + row[:-1]
        if top:
            row = tuple(s + top * b for s, b in zip(row, base))
    return tuple(rows)


@lru_cache(maxsize=None)
def _promotion_table(m: int, big: int) -> tuple[tuple[int, ...], ...]:
    """Integer images of the power basis of Q(zeta_m) inside Q(zeta_big), m | big."""
    if big % m:
        raise ValueError("promotion needs m | big")
    phi_b = euler_phi(big)
    step = big // m
    rows = []
    for i in range(euler_phi(m)):
        e = i * step
        vec = [0] * max(phi_b, e + 1)
        vec[e] = 1
        rows.append(tuple(_reduce_vec(vec, big, 0)))
    return tuple(rows)


def _reduce_vec(vec: list, m: int, zero=ZERO) -> list:
    """Power-basis vector of sum vec[t] x^t mod Phi_m (entries Rat or int)."""
    phi = euler_phi(m)
    if len(vec) <= phi:
        return list(vec) + [zero] * (phi - len(vec))
    if len(vec) > m:
        folded = list(vec[:m])
        for t in range(m, len(vec)):
            if vec[t]:
                folded[t % m] = folded[t % m] + vec[t]
        vec = folded
    out = list(vec[:phi])
    for c, row in zip(vec[phi:], _reduction_rows(m)):
        if c:
            for k in range(phi):
                if row[k]:
                    out[k] = out[k] + c * row[k]
    return out


class CycloNum:
    """Element of Q(zeta_m) on the power basis 1, zeta, ..., zeta^{phi(m)-1}.

    Values that happen to be rational collapse to order 1, which gives zero
    and one a canonical form.  Elements of different orders compare equal
    exactly when they agree inside Q(zeta_lcm).  Instances are immutable.
    """

    __slots__ = ("order", "coeffs")
    __hash__ = None  # cross-order equality would break the hash contract

    def __init__(self, order: int, coeffs, normalize: bool = True):
        coeffs = tuple(rat(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector length must be phi(order)")
        if normalize and order > 1 and all(c == 0 for c in coeffs[1:]):
            order, coeffs = 1, (coeffs[0],)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _make(cls, order: int, coeffs: list) -> "CycloNum":
        """Internal constructor for already-rational coefficient lists."""
        if order > 1:
            nonzero = False
            for c in coeffs[1:]:
                if c:
                    nonzero = True
                    break
            if not nonzero:
                order, coeffs = 1, coeffs[:1]
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycloNum is immutable")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rat(x) -> "CycloNum":
        return CycloNum(1, (rat(x),))

    @staticmethod
    def zeta(m: int) -> "CycloNum":
        if m < 1:
            raise ValueError("root order must be positive")
        if m == 1:
            return CycloNum(1, (ONE,))
        if m == 2:
            return CycloNum(1, (-ONE,))
        vec = [ZERO] * euler_phi(m)
        if euler_phi(m) == 1:
            raise AssertionError("unreachable")
        vec[1] = ONE
        return CycloNum(m, vec)

    # -- helpers -------------------------------------------------------

    def promote(self, big: int) -> "CycloNum":
        """Rewrite on the power basis of Q(zeta_big); keeps the big basis."""
        if big == self.order:
            return self
        table = _promotion_table(self.order, big)
        phi_b = euler_phi(big)
        out = [ZERO] * phi_b
        for c, row in zip(self.coeffs, table):
            if c:
                for k in range(phi_b):
                    if row[k]:
                        out[k] = out[k] + c * row[k]
        return CycloNum(big, out, normalize=False)

    def _common(self, other) -> tuple["CycloNum", "CycloNum"]:
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rat(other)
        if self.order == other.order:
            return self, other
        big = self.order * other.order // math.gcd(self.order, other.order)
        return self.promote(big), other.promote(big)

    @property
    def is_zero(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 0

    def rational_part(self) -> Optional[Rat]:
        """The value as a rational if it is one, else None."""
        if self.order == 1:
            return self.coeffs[0]
        return None

    def conj(self) -> "CycloNum":
        """Complex conjugation, zeta -> zeta^{-1}."""
        return self.galois(self.order - 1) if self.order > 1 else self

    def galois(self, t: int) -> "CycloNum":
        """The automorphism zeta -> zeta^t, gcd(t, order) = 1."""
        m = self.order
        if m == 1:
            return self
        if math.gcd(t, m) != 1:
            raise ValueError("galois exponent must be a unit mod the order")
        return CycloNum(m, _reduce_vec(_expand_mod_xm(self.coeffs, t, m), m))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RAT_TYPES):
            return CycloNum._make(
                self.order, (self.coeffs[0] + other,) + self.coeffs[1:]
            )
        if other.order == self.order:
            return CycloNum._make(
                self.order, [x + y for x, y in zip(self.coeffs, other.coeffs)]
            )
        a, b = self._common(other)
        return CycloNum._make(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, tuple(-c for c in self.coeffs), normalize=False)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloNum) else -rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RAT_TYPES):
            if other == 0:
                return CYCLO_ZERO
            return CycloNum._make(self.order, [c * other for c in self.coeffs])
        if other.order == self.order:
            a, b = self, other
        else:
            a, b = self._common(other)
        if a.order == 1:
            return CycloNum._make(1, [a.coeffs[0] * b.coeffs[0]])
        n = len(a.coeffs)
        prod = [ZERO] * (2 * n - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        prod[i + j] = prod[i + j] + ci * cj
        return CycloNum._make(a.order, _reduce_vec(prod, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero:
            raise ZeroDivisionError("zero divisor")
        if self.order == 1:
            return CycloNum(1, (ONE / self.coeffs[0],))
        inv = _poly_invert_mod(self.coeffs, self.order)
        return CycloNum(self.order, inv)

    def __truediv__(self, other):
        if isinstance(other, RAT_TYPES):
            if other == 0:
                raise ZeroDivisionError("zero divisor")
            return CycloNum(self.order, tuple(c / other for c in self.coeffs))
        a, b = self._common(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CycloNum.from_rat(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CYCLO_ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, RAT_TYPES):
            return self.order == 1 and self.coeffs[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        return scalar_str(self)

    def fingerprint(self) -> tuple:
        return ("c", self.order) + tuple(
            (c.numerator, c.denominator) for c in self.coeffs
        )


def _expand_mod_xm(coeffs, t: int, m: int) -> list:
    """Coefficient vector of sum c_i x^{i t mod m}, exponents folded by x^m = 1.

    Folding by x^m = 1 before the Phi_m reduction is sound because zeta_m^m = 1.
    """
    out = [ZERO] * m
    for i, c in enumerate(coeffs):
        if c:
            e = (i * t) % m
            out[e] = out[e] + c
    return out


def _poly_invert_mod(coeffs, m: int) -> list:
    """Inverse of the given power-basis vector modulo Phi_m (extended Euclid)."""
    phi_poly = [rat(c) for c in cyclotomic_poly(m)]

    def pdeg(p):
        d = len(p) - 1
        while d >= 0 and p[d] == 0:
            d -= 1
        return d

    def pdivmod(a, b):
        a = list(a)
        db = pdeg(b)
        lead = b[db]
        q = [ZERO] * max(pdeg(a) - db + 1, 0)
        while pdeg(a) >= db:
            da = pdeg(a)
            c = a[da] / lead
            q[da - db] = c
            for k in range(db + 1):
                a[da - db + k] = a[da - db + k] - c * b[k]
        return q, a

    r0, r1 = phi_poly, list(coeffs)
    s0, s1 = [ZERO], [ONE]
    while pdeg(r1) > 0:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul_rat(q, s1)
        s_new = [x - y for x, y in _zip_pad(s0, qs)]
        s0, s1 = s1, s_new
    d = pdeg(r1)
    if d < 0:
        raise ZeroDivisionError("zero divisor")
    c = r1[0]
    inv = [x / c for x in s1]
    return _reduce_vec(inv, m)


def _poly_mul_rat(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [ZERO] * (n - len(a))
    b = list(b) + [ZERO] * (n - len(b))
    return zip(a, b)


CYCLO_ZERO = CycloNum(1, (ZERO,))
CYCLO_ONE = CycloNum(1, (ONE,))

Scalar = Union[int, Rat, CycloNum]


def zeta(m: int) -> CycloNum:
    """Primitive m-th root of unity as an exact cyclotomic element."""
    return CycloNum.zeta(m)


def cyclo(value) -> CycloNum:
    return value if isinstance(value, CycloNum) else CycloNum.from_rat(value)


def cyclo_arith(a: CycloNum, b: CycloNum, op: str) -> CycloNum:
    """Spec-surface arithmetic dispatcher: op in {add, sub, mul, div}."""
    a, b = cyclo(a), cyclo(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def is_rational(a) -> Optional[Rat]:
    """The exact rational value if all non-constant coefficients vanish."""
    if isinstance(a, RAT_TYPES):
        return rat(a)
    return a.rational_part()


# ---------------------------------------------------------------------------
# scalar helpers over the int/Rat/CycloNum union


def q_is_zero(a) -> bool:
    if isinstance(a, CycloNum):
        return a.is_zero
    return a == 0


def q_add(a, b):
    if isinstance(a, CycloNum) or isinstance(b, CycloNum):
        return cyclo(a) + (b if isinstance(b, CycloNum) else rat(b))
    return a + b


def q_mul(a, b):
    if isinstance(a, CycloNum):
        return a * (b if isinstance(b, CycloNum) else rat(b))
    if isinstance(b, CycloNum):
        return b * rat(a)
    return a * b


def q_eq(a, b) -> bool:
    if isinstance(a, CycloNum) or isinstance(b, CycloNum):
        return cyclo(a) == cyclo(b)
    return a == b


def q_conj(a):
    return a.conj() if isinstance(a, CycloNum) else a


def q_fingerprint(a) -> tuple:
    if isinstance(a, CycloNum):
        r = a.rational_part()
        if r is not None:
            return ("q", r.numerator, r.denominator)
        return a.fingerprint()
    a = rat(a)
    return ("q", a.numerator, a.denominator)


def scalar_str(a) -> str:
    """Textual form: rationals as "p/q", cyclotomics as "ord=m;[c0,c1,...]"."""
    if isinstance(a, CycloNum):
        r = a.rational_part()
        if r is not None:
            return rat_str(r)
        inner = ",".join(rat_str(c) for c in a.coeffs)
        return f"ord={a.order};[{inner}]"
    return rat_str(a)


def parse_scalar(text: str):
    text = text.strip()
    if text.startswith("ord="):
        head, vec = text.split(";", 1)
        order = int(head[4:])
        vec = vec.strip()
        if not (vec.startswith("[") and vec.endswith("]")):
            raise ValueError(f"malformed cyclotomic literal {text!r}")
        coeffs = [parse_rat(p) for p in vec[1:-1].split(",")]
        return CycloNum(order, coeffs)
    return parse_rat(text)


# ---------------------------------------------------------------------------
# numeric embedding


def cyclo_embed(a, precision_bits: int = 128):
    """Complex embedding sending zeta_m to exp(2 pi i / m).

    Returns an mpmath mpc computed with guard bits; the result is within
    2^(-precision_bits+4) of the true value for desk-scale inputs.
    """
    import mpmath

    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    with mpmath.workprec(precision_bits + 32):
        if not isinstance(a, CycloNum):
            a = rat(a)
            return mpmath.mpc(mpmath.mpf(a.numerator) / mpmath.mpf(a.denominator))
        z = mpmath.e ** (2j * mpmath.pi / a.order)
        acc = mpmath.mpc(0)
        for c in reversed(a.coeffs):
            acc = acc * z
            c = rat(c)
            acc += mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return +acc
