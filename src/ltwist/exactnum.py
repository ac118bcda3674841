"""Exact rational and cyclotomic arithmetic.

The scalar domain used throughout the package is the union of ints,
rationals (`Rat` = `fractions.Fraction`) and the irrational elements of
cyclotomic fields Q(zeta_m) (`CycloNum`), the latter represented on the power
basis modulo the m-th cyclotomic polynomial so that equality is decidable and
there are no zero divisors.  Each value has one form: a rational is always a
`Rat` (or an int), never a `CycloNum`, so the type of a result follows its
value.  The three compose with Python's own operators: `+`, `-`, `*`, `/`,
`**` and `==` take an int or a `Rat` on either side of a `CycloNum`, and the
result is a `Rat` exactly when it is rational, `zeta_3 + zeta_3^2` too.
`CycloNum` answers Python's numeric protocol like `int` and `Rat`:
`x.conjugate()` is complex conjugation and `complex(x)` the embedding.  A
cyclotomic element holds integer numerators over one denominator, and its
arithmetic runs on Python ints in Z[zeta_m] = Z[x]/(Phi_m) (`CycloRing`, one
per order from `cyclo_ring`), the ring the exact operator sweeps hold their
columns in.  Every such ring, the quadratic orders of the central-term
systems too, is one `QuotientRing` Z[x]/(f): arithmetic generated from the
monic f, and reductions one remainder mod f.  `scalar_parts` gives any scalar
as integer numerators over one denominator.  A controlled-precision complex
embedding is provided for the few numeric checks.  `factorize` is the one
trial division and `horner` the one polynomial evaluator of the package;
`is_prime` is a deterministic Miller-Rabin test for word-sized numbers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction as Rat
from functools import lru_cache
from typing import Optional, Union

rat = Rat

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


def factorize(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod p^e and p ascending, [] for n <= 1: the
    package's one trial division, from which primality (factorize(n) ==
    [(n, 1)]), squarefreeness and euler_phi are read."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5, 7, exact below 3,215,031,751
    (Pomerance, Selfridge and Wagstaff 1980); a ValueError from there on."""
    if n >= 3_215_031_751:
        raise ValueError("is_prime is exact only below 3,215,031,751")
    if n < 2 or any(n % a == 0 for a in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in (2, 3, 5, 7):  # a strong probable prime: a^d = 1 or some a^(2^k d) = -1
        powers = [pow(a, (n - 1) >> (s - k), n) for k in range(s)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("euler_phi needs a positive argument")
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(m))


def horner(coeffs, x):
    """sum c_k x^k by Horner's rule, coefficients in ascending degree; x is
    anything they multiply and add with: an int, a scalar, an int64 array."""
    h = 0
    for c in reversed(coeffs):
        h = h * x + c
    return h


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num) - dn, 0)
    terms = [(k, dc) for k, dc in enumerate(den) if dc]
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for k, dc in terms:
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
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


def _reduce(vec, f) -> tuple:
    """The power-basis vector of sum_t vec[t] x^t mod the monic f."""
    rem = _poly_divmod_int(vec, f)[1]
    return tuple(rem) + (0,) * (len(f) - 1 - len(rem))


def _power_image(e: int, f) -> tuple[int, ...]:
    """x^e mod the monic f on the power basis, for e >= 0."""
    return _reduce([0] * e + [1], f)


def _substituted(a, exponents, f) -> tuple:
    """sum_i a[i] x^exponents[i] mod the monic f."""
    vec = [0] * (max(exponents) + 1)
    for c, e in zip(a, exponents):
        vec[e] += c
    return _reduce(vec, f)


# ---------------------------------------------------------------------------
# integer arithmetic in Z[x]/(f)

# Up to this degree the product and the conjugation are straight-line
# expressions.  Above it each product coefficient would be a sum of hundreds
# of terms (phi(1680) = 384), deep enough to exhaust the compiler's recursion
# limit, so those two loop instead.
_STRAIGHT_LINE_MAX_DEGREE = 16


class QuotientRing:
    """Z[x]/(f), f monic in Z[x] of degree n (ascending coefficients), on
    integer tuples over the power basis 1, x, ..., x^(n-1).

    `add`, `sub`, `neg`, `smul` (by an int), `from_int`, `mul` and, given the
    exponents e_i of an involution x^i -> x^e_i, `conj` are generated for f:
    up to degree 16 the product and `conj` are straight-line expressions read
    off the powers x^t mod f, several times faster than a loop; above they
    loop and take one remainder mod f.
    """

    def __init__(self, f: tuple, conj_exponents: tuple):
        self.f = f
        self.degree = n = len(f) - 1
        self.zero = (0,) * n
        self.one = (1,) + self.zero[1:]
        self.is_zero = _all_zero
        a = ", ".join(f"a{i}" for i in range(n))
        b = ", ".join(f"b{i}" for i in range(n))

        def each(expr: str) -> str:
            return "(" + ", ".join(expr.format(i=i) for i in range(n)) + ",)"

        def sums(terms: list[list[str]]) -> str:
            return "(" + ", ".join(_sum_of(t) for t in terms) + ",)"

        src = f"""
def add(a, b):
    {a}, = a
    {b}, = b
    return {each("a{i} + b{i}")}
def sub(a, b):
    {a}, = a
    {b}, = b
    return {each("a{i} - b{i}")}
def neg(a):
    {a}, = a
    return {each("-a{i}")}
def smul(a, n):
    {a}, = a
    return {each("a{i} * n")}
def from_int(n):
    return (n,{" 0," * (n - 1)})
"""
        namespace: dict = {}
        if n <= _STRAIGHT_LINE_MAX_DEGREE:
            images = [_power_image(t, f) for t in range(2 * n - 1)]
            mul_terms = [
                [_term(images[i + j][k], f"a{i}*b{j}")
                 for i in range(n) for j in range(n) if images[i + j][k]]
                for k in range(n)
            ]
            src += f"""
def mul(a, b):
    {a}, = a
    {b}, = b
    return {sums(mul_terms)}
"""
            if conj_exponents:
                conj_rows = [_power_image(e, f) for e in conj_exponents]
                conj_terms = [
                    [_term(row[k], f"a{i}") for i, row in enumerate(conj_rows) if row[k]]
                    for k in range(n)
                ]
                src += f"""def conj(a):
    {a}, = a
    return {sums(conj_terms)}
"""
        else:

            def mul(a, b):
                prod = [0] * (2 * n - 1)
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b):
                            if y:
                                prod[i + j] += x * y
                return _reduce(prod, f)

            namespace["mul"] = mul
            if conj_exponents:
                namespace["conj"] = lambda a: _substituted(a, conj_exponents, f)
        exec(src, namespace)
        for name in ("add", "sub", "neg", "mul", "smul", "from_int", "conj"):
            if name in namespace:
                setattr(self, name, namespace[name])


class CycloRing(QuotientRing):
    """Z[zeta_m] = Z[x]/(Phi_m) with conj zeta -> zeta^-1: `CycloNum` computes
    on its numerators here, and the exact operator sweeps hold their column
    entries here, the rational factor kept outside, so no scalar-type
    dispatch is met per entry.  When phi(m) = 1 the elements are plain ints
    and the operations the int builtins.  Get instances from `cyclo_ring`.
    """

    def __init__(self, m: int):
        self.order = m
        f = cyclotomic_poly(m)
        if len(f) == 2:
            self.degree = 1
            self.zero, self.one = 0, 1
            self.add, self.sub, self.neg = operator.add, operator.sub, operator.neg
            self.mul = self.smul = operator.mul
            self.from_int = int
            self.is_zero = operator.not_
            self.conj = _same
            return
        super().__init__(f, tuple(-i % m for i in range(len(f) - 1)))

    # boundary with the scalar domain

    def from_scalar(self, x) -> tuple:
        """(element, den) with x = element / den and den > 0 minimal."""
        order, num, den = scalar_parts(x)
        num = _lift(num, order, self.order)
        return (num[0] if self.degree == 1 else num), den

    def to_scalar(self, a, scale):
        """The scalar `scale * a`, a `Rat` when it is rational."""
        if self.degree == 1:
            return scale * a
        p, q = scale.numerator, scale.denominator
        return CycloNum._make(self.order, [p * c for c in a], q)


@lru_cache(maxsize=None)
def cyclo_ring(m: int) -> CycloRing:
    return CycloRing(m)


def _all_zero(a) -> bool:
    return not any(a)


def _same(a):
    return a


def _term(r: int, product: str) -> str:
    return product if r == 1 else f"-{product}" if r == -1 else f"{r}*{product}"


def _sum_of(terms: list[str]) -> str:
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


# ---------------------------------------------------------------------------
# the cyclotomic field


class CycloNum:
    """Element of Q(zeta_m) that is not rational: integer numerators on the
    power basis 1, zeta, ..., zeta^{phi(m)-1} over one positive denominator.

    A value has one form.  Every construction and every result goes through
    `_exact`, which returns a `Rat` when the value is rational, so a
    `CycloNum` always has some nonzero non-constant numerator and order at
    least 3: the type of a result follows its value, as in `PeriodicFn`.
    The numerators are canonical: `num` is a tuple of ints, `den` > 0 and
    gcd(den, *num) == 1.  Elements of different orders compare equal exactly
    when they agree inside Q(zeta_lcm).  Instances are immutable.  `coeffs`
    gives the coefficients as `Rat`s for the text forms.
    """

    __slots__ = ("order", "num", "den")
    __hash__ = None  # cross-order equality would break the hash contract

    def __new__(cls, order: int, coeffs):
        """The value sum_i coeffs[i] zeta_order^i: a `Rat` when it is rational."""
        coeffs = [rat(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector length must be phi(order)")
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return CycloNum._make(order, num, den)

    @staticmethod
    def _make(order: int, num, den: int = 1):
        """The value num / den of Q(zeta_order) from integer numerators, den > 0."""
        g = math.gcd(den, *num)
        if g != 1:
            return _exact(order, tuple(c // g for c in num), den // g)
        return _exact(order, tuple(num), den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycloNum is immutable")

    # -- helpers -------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as `Rat`s."""
        den = self.den
        return tuple(rat(c, den) for c in self.num)

    def _aligned(self, other: "CycloNum") -> tuple:
        """(order, a, b): both numerator tuples on one power basis."""
        m, n = self.order, other.order
        if m == n:
            return m, self.num, other.num
        big = m * n // math.gcd(m, n)
        return big, _lift(self.num, m, big), _lift(other.num, n, big)

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, zeta -> zeta^{-1}."""
        m = self.order
        return _exact(m, cyclo_ring(m).conj(self.num), self.den)

    def galois(self, t: int) -> "CycloNum":
        """The automorphism zeta -> zeta^t, gcd(t, order) = 1."""
        m = self.order
        if math.gcd(t, m) != 1:
            raise ValueError("galois exponent must be a unit mod the order")
        exponents = [i * t % m for i in range(len(self.num))]
        return _exact(m, _substituted(self.num, exponents, cyclotomic_poly(m)), self.den)

    def __complex__(self) -> complex:
        return complex(cyclo_embed(self, 64))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CycloNum):
            m, a, b = self._aligned(other)
            da, db = self.den, other.den
            if da == db:
                return CycloNum._make(m, cyclo_ring(m).add(a, b), da)
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            return CycloNum._make(m, [x * fa + y * fb for x, y in zip(a, b)], da * fa)
        if isinstance(other, (int, Rat)):
            p, q = other.numerator, other.denominator
            num, den = self.num, self.den
            g = math.gcd(den, q)
            fa, fb = q // g, den // g
            return CycloNum._make(
                self.order, [num[0] * fa + p * fb] + [c * fa for c in num[1:]], den * fa
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _exact(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloNum) else -rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycloNum):
            m, a, b = self._aligned(other)
            return CycloNum._make(m, cyclo_ring(m).mul(a, b), self.den * other.den)
        if isinstance(other, (int, Rat)):
            return CycloNum._make(
                self.order, [c * other.numerator for c in self.num],
                self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """1/x = y / (x y), y the product of the other Galois conjugates of x;
        x y is the norm of x, a nonzero rational."""
        m = self.order
        y = math.prod(self.galois(t) for t in range(2, m) if math.gcd(t, m) == 1)
        return y / (self * y)

    def __truediv__(self, other):
        if isinstance(other, CycloNum):
            return self * other.inverse()
        if isinstance(other, (int, Rat)):
            if other == 0:
                raise ZeroDivisionError("zero divisor")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return CycloNum._make(self.order, [c * q for c in self.num], self.den * p)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Rat)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            if self.den != other.den:
                return False
            if self.order == other.order:
                return self.num == other.num
            _, a, b = self._aligned(other)
            return a == b
        if isinstance(other, (int, Rat)):
            return False  # a CycloNum is not rational
        return NotImplemented

    def __repr__(self):
        return scalar_str(self)


_new = object.__new__
_set_order = CycloNum.order.__set__
_set_num = CycloNum.num.__set__
_set_den = CycloNum.den.__set__


def _exact(order: int, num: tuple, den: int):
    """The value num / den of Q(zeta_order) from parts in lowest terms, den > 0:
    a `Rat` when every non-constant numerator vanishes, else a `CycloNum`.
    Every scalar of the field is built here."""
    if not any(num[1:]):
        return rat(num[0], den)
    self = _new(CycloNum)
    _set_order(self, order)
    _set_num(self, num)
    _set_den(self, den)
    return self


def _lift(num: tuple, m: int, big: int) -> tuple:
    """Numerators on the power basis of Q(zeta_m) rewritten on that of
    Q(zeta_big), m | big: zeta_m = zeta_big^(big/m)."""
    if m == big:
        return num
    if big % m:
        raise ValueError("promotion needs m | big")
    step = big // m
    return _substituted(num, range(0, len(num) * step, step), cyclotomic_poly(big))


def scalar_parts(x) -> tuple:
    """(order, integer numerators, den) of an int, a `Rat` or a `CycloNum`:
    x = sum_i num[i] zeta_order^i / den with den > 0 minimal."""
    if isinstance(x, CycloNum):
        return x.order, x.num, x.den
    x = x if isinstance(x, (int, Rat)) else rat(x)
    return 1, (x.numerator,), x.denominator


def scalar_table(values) -> tuple:
    """The scalars `values` for `linear_form`: one block (order, indices,
    columns, den) per cyclotomic order among the nonzero values, in order of
    first appearance, column i holding the i-th power-basis numerators over
    den of the values at `indices`.  All tuples, so tables can be shared."""
    blocks: dict = {}  # order -> (index, numerators, den) per value
    for k, v in enumerate(values):
        if v:
            m, num, d = scalar_parts(v)
            blocks.setdefault(m, []).append((k, num, d))
    table = []
    for m, entries in blocks.items():
        indices, nums, dens = zip(*entries)
        den = math.lcm(*dens)
        rows = ([c * (den // d) for c in num] for num, d in zip(nums, dens))
        table.append((m, indices, tuple(zip(*rows)), den))
    return tuple(table)


def linear_form(table, weights, den: int = 1):
    """The exact sum of weights[k] * values[k] / den over the values of a
    `scalar_table`, integer weights, den > 0: per block, one integer dot
    product per column, the blocks added in table order.  Like a chain of
    `+`, the result is a `Rat` exactly when it is rational."""
    total = ZERO
    for m, indices, columns, d in table:
        w = [weights[k] for k in indices]
        total += CycloNum._make(m, [sum(map(operator.mul, c, w)) for c in columns], d * den)
    return total


Scalar = Union[int, Rat, CycloNum]


def zeta(m: int) -> Scalar:
    """Primitive m-th root of unity as an exact scalar (a `Rat` for m <= 2)."""
    if m < 1:
        raise ValueError("root order must be positive")
    return _exact(m, _power_image(1, cyclotomic_poly(m)), 1)


def cyclo_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Spec-surface arithmetic dispatcher: op in {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / (b if isinstance(b, CycloNum) else rat(b))
    raise ValueError(f"unknown op {op!r}")


def as_scalar(v) -> Scalar:
    """v in its one exact form: a `CycloNum` or `Rat` as it is, else rat(v)."""
    return v if isinstance(v, (CycloNum, Rat)) else rat(v)


def is_rational(a) -> Optional[Rat]:
    """The value as a `Rat` if it is rational, else None: a scalar is
    rational exactly when it is not a `CycloNum`."""
    return None if isinstance(a, CycloNum) else rat(a)


def scalar_str(a) -> str:
    """Textual form: rationals as "p/q", cyclotomics as "ord=m;[c0,c1,...]"."""
    if isinstance(a, CycloNum):
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


def check_precision(bits: int, name: str = "precision_bits") -> None:
    """Reject a working precision below 64 bits, calling it `name`: the one
    floor of `cyclo_embed`, `qseries.modular_s_check` and the report."""
    if bits < 64:
        raise ValueError(f"{name} must be at least 64")


_ROOTS: dict = {}  # (m, precision_bits) -> exp(2 pi i / m) at cyclo_embed's precision


def cyclo_embed(a, precision_bits: int = 128):
    """Complex embedding sending zeta_m to exp(2 pi i / m).

    Returns an mpmath mpc computed with guard bits; the result is within
    2^(-precision_bits+4) of the true value for desk-scale inputs.
    """
    import mpmath

    check_precision(precision_bits)
    with mpmath.workprec(precision_bits + 32):
        if not isinstance(a, CycloNum):
            a = rat(a)
            return mpmath.mpc(mpmath.mpf(a.numerator) / mpmath.mpf(a.denominator))
        z = _ROOTS.get((a.order, precision_bits))
        if z is None:
            z = _ROOTS[a.order, precision_bits] = mpmath.e ** (2j * mpmath.pi / a.order)
        acc = mpmath.mpc(0)
        for c in reversed(a.coeffs):
            acc = acc * z
            acc += mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return +acc
