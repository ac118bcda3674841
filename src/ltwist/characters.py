"""Periodic functions N -> Q(zeta), Dirichlet characters, and twist groups.

A PeriodicFn stores one period of exact values; evaluation extends
N-periodically to all integers.  Twist groups are finite abelian groups of
even periodic functions whose non-identity members sum to zero over a period;
they drive the twisted oscillator operators.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

from ltwist.exactnum import (
    ONE,
    Scalar,
    as_scalar,
    euler_phi,
    factorize,
    linear_form,
    parse_scalar,
    rat,
    scalar_parts,
    scalar_str,
    scalar_table,
    zeta,
)


class PeriodicFn:
    """Function on the integers of period N, stored as values at 1..N.

    The value at N is the value at 0 mod N.  Values are stored in their one
    exact form, a rational as a `Rat`, so a `CycloNum` value is irrational.
    The `even` and `mean_zero` flags and the period sum are computed from
    the values once, never asserted.  `table`, the values at 1..N as a
    `scalar_table` for `linear_form`, and `embedding`, complex(f(r)) for
    r = 0..N-1, are built on first read, never at construction (the Fock
    certificates build many products they never sum), and kept in `_flags`
    as tuples, which no reader can change.
    """

    __slots__ = ("period", "_by_residue", "_fingerprint", "_flags")

    def __init__(self, period: int, values: Sequence):
        if period < 1:
            raise ValueError("period must be positive")
        if len(values) != period:
            raise ValueError("need exactly one period of values")
        vals = [as_scalar(v) for v in values]
        by_res = [None] * period
        for k, v in enumerate(vals, start=1):
            by_res[k % period] = v
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_by_residue", tuple(by_res))
        object.__setattr__(self, "_fingerprint", None)
        object.__setattr__(self, "_flags", {})

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PeriodicFn is immutable")

    def __call__(self, j: int) -> Scalar:
        return self._by_residue[j % self.period]

    def values(self) -> tuple:
        """Values at 1..N."""
        return self._by_residue[1:] + self._by_residue[:1]

    # -- computed flags --------------------------------------------------

    @property
    def even(self) -> bool:
        if "even" not in self._flags:
            N = self.period
            self._flags["even"] = all(self(j) == self(N - j) for j in range(1, N))
        return self._flags["even"]

    @property
    def mean_zero(self) -> bool:
        return not self.period_sum()

    def period_sum(self) -> Scalar:
        if "sum" not in self._flags:
            self._flags["sum"] = linear_form(self.table, (1,) * self.period)
        return self._flags["sum"]

    @property
    def table(self) -> tuple:
        if "table" not in self._flags:
            self._flags["table"] = scalar_table(self.values())
        return self._flags["table"]

    @property
    def embedding(self) -> tuple:
        if "embedding" not in self._flags:
            self._flags["embedding"] = tuple(map(complex, self._by_residue))
        return self._flags["embedding"]

    @property
    def is_dirichlet_character(self) -> bool:
        """Vanishes exactly off the units mod N, is 1 at 1, multiplicative."""
        if "dirichlet" not in self._flags:
            N = self.period
            ok = self(1) == 1
            if ok:
                for a in range(N):
                    unit = math.gcd(a, N) == 1
                    if unit != bool(self(a)):
                        ok = False
                        break
            if ok:
                # with chi(1) = 1, chi(a g) = chi(a) chi(g) for the generators
                # g gives chi(a b) = chi(a) chi(b) by induction on b's word
                units = [a for a in range(N) if math.gcd(a, N) == 1]
                ok = all(self(a * g) == self(a) * self(g)
                         for g, _ in _unit_group_generators(N) for a in units)
            self._flags["dirichlet"] = ok
        return self._flags["dirichlet"]

    @property
    def is_offzero_indicator(self) -> bool:
        """1 on residues not divisible by N, 0 at multiples of N."""
        if "offzero" not in self._flags:
            N = self.period
            self._flags["offzero"] = not self(0) and all(
                self(j) == 1 for j in range(1, N)
            )
        return self._flags["offzero"]

    # -- algebra ----------------------------------------------------------

    def conj(self) -> "PeriodicFn":
        return PeriodicFn(self.period, [v.conjugate() for v in self.values()])

    def dilate(self, l: int) -> "PeriodicFn":
        """y -> f(y / l) where l | y, else 0, of period lN: its twisted
        operators are the mode-scaled (1/l) tau_l(L_n^f)."""
        if l < 1:
            raise ValueError("dilation must be positive")
        return PeriodicFn(l * self.period, [
            rat(0) if y % l else self(y // l) for y in range(1, l * self.period + 1)
        ])

    def __eq__(self, other):
        if not isinstance(other, PeriodicFn):
            return NotImplemented
        if self.period != other.period:
            return False
        return all(a == b for a, b in zip(self.values(), other.values()))

    __hash__ = None

    def fingerprint(self) -> tuple:
        if self._fingerprint is None:
            fp = (self.period,) + tuple(scalar_parts(v) for v in self.values())
            object.__setattr__(self, "_fingerprint", fp)
        return self._fingerprint

    def __repr__(self):
        vals = ",".join(scalar_str(v) for v in self.values())
        return f"PeriodicFn(N={self.period}; {vals})"

    # -- table file format -------------------------------------------------

    def to_text(self) -> str:
        lines = [f"period {self.period}"]
        for j, v in enumerate(self.values(), start=1):
            lines.append(f"{j} {scalar_str(v)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "PeriodicFn":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("period "):
            raise ValueError("character table must start with 'period N'")
        period = int(lines[0].split()[1])
        values: list = [None] * period
        for ln in lines[1:]:
            j_txt, val_txt = ln.split(None, 1)
            j = int(j_txt)
            if not 1 <= j <= period:
                raise ValueError(f"residue {j} outside 1..{period}")
            values[j - 1] = parse_scalar(val_txt)
        if any(v is None for v in values):
            raise ValueError("character table is missing residues")
        return PeriodicFn(period, values)


def pf_mul(a: PeriodicFn, b: PeriodicFn) -> PeriodicFn:
    """Pointwise product, lifting to the lcm period when periods differ."""
    N = a.period * b.period // math.gcd(a.period, b.period)
    return PeriodicFn(N, [a(k) * b(k) for k in range(1, N + 1)])


# ---------------------------------------------------------------------------
# Dirichlet characters


def _primitive_root(q: int) -> int:
    """Smallest primitive root modulo q, for q an odd prime power or q in {2, 4}."""
    phi = euler_phi(q)
    factors = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in factors):
            return g
    raise ValueError(f"no primitive root mod {q}")


def _unit_group_generators(N: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/N)* via CRT over prime powers."""
    if N == 1:
        return []
    gens = []
    parts = factorize(N)
    for p, e in parts:
        q = p**e
        rest = N // q
        if p == 2:
            if e == 1:
                continue
            locals_ = [(q - 1, 2)] if e == 2 else [(q - 1, 2), (5, 2 ** (e - 2))]
        else:
            locals_ = [(_primitive_root(q), euler_phi(q))]
        for g_local, order in locals_:
            # lift g_local to be 1 modulo the complementary factor
            if rest == 1:
                g = g_local % N
            else:
                inv = pow(rest, -1, q)
                g = (1 + rest * ((g_local - 1) * inv % q)) % N
            gens.append((g, order))
    return gens


def dirichlet_characters(N: int) -> list[PeriodicFn]:
    """All phi(N) Dirichlet characters mod N, trivial character first.

    Characters vanish on non-units; values lie in Q(zeta_e) for the unit
    group exponent e.  Ordering is deterministic: lexicographic in the
    exponent tuple on a fixed generator list, built once per generator list.
    """
    if N < 1:
        raise ValueError("modulus must be positive")
    return list(_character_table(N, tuple(_unit_group_generators(N))))


@lru_cache(maxsize=None)
def _character_table(N: int, gens: tuple) -> tuple:
    orders = [d for _, d in gens]
    # discrete logarithms of every unit on the generator list
    dlog = {1 % N: tuple(0 for _ in gens)}  # 1 is 0 mod 1
    for idx, (g, d) in enumerate(gens):
        new = {}
        for u, exps in dlog.items():
            acc = u
            for t in range(1, d):
                acc = acc * g % N
                e2 = list(exps)
                e2[idx] = t
                new[acc] = tuple(e2)
        dlog.update(new)
    if len(dlog) != euler_phi(N):
        raise ArithmeticError(f"the unit group generators mod {N} miss some units")

    # chi(k) depends only on s = (e_i t_i mod d_i): one product per s per table
    powers = [_root_powers(d) for d in orders]
    logs = [dlog.get(k % N) for k in range(1, N + 1)]  # None off the units
    products: dict = {}
    chars = []
    for exps in itertools.product(*(range(d) for d in orders)):
        values = []
        for t_unit in logs:
            if t_unit is None:
                values.append(rat(0))
                continue
            s = tuple(e * t % d for e, t, d in zip(exps, t_unit, orders))
            val = products.get(s)
            if val is None:
                val = rat(1)
                for si, table in zip(s, powers):
                    if si:
                        val = val * table[si]
                products[s] = val
            values.append(val)
        chars.append(PeriodicFn(N, values))
    return tuple(chars)


@lru_cache(maxsize=None)
def _root_powers(d: int) -> tuple:
    """zeta_d^s for s = 0 .. d - 1, built whole."""
    root = zeta(d)
    powers = [ONE]
    for _ in range(1, d):
        powers.append(powers[-1] * root)
    return tuple(powers)


# ---------------------------------------------------------------------------
# twist groups


class TwistGroup:
    """Finite abelian group of even periodic functions under pointwise product.

    Construction verifies the group laws on the element table: closure,
    identity behaviour, inverses, associativity of the index table, evenness
    of every element, and mean zero for every non-identity element.  Every
    element has period N; the identity must take values in {0, 1} and vanish
    at 0 mod N.  Immutable.
    """

    def __init__(self, period: int, elements: Sequence[PeriodicFn]):
        if not elements:
            raise ValueError("a twist group needs at least one element")
        init = super().__setattr__
        init("period", period)
        if any(e.period != period for e in elements):
            raise ValueError("every element must have the group's period")
        init("elements", tuple(elements))
        init("identity", self._find_identity())
        init("_table", tuple(map(tuple, self._verify())))
        init("_fingerprint", (period,) + tuple(e.fingerprint() for e in self.elements))

    def __setattr__(self, *a):
        raise AttributeError("TwistGroup is immutable")

    def _find_identity(self) -> int:
        for i, e in enumerate(self.elements):
            if all(not v or v == 1 for v in e.values()) and not e(0):
                if all(pf_mul(e, x) == x for x in self.elements):
                    return i
        raise ValueError("no valid identity element")

    def _index_of(self, fn: PeriodicFn) -> int:
        for i, e in enumerate(self.elements):
            if e == fn:
                return i
        raise ValueError("group is not closed under products")

    def _verify(self) -> list[list[int]]:
        k = len(self.elements)
        for i, e in enumerate(self.elements):
            if not e.even:
                raise ValueError(f"element {i} is not even")
            if i != self.identity and not e.mean_zero:
                raise ValueError(f"non-identity element {i} is not mean zero")
            if e(0):
                raise ValueError(f"element {i} does not vanish at 0 mod N")
        table = [[self._index_of(pf_mul(a, b)) for b in self.elements] for a in self.elements]
        for i in range(k):
            if self.identity not in table[i]:
                raise ValueError(f"element {i} has no inverse")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if table[table[i][j]][l] != table[i][table[j][l]]:
                        raise ValueError("product table is not associative")
        return table

    def __len__(self) -> int:
        return len(self.elements)

    def fingerprint(self) -> tuple:
        return self._fingerprint

    def product_index(self, i: int, j: int) -> int:
        return self._table[i][j]

    def element_order(self, i: int) -> int:
        order, j = 1, i
        while j != self.identity:
            j = self._table[j][i]
            order += 1
        return order

    def generator_index(self) -> int:
        """Index of a fixed generator when the group is cyclic."""
        k = len(self.elements)
        for i in range(k):
            if self.element_order(i) == k:
                return i
        raise ValueError("twist group is not cyclic")

    @property
    def is_cyclic(self) -> bool:
        try:
            self.generator_index()
            return True
        except ValueError:
            return False


@lru_cache(maxsize=None)
def even_twist_group(N: int) -> TwistGroup:
    """The order-(N-1)/2 cyclic twist group of period N, N odd and >= 3.

    For N an odd prime this is the group of even Dirichlet characters mod N.
    For composite odd N it is the folded power family f_s with f_s(u) =
    theta^{su} on 1..k, reflected evenly, zero at multiples of N.
    """
    if N % 2 == 0 or N < 3:
        raise ValueError("unsupported period")
    if factorize(N) == [(N, 1)]:
        evens = [chi for chi in dirichlet_characters(N) if chi.even]
        return TwistGroup(N, evens)
    return folded_power_family(N)


@lru_cache(maxsize=None)
def folded_power_family(N: int) -> TwistGroup:
    """Group {f_s} of period N: f_s(u) = theta^{su} for 1 <= u <= k,
    f_s(N-u) = f_s(u), f_s(N) = 0, with theta a primitive k-th root of
    unity and k = (N-1)/2.  Defined for odd N >= 3; cyclic of order k."""
    if N % 2 == 0 or N < 3:
        raise ValueError("unsupported period")
    k = (N - 1) // 2
    theta = zeta(k)
    fns = []
    for s in range(1, k + 1):
        values: list = [None] * N
        for u in range(1, k + 1):
            v = theta**((s * u) % k) if k > 1 else rat(1)
            values[u - 1] = v
            values[N - u - 1] = v
        values[N - 1] = rat(0)
        fns.append(PeriodicFn(N, values))
    return TwistGroup(N, fns)


# ---------------------------------------------------------------------------
# Kronecker symbol and the quadratic-field twist group


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), implemented from scratch via reciprocity."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi loop on odd positive n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def quadratic_discriminant(m: int) -> int:
    """Fundamental discriminant of Q(sqrt(m)) for squarefree m."""
    return m if m % 4 == 1 else 4 * m


def quadratic_field_group(m: int) -> TwistGroup:
    """Order-2 twist group {1, chi_D} attached to the real field Q(sqrt m).

    chi_D is the quadratic character of the fundamental discriminant D,
    evaluated through the Kronecker symbol; it is verified even.
    """
    if m <= 0:
        raise ValueError("field not totally real")
    if m == 1:
        raise ValueError("m must exceed 1")
    if any(e > 1 for _, e in factorize(m)):
        raise ValueError("m must be squarefree")
    D = quadratic_discriminant(m)
    N = abs(D)
    chi = PeriodicFn(N, [rat(kronecker_symbol(D, k)) for k in range(1, N + 1)])
    if not chi.even:
        raise AssertionError("quadratic character of a real field must be even")
    triv = PeriodicFn(
        N, [rat(1) if math.gcd(k, N) == 1 else rat(0) for k in range(1, N + 1)]
    )
    return TwistGroup(N, [triv, chi])
