"""Truncated Fock space with exact oscillator algebra.

A state is an integer partition held as one int, its key sum_u m_u 256^(u-1)
with m_u the multiplicity of the part u: one byte per part size, as a state
has degree <= MAX_BASIS_DEGREE < 256.  Adding a part u adds the key of (u,),
moving u to u - M adds one delta, and the key's bytes are the m_u.
a_{-n} creates mode n with coefficient 1 and a_n destroys it with
coefficient n * multiplicity, so [a_m, a_n] = m delta_{m,-n} with a_0 acting
as zero.  Operators are lazy exact column maps: applying one to a state is a
finite sum.  A `BilinearOp` column is translation invariant, each entry
adding a fixed delta to its state q, so its kernel, a closure compiled once
per ring from the record `_kernel` (`BilinearOp._relative`), gives the
column relative to q, {delta: value}.  The record reads the double creations
off `_term_action` on the vacuum and the double annihilations of u and M - u
off it on the probe state (u, M - u), per unit of m_u m_{M-u}, so the
kernel calls no term on a state; `icolumn` adds q to each delta, and
descending tuples appear only at the boundary: `Operator.column`,
`basis_partitions`, every witness, and the norm check (`weight_mismatch`),
which hands one per state to `partition_weight`.  One depth-first walk
(`_walk`) enumerates the states with their degree and largest part u, each
its parent p plus a part u >= p's largest; the sweeps' windows are its states
sorted by degree (`commutator_window`).  `_diagonal_counts` prunes it at
the first part outside a residue set and counts the states by their vector
of P_0^(r) eigenvalues, which `qtrace` and the transpose n = 0 count weight.

An identity is decided in one of two ways.  The `verify_*` functions and
`scaling_embed_check` sweep it: both sides are applied to every state of
degree <= D - (the shifts) and compared exactly, so the cutoff D bounds the
states swept; they are the tests' reference.  The `certify_*` functions,
which the report's identity rows and `fock verify` ids use, prove it on the
whole Fock space by normal-ordering calculus: every operator involved is a
quadratic form sum_j c(j) :a_{-j} a_{j+M}: plus modes and a scalar,
[Q, a_x] = -x s(x) a_{x+M} with s(x) = c(x) + c(-x-M), and two such forms are equal
exactly when their symmetrised coefficients s, their modes and their vacuum
scalars are (`_form`, `_mismatch`).  Each s is periodic times polynomial in
x, held as a function of x with its period and a bound d on its degree, and
a form is one rational scale times values in Z[zeta_m], as a column is: the
calculus runs on ring operations, d + 2 points per residue decide s for
every x, and scalars appear only where a form is built and a witness named.
A certified suite reads no column.  A report row of its own
(`representation_suite`) ties the column code to that representation: each
residue-pair operator's integer table times its scale is the c of its form,
and its columns satisfy Q a_{-u} = a_{-u} Q + [Q, a_{-u}] on degree
<= D - |M|, one kernel call per state in `_walk`'s order
(`_check_representation`, one loop for every shift).  The transpose
identity is certified the same way: a_x^dagger = a_{-x} sends the form at
shift M to shift -M with s^dagger(x) = conj(s(x - M)) (`_adjoint`), and
the norm `partition_weight` is checked on the states by <0|0> = 1 and
<q|q> = v <p|p> where a_u|q> = v|p>, u the largest part and v = u m_u(q)
read off the key, so that row builds no column either; its entry count
is read off the kernel records of the P_n^(r), as L_n^f = sum_r f(r) P_n^(r).

There is one bilinear operator, `BilinearOp`, with no mode scale.  The
mode-scaled operators (1/l) tau_l(L_n^chi) of the paper are `build_L` of
the dilated twist chi.dilate(l), which is chi(y/l) at modes y divisible by l
and 0 elsewhere, of period lN; its central values are chi's, since
L(-1, chi.dilate(l)) = l L(-1, chi).  So `certify_scaling_suite` certifies
them as it would any twist.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import warnings
from functools import lru_cache, partial, reduce
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from ltwist.characters import PeriodicFn, TwistGroup, even_twist_group, pf_mul
from ltwist.exactnum import (
    CycloRing, Scalar, cyclo_ring, is_rational, rat, scalar_parts, zeta,
)
from ltwist.lvalues import l_minus_one, l_minus_one_form

MAX_BASIS_DEGREE = 60


def check_cutoff(D: int, name: str = "cutoff") -> None:
    """Reject a top degree outside 0..MAX_BASIS_DEGREE, calling it `name`:
    the one bound on the cutoff a user gives to `report`, `fock verify` or
    `fock qtrace`."""
    if not 0 <= D <= MAX_BASIS_DEGREE:
        raise ValueError(f"{name} must lie in 0..{MAX_BASIS_DEGREE}")


Partition = tuple  # descending tuple of positive ints

# A state is one int, its key sum_u m_u 256^(u-1), m_u the multiplicity of
# the part u: a state of degree <= MAX_BASIS_DEGREE has every m_u < 256.
_UNIT = (0,) + tuple(1 << 8 * u for u in range(MAX_BASIS_DEGREE))  # key of (u,)
_NONE = MappingProxyType({})  # a form's shifts or modes when it has none


def _key(p: Partition) -> int:
    """The key of a partition; a state beyond the cutoff cap is refused."""
    if sum(p) > MAX_BASIS_DEGREE or min(p, default=1) < 1:
        raise ValueError(f"a state is a partition of degree <= {MAX_BASIS_DEGREE}")
    return sum(map(_UNIT.__getitem__, p))


def _partition(q: int) -> Partition:
    """The descending partition of a key."""
    m = q.to_bytes((q.bit_length() + 7) // 8, "little")
    return tuple(u for u in range(len(m), 0, -1) for _ in range(m[u - 1]))


def _walk(top: int, visit) -> Optional[tuple]:
    """Call visit(q, degree, u, value) on the keys q of the partitions of
    degree <= top depth-first, u being q's largest part (0 for the vacuum)
    and value what visit returned at the parent, q less one part u (the
    children of p add a part v >= p's largest); it returns (witness,
    value).  The first witness that is not None ends the walk, and a value
    None skips the children of q, which all keep q's parts."""
    def walk(q: int, degree: int, u: int, parent) -> Optional[tuple]:
        bad, value = visit(q, degree, u, parent)
        if value is None:
            return bad
        v = u or 1
        while bad is None and v <= top - degree:
            bad = walk(q + _UNIT[v], degree + v, v, value)
            v += 1
        return bad

    return walk(0, 0, 0, None)


@lru_cache(maxsize=None)
def _basis_by_degree(D: int) -> tuple:
    """The keys of degree <= D in basis order: by degree, then by the
    partitions' lexicographic order, which within a degree is the keys';
    the states of `_walk`, sorted."""
    check_cutoff(D)
    states: list = []

    def visit(q: int, degree: int, u: int, parent) -> tuple:
        states.append((degree, q))
        return None, q

    _walk(D, visit)
    states.sort()
    return tuple(q for _, q in states)


def basis_partitions(D: int) -> list[Partition]:
    return [_partition(q) for q in _basis_by_degree(D)]


def partition_weight(p: Partition) -> int:
    """Symmetry factor prod_j j^{m_j} m_j! of a partition."""
    return math.prod(u ** (k := p.count(u)) * math.factorial(k) for u in set(p))


# ---------------------------------------------------------------------------
# state surgery on keys


def _remove_part(q: int, u: int):
    """(multiplicity, q less one part u), or None if u is not a part."""
    mult = q >> 8 * (u - 1) & 255
    return (mult, q - (1 << 8 * (u - 1))) if mult else None


def _term_action(q: int, j: int, M: int):
    """Action of the normal-ordered pair :a_{-j} a_{j+M}: on a state.

    Returns (integer coefficient, new state) or None.  Annihilators act
    first; a zero mode kills the term.
    """
    jM = j + M
    if j == 0 or jM == 0:
        return None
    if j > 0:
        if jM > 0:
            hit = _remove_part(q, jM)
            return None if hit is None else (jM * hit[0], hit[1] + (1 << 8 * (j - 1)))
        # double creation
        return 1, q + (1 << 8 * (j - 1)) + (1 << 8 * (-jM - 1))
    if jM < 0:
        hit = _remove_part(q, -j)
        return None if hit is None else (-j * hit[0], hit[1] + (1 << 8 * (-jM - 1)))
    # double annihilation: right factor a_{j+M} first
    hit = _remove_part(q, jM)
    if hit is None:
        return None
    mult2, rest = hit
    hit2 = _remove_part(rest, -j)
    if hit2 is None:
        return None
    mult1, rest2 = hit2
    return jM * mult2 * -j * mult1, rest2


# ---------------------------------------------------------------------------
# operator algebra (lazy exact columns)


class Operator:
    """Exact linear operator given by columns on the Fock states.

    Every column is `scale` (a Rat) times an integer column:
    `icolumn(q, ring)` maps the keys of output states to algebraic integers
    of `ring`, which is Z[zeta_m] for any multiple m of the operator's
    `order`.  The sweeps compose and compare integer columns and meet
    rationals only in the scales; `column` gives the scalar values on
    partitions.
    """

    order: int = 1
    scale = rat(1)

    def icolumn(self, q: int, ring: CycloRing) -> dict:
        raise NotImplementedError

    def column(self, p: Partition) -> dict:
        """{out_state: nonzero scalar value} for one input state."""
        ring = cyclo_ring(self.order)
        col = self.icolumn(_key(p), ring)
        return {_partition(t): ring.to_scalar(v, self.scale)
                for t, v in col.items() if not ring.is_zero(v)}

    def apply_icolumn(self, col: dict, ring: CycloRing) -> dict:
        """This operator applied to an integer column held in `ring`."""
        # this loop is the sweeps' innermost one
        out: dict = {}
        add, mul, icolumn = ring.add, ring.mul, self.icolumn
        for t, c in col.items():
            for u, v in icolumn(t, ring).items():
                x = mul(c, v)
                out[u] = x if (old := out.get(u)) is None else add(old, x)
        return out

    def matrix_equal(self, other: "Operator", states: Sequence[int]):
        """First differing (state, out_state, got, want) or None, the
        states given as keys and named as partitions.

        Both sides are compared as integer columns at a common denominator.
        """
        ring = cyclo_ring(math.lcm(self.order, other.order))
        a, b = _cross_factors(self.scale, other.scale)
        smul, zero = ring.smul, ring.zero
        for s in states:
            x_col, y_col = self.icolumn(s, ring), other.icolumn(s, ring)
            bad = None
            for t, x in x_col.items():
                if smul(x, a) != smul(y_col.get(t, zero), b):
                    bad = t
                    break
            else:
                for t, y in y_col.items():
                    if t not in x_col and not ring.is_zero(y):
                        bad = t
                        break
            if bad is not None:
                return (
                    _partition(s),
                    _partition(bad),
                    ring.to_scalar(x_col.get(bad, zero), self.scale),
                    ring.to_scalar(y_col.get(bad, zero), other.scale),
                )
        return None


def _cross_factors(x, y) -> tuple[int, int]:
    """Coprime integers a, b with x * u == y * v exactly when a * u == b * v."""
    a = x.numerator * y.denominator
    b = y.numerator * x.denominator
    g = math.gcd(a, b) or 1
    return a // g, b // g


class _OverDenominator:
    """Scalars written as algebraic integers over one positive denominator.

    `den` is the least common denominator and `scale` its inverse;
    `elements(ring)` gives the numerators as a tuple of elements of any ring
    Z[zeta_m] with `order` | m, converted once per ring and shared.
    """

    def __init__(self, values: list):
        parts = [scalar_parts(v) for v in values]
        self.order = math.lcm(1, *(order for order, _, _ in parts))
        self.den = math.lcm(1, *(den for _, _, den in parts))
        self.scale = rat(1, self.den)
        self._values = values
        self._by_ring: dict = {}

    def elements(self, ring: CycloRing) -> tuple:
        hit = self._by_ring.get(ring)
        if hit is None:
            hit = self._by_ring[ring] = tuple(ring.smul(x, self.den // den)
                                              for x, den in map(ring.from_scalar, self._values))
        return hit


class BilinearOp(Operator):
    """prefactor * sum_j coeff(j) :a_{-j} a_{j+M}: with N-periodic coeff.

    The coefficient table is held as algebraic integers over one common
    denominator, which moves into `scale` with the prefactor.  The instance
    keeps its compiled kernel and its form per ring, never a column or a
    check's outcome; reuse instances via build_L/build_T, which keep a
    registry keyed by the twist function's value table.
    """

    def __init__(self, coeff: PeriodicFn, M: int, prefactor):
        self.coeff = coeff
        self.M = M
        self.prefactor = rat(prefactor)
        N = coeff.period
        values = [coeff(r) for r in range(N)]
        self._table = _OverDenominator(values)
        self.order = self._table.order
        self.scale = self.prefactor / self._table.den
        self._N = N
        self._kernels: dict = {}  # ring -> `_kernel`
        self._forms: dict = {}  # ring -> its read-only `_Form`, built on first use

    def _moves(self, ring: CycloRing) -> list:
        """For each residue u mod N, the summed coefficient c(u - M) + c(-u)
        of the two terms that move one part u to u - M, as an element of
        `ring`, or None where it is zero."""
        M, N = self.M, self._N
        table = self._table.elements(ring)
        sums = [ring.add(table[(u - M) % N], table[-u % N]) for u in range(N)]
        return [None if ring.is_zero(c) else c for c in sums]

    def _creations(self, ring: CycloRing) -> list:
        """(t, c): the terms j and -M - j, 0 < j < -M, create the parts with
        key t and summed coefficient c on every state, as they do on the
        vacuum; the zero sums are dropped."""
        M, N = self.M, self._N
        table = self._table.elements(ring)
        sums: dict = {}
        for j in range(1, -M):
            k, t = _term_action(0, j, M)
            c = ring.smul(table[j % N], k)
            sums[t] = ring.add(sums[t], c) if t in sums else c
        return [(t, c) for t, c in sums.items() if not ring.is_zero(c)]

    def _kernel(self, ring: CycloRing) -> tuple:
        """(moves, start, pairs, creations) in `ring`, for parts u <=
        MAX_BASIS_DEGREE.  Off the diagonal the moves are (u, key delta,
        u (c(u - M) + c(-u))) for the u that move to u - M > 0 with a nonzero
        sum, by descending u, and moves[start[n]:] those with u <= n; on it
        they are (mask, c(u) + c(-u)), the mask covering the bytes of the u
        with that sum.  pairs (M > 0) are (u, M - u, c), u >= M - u, by
        descending u: the terms j = u - M and j = -u both annihilate the
        parts u and M - u, and c is their summed coefficient per unit of
        m_u m_{M-u} (of m_u (m_u - 1) / 2 when 2u = M), read off their action
        on the probe state (u, M - u), as the creations are off the vacuum;
        the zero sums are dropped."""
        M, N = self.M, self._N
        moves = self._moves(ring)
        kept = [u for u in range(MAX_BASIS_DEGREE, 0, -1) if u > M and moves[u % N] is not None]
        if not M:  # one mask of the bytes of the parts u per value of c(u) + c(-u)
            masks: dict = {}
            for u in kept:
                masks[moves[u % N]] = masks.get(moves[u % N], 0) | 255 << 8 * (u - 1)
            return [(mask, c) for c, mask in masks.items()], (), [], []
        start = tuple(bisect.bisect_left(kept, -n, key=operator.neg)  # the u > n
                      for n in range(MAX_BASIS_DEGREE + 1))
        table, pairs = self._table.elements(ring), []
        for u in range(min(M - 1, MAX_BASIS_DEGREE), (M - 1) // 2, -1):
            probe, c = _UNIT[u] + _UNIT[M - u], ring.zero
            for j in {u - M, -u}:  # one term when 2u = M
                k, _ = _term_action(probe, j, M)
                c = ring.add(c, ring.smul(table[j % N], k))
            if not ring.is_zero(c):
                pairs.append((u, M - u, c))
        moves = [(u, (1 << 8 * (u - M - 1)) - _UNIT[u], ring.smul(moves[u % N], u))
                 for u in kept]
        return moves, start, pairs, self._creations(ring)

    def _relative(self, ring: CycloRing):
        """The kernel in `ring`, compiled from `_kernel(ring)` on first use:
        a closure q -> the integer column of q relative to q, {key delta:
        value}, so no entry pays for an add of q.  Every entry is a record's
        coefficient times multiplicities read off q's bytes: the closure
        calls no `_term_action`, whose probes built the record."""
        column = self._kernels.get(ring)
        if column is not None:
            return column
        # m_u is byte u - 1 of the key.  Off the diagonal each part size u of
        # the moves that q has moves one u to u - M; a pair (u, v) annihilates
        # u and v = M - u, m_u m_v times its unit (m_u (m_u - 1) / 2 when u = v),
        # and only a key with a byte under the pairs' mask is scanned; the
        # terms 0 < j < -M create two parts.  On the diagonal, sum_u m_u u
        # (c(u) + c(-u)): as 256 = 1 + 255, the parts under a mask have degree
        # sum_u m_u (1 + 255 (u - 1)) mod 255^2 (degree < 255).
        moves, start, pairs, creations = self._kernel(ring)
        M, add, smul, zero = self.M, ring.add, ring.smul, ring.zero
        if M:  # per byte length n of a key, its moves (the byte of m_u, delta, c), u <= n
            moves = tuple((u - 1, delta, c) for u, delta, c in moves)
            by_length = tuple(moves[start[n]:] for n in range(MAX_BASIS_DEGREE + 1))
            creations, paired = dict(creations), sum(255 << 8 * (u - 1) for u, _, _ in pairs)
            pairs = tuple((u - 1, v - 1, int(u == v), -_UNIT[u] - _UNIT[v], c)
                          for u, v, c in pairs)

            def column(q: int) -> dict:  # the pairs read the bytes of the parts < M too
                n, out = (q.bit_length() + 7) >> 3, {}
                m = q.to_bytes(n if n >= M else M - 1, "little")
                for i, delta, c in by_length[n]:
                    if k := m[i]:
                        out[delta] = smul(c, k)
                out.update(creations)
                if q & paired:
                    for a, b, same, delta, c in pairs:
                        if k := m[a] * (m[b] - same) >> same:
                            out[delta] = smul(c, k)
                return out
        elif ring.degree == 1 and len(moves) == 1:  # in Z: c times a degree > 0
            ((mask, c),) = moves

            def column(q: int) -> dict:
                x = (q & mask) % 65025
                return {0: c * (x // 255 + x % 255)} if x else {}
        else:
            def column(q: int) -> dict:
                acc = zero
                for mask, c in moves:
                    if x := (q & mask) % 65025:
                        acc = add(acc, smul(c, x // 255 + x % 255))
                return {} if acc == zero else {0: acc}
        self._kernels[ring] = column
        return column

    def icolumn(self, q: int, ring: CycloRing) -> dict:
        """The integer column of q on keys, a new dict: the kernel's, shifted
        by q.  The sweeps ask once per column, so `_kernels` is read without
        a call."""
        column = self._kernels.get(ring) or self._relative(ring)
        return {q + delta: v for delta, v in column(q).items()}


class ModeOp(Operator):
    """Single oscillator a_k; a_0 is the zero operator."""

    def __init__(self, k: int):
        self.k = k

    def icolumn(self, q: int, ring: CycloRing) -> dict:
        k = self.k
        if k == 0:
            return {}
        if k < 0:
            return {q + (1 << 8 * (-k - 1)): ring.one}
        hit = _remove_part(q, k)  # a_k annihilates with k * mult
        return {} if hit is None else {hit[1]: ring.from_int(k * hit[0])}


class ScalarOp(Operator):
    def __init__(self, value):
        self._value = _OverDenominator([value])
        self.order, self.scale = self._value.order, self._value.scale

    def icolumn(self, q: int, ring: CycloRing) -> dict:
        return {q: self._value.elements(ring)[0]}


class SumOp(Operator):
    """sum_i c_i op_i: the weights c_i op_i.scale over one common denominator."""

    def __init__(self, terms):
        self.terms = [(c, op) for c, op in terms]
        live = [(c, op) for c, op in self.terms if c]
        self._ops = [op for _, op in live]
        self._weights = _OverDenominator([c * op.scale for c, op in live])
        self.order = math.lcm(self._weights.order, *(op.order for op in self._ops))
        self.scale = self._weights.scale

    def icolumn(self, q: int, ring: CycloRing) -> dict:
        out: dict = {}
        add, mul = ring.add, ring.mul
        for w, op in zip(self._weights.elements(ring), self._ops):
            for t, v in op.icolumn(q, ring).items():
                x = mul(w, v)
                out[t] = x if (old := out.get(t)) is None else add(old, x)
        return out


class CommutatorOp(Operator):
    """Exact columns of A B - B A."""

    def __init__(self, A: Operator, B: Operator):
        self.A = A
        self.B = B
        self.order = math.lcm(A.order, B.order)
        self.scale = A.scale * B.scale

    def icolumn(self, q: int, ring: CycloRing) -> dict:
        ab = self.A.apply_icolumn(self.B.icolumn(q, ring), ring)
        ba = self.B.apply_icolumn(self.A.icolumn(q, ring), ring)
        sub, neg = ring.sub, ring.neg
        for k, v in ba.items():
            old = ab.get(k)
            ab[k] = neg(v) if old is None else sub(old, v)
        return ab


def _window_budget(D: int, *shift_budgets: int) -> int:
    """The top input degree D - sum |shifts| of a commutator window; an
    empty window is an error, checked before `check_cutoff`'s bound."""
    budget = D - sum(abs(b) for b in shift_budgets)
    if budget < 0:
        raise ValueError("cutoff too small")
    check_cutoff(D)
    return budget


def commutator_window(D: int, *shift_budgets: int) -> list[int]:
    """The keys of input degrees d <= D - sum |shifts|; empty window is an
    error.  The basis is ordered by degree, so this is a prefix of the keys
    of basis_partitions(D)."""
    return list(_basis_by_degree(_window_budget(D, *shift_budgets)))


# ---------------------------------------------------------------------------
# normal-ordering calculus


class _Form(NamedTuple):
    """An operator of degree <= 2 in the modes, exactly on the Fock space,
    as `scale` (a Rat) times a form with entries in `ring`, as columns are.

    `quad` maps a shift M to a bilinear sum_j c(j) :a_{-j} a_{j+M}:, held
    as (period, degree, s): its symmetrised coefficient s(x) = c(x) +
    c(-x-M), a function from x to `ring` (meaningful for x != 0, -M) that
    is a polynomial of degree <= `degree` in x on each residue class mod
    `period`.  `lin` maps x to the weight of a_x (x != 0); `z` is the
    scalar part.  Since [Q, a_x] = -x s(x) a_{x+M}, an operator of this
    kind commuting with every a_x is a scalar, so two forms are equal as
    operators exactly when their s, weights and scalars are.  Forms are
    never changed and share their functions; `_form` caches one per
    bilinear and ring."""

    ring: CycloRing
    scale: object
    quad: Mapping
    lin: Mapping
    z: object


def _form(op: Operator, ring: CycloRing) -> _Form:
    """The form in `ring` of a BilinearOp (from its coefficient, not its
    columns' table; once per ring), ModeOp, ScalarOp, SumOp or CommutatorOp.
    Scalars enter here, by `ring.from_scalar`; a one-term sum with a
    rational weight c is its operand's form at c times its scale."""
    if isinstance(op, BilinearOp):
        if (form := op._forms.get(ring)) is None:  # c(x) + c(-x - M) over its scale
            c, M = op.coeff, op.M
            sym = _OverDenominator([c(x) + c(-x - M) for x in range(c.period)])
            form = op._forms[ring] = _Form(ring, op.prefactor * sym.scale, MappingProxyType(
                {M: (c.period, 0, _lookup(sym.elements(ring)))}), _NONE, ring.zero)
        return form
    if isinstance(op, ModeOp):
        return _Form(ring, op.scale, _NONE, {op.k: ring.one} if op.k else _NONE, ring.zero)
    if isinstance(op, ScalarOp):
        return _Form(ring, op.scale, _NONE, _NONE, op._value.elements(ring)[0])
    if isinstance(op, SumOp):
        forms = [_form(o, ring) for _, o in op.terms]
        weights = [c * f.scale for (c, _), f in zip(op.terms, forms)]
        if len(forms) == 1 and weights[0] and (w := is_rational(weights[0])) is not None:
            return _Form(ring, w, forms[0].quad, forms[0].lin, forms[0].z)
        weights = _OverDenominator(weights)
        return _combine(weights.scale, zip(weights.elements(ring), forms), ring)
    if isinstance(op, CommutatorOp):
        return _bracket(_form(op.A, ring), _form(op.B, ring))
    raise TypeError(f"no normal-ordering form for {type(op).__name__}")


def _lookup(values: tuple):
    """x -> values[x mod len(values)]: a periodic s of degree 0."""
    return lambda x: values[x % len(values)]


def _after(g, s, shift: int):
    """x -> g(s(x + shift))."""
    return lambda x: g(s(x + shift))


def _sum(parts: list, add) -> tuple:
    """The (period, degree, s) of the sum of the (period, degree, s) `parts`:
    the lcm of their periods and the max of their degrees."""
    if len(parts) == 1:
        return parts[0]
    return (math.lcm(*(p for p, _, _ in parts)), max(d for _, d, _ in parts),
            lambda x: reduce(add, [s(x) for _, _, s in parts]))


def _jacobi(s1, M1: int, s2, M2: int, ring: CycloRing):
    """x -> 2 ((x + M1) s1(x) s2(x + M1) - (x + M2) s2(x) s1(x + M2)), the
    doubled symmetrised coefficient of [Q1, Q2]."""
    mul, smul, sub = ring.mul, ring.smul, ring.sub
    return lambda x: sub(smul(mul(s1(x), s2(x + M1)), 2 * (x + M1)),
                         smul(mul(s2(x), s1(x + M2)), 2 * (x + M2)))


def _combine(scale, terms, ring: CycloRing) -> _Form:
    """scale * sum_i w_i f_i for the pairs (w_i, f_i) of `terms`, w_i an
    element of `ring` and f_i a form in it, f_i.scale folded into w_i."""
    add, mul = ring.add, ring.mul
    quad, lin, z = {}, {}, ring.zero
    for w, f in terms:
        for M, (period, degree, s) in f.quad.items():
            quad.setdefault(M, []).append((period, degree, _after(partial(mul, w), s, 0)))
        for x, v in f.lin.items():
            lin[x] = add(lin[x], mul(w, v)) if x in lin else mul(w, v)
        z = add(z, mul(w, f.z))
    return _Form(ring, scale, {M: _sum(parts, add) for M, parts in quad.items()}, lin, z)


def _bracket(f1: _Form, f2: _Form) -> _Form:
    """[f1, f2] by the rules [Q, a_x] = -x s(x) a_{x+M}, [a_x, a_y] =
    x delta_{x+y,0}, [Q1, Q2] by Jacobi and, at M1 + M2 = 0, the vacuum
    scalar <0|[Q1, Q2]|0> = (1/2) sum_{0<p<M1} p (M1-p) s1(-p) s2(p) when
    M1 > 0 (minus the same sum with the roles of -p and p swapped when
    M1 < 0).  The Jacobi coefficient's x-term is x (s1 D2 - s2 D1), with
    D2(x) = s2(x + M1) - s2(x) and D1(x) = s1(x + M2) - s1(x).  When p2 | M1,
    x and x + M1 lie in one residue class, so D2 has degree d2 - 1, and
    likewise D1 when p1 | M2: the coefficient has degree d1 + d2 when both
    hold, and d1 + d2 + 1 otherwise.  The 1/2 goes into the scale, half
    f1's times f2's, all else doubled."""
    ring = f1.ring
    add, mul, smul = ring.add, ring.mul, ring.smul
    quad, lin, z = {}, {}, ring.zero

    def put(x: int, w) -> None:
        if x:  # a_0 = 0
            lin[x] = add(lin[x], w) if x in lin else w

    for M1, (p1, d1, s1) in f1.quad.items():
        for M2, (p2, d2, s2) in f2.quad.items():
            quad.setdefault(M1 + M2, []).append((math.lcm(p1, p2), d1 + d2 + bool(
                M1 % p2 or M2 % p1), _jacobi(s1, M1, s2, M2, ring)))
            if M1 + M2 == 0:
                e = 1 if M1 > 0 else -1  # p runs over 0 < p < |M1|
                for p in range(1, e * M1):
                    z = add(z, smul(mul(s1(-e * p), s2(e * p)), e * p * (e * M1 - p)))
        for x, w in f2.lin.items():
            put(x + M1, smul(mul(w, s1(x)), -2 * x))
    for x, w in f1.lin.items():
        for M2, (_, _, s2) in f2.quad.items():
            put(x + M2, smul(mul(w, s2(x)), 2 * x))
        for y, v in f2.lin.items():
            if x + y == 0:
                z = add(z, smul(mul(w, v), 2 * x))
    return _Form(ring, f1.scale * f2.scale / 2,
                 {M: _sum(parts, add) for M, parts in quad.items()}, lin, z)


def _mismatch(lhs: _Form, rhs: _Form) -> Optional[tuple]:
    """(x, got, want) at the first x where the symmetrised coefficients or
    the mode weights of two forms of one ring differ, ("central", got,
    want) when only their scalars do, or None when the operators are equal.
    Entries are compared at a common denominator.  Two coefficients of
    degree <= d on the residues mod a period P are compared at x = 1 ...
    (d + 2) P, sparing x = -M: d + 1 points or more per residue, which fix
    a polynomial of degree <= d, so they decide every x.  Scalars leave by
    `ring.to_scalar`, a missing shift reading as 0."""
    ring = lhs.ring
    smul, zero, to_scalar = ring.smul, ring.zero, ring.to_scalar
    a, b = _cross_factors(lhs.scale, rhs.scale)
    none = (1, 0, lambda x: zero)
    for M in sorted(set(lhs.quad) | set(rhs.quad)):
        (p, d, s), (q, e, t) = lhs.quad.get(M, none), rhs.quad.get(M, none)
        for x in range(1, (max(d, e) + 2) * math.lcm(p, q) + 1):
            if x != -M and smul(got := s(x), a) != smul(want := t(x), b):
                return (x, to_scalar(got, lhs.scale) if M in lhs.quad else 0,
                        to_scalar(want, rhs.scale) if M in rhs.quad else 0)
    for x in sorted(set(lhs.lin) | set(rhs.lin)):
        got, want = lhs.lin.get(x, zero), rhs.lin.get(x, zero)
        if smul(got, a) != smul(want, b):
            return (x, to_scalar(got, lhs.scale), to_scalar(want, rhs.scale))
    if smul(lhs.z, a) != smul(rhs.z, b):
        return ("central", to_scalar(lhs.z, lhs.scale), to_scalar(rhs.z, rhs.scale))
    return None


def _adjoint(f: _Form) -> _Form:
    """f^dagger for a_x^dagger = a_{-x}: (:a_{-j} a_{j+M}:)^dagger =
    :a_{-(j+M)} a_j:, so shift M goes to -M with s^dagger(x) = conj(s(x - M)),
    weight w on a_x to conj(w) on a_{-x}, z to conj(z), the scale kept."""
    conj = f.ring.conj
    quad = {-M: (period, degree, _after(conj, s, -M))
            for M, (period, degree, s) in f.quad.items()}
    return _Form(f.ring, f.scale, quad, {-x: conj(w) for x, w in f.lin.items()}, conj(f.z))


def _certify(lhs: Operator, rhs: Operator) -> VerifyResult:
    """lhs == rhs on the whole Fock space, by their forms in one ring."""
    ring = cyclo_ring(math.lcm(lhs.order, rhs.order))
    witness = _mismatch(_form(lhs, ring), _form(rhs, ring))
    return VerifyResult(witness is None, 1, witness)


def _check_representation(op: BilinearOp, D: int) -> Optional[tuple]:
    """First (state, out_state, got, want) at which the columns of `op`
    differ from its Fock representation on the states of degree
    <= D - |M|, in the depth-first order of `_walk`, or None.

    By induction on the parts, on columns relative to their state: the
    vacuum column must be sum_{0<j<-M} c(j) a_{-j} a_{j+M}|0>, and for
    q = (u,) + p with u the largest part, col(q) = col(p) + u s(-u)
    a_{M-u}|p>, which is Q a_{-u} = a_{-u} Q + [Q, a_{-u}].  The steps
    u s(-u) come from the table (`_table_steps`), not the kernel's record;
    the table times `op.scale` must first be prefactor * c, the
    coefficients `_form` certifies, else ("table", r, got, want) names the
    residue r.  A loop over the children p + (v,), v >= u, of each state p
    calls the kernel (`BilinearOp._relative`) once per state, keeping only
    the columns on the current path; every shift M takes this loop, M = 0
    with every step onto the key delta 0 and the empty vacuum column.
    """
    M, N = op.M, op._N
    top = _window_budget(D, M)
    ring = cyclo_ring(op.order)
    bad, steps = _table_steps(op, ring, top)
    if bad is not None:
        return bad
    table, vacuum = op._table.elements(ring), {}
    add, smul, zero = ring.add, ring.smul, ring.zero
    for j in range(1, -M):  # the term j creates the parts j and -M - j
        t = _UNIT[j] + _UNIT[-M - j]
        vacuum[t] = add(vacuum.get(t, zero), table[j % N])
    vacuum = {t: v for t, v in vacuum.items() if v != zero}
    column, scale = op._relative(ring), op.scale

    def children(p: int, degree: int, u: int, col: dict) -> Optional[tuple]:
        # the children of p, whose column is col, and theirs, depth-first
        room = top - degree
        for v in range(u or 1, room + 1):
            q, d = p + _UNIT[v], degree + v
            got = column(q)
            want, s = col, steps[v]
            if s is not None and (s[1] is None or (k := p >> s[1] & 255)):
                c, shift, t = s
                want = col.copy()
                want[t] = x = add(want.get(t, zero), c if shift is None else smul(c, k))
                if x == zero:
                    del want[t]
            if got != want:
                return _difference(q, got, want, ring, scale)
            if 2 * v <= room and (bad := children(q, d, v, got)) is not None:
                return bad
        return None

    got = column(0)
    return _difference(0, got, vacuum, ring, scale) if got != vacuum else children(0, 0, 0, got)


def _table_steps(op: BilinearOp, ring: CycloRing, top: int) -> tuple:
    """(witness, steps): ("table", r, got, want) at the first residue r
    where the integer table of `op` times its scale is not prefactor * c(r),
    or None; and steps[v], v <= top, the term [Q, a_{-v}] = c a_k of that
    table, c = v s(-v) and k = M - v, as it acts on the column of p relative
    to q = (v,) + p: (c, None, key delta) where a_k creates (k < 0), (c k,
    8 (k - 1), key delta) where it annihilates, times m_k(p) = p >> 8 (k - 1)
    & 255, and None where it is zero (c = 0 or k = 0)."""
    M, N = op.M, op._N
    table = op._table.elements(ring)
    for r in range(N):
        got, want = ring.to_scalar(table[r], op.scale), op.prefactor * op.coeff(r)
        if got != want:
            return ("table", r, got, want), None
    smul = ring.smul
    sums = (smul(ring.add(table[-v % N], table[(v - M) % N]), v) for v in range(top + 1))
    return None, [None if ring.is_zero(c) or v == M else
                  (c, None, _UNIT[v - M] - _UNIT[v]) if v > M else
                  (smul(c, M - v), 8 * (M - v - 1), -_UNIT[v] - _UNIT[M - v])
                  for v, c in enumerate(sums)]


def _difference(q: int, got: dict, want: dict, ring: CycloRing, scale) -> tuple:
    """(state, out_state, got, want) at the first key delta where two
    unequal columns of q, relative to q, differ, as partitions and scalars."""
    bad = next(t for t in [*got, *want] if got.get(t) != want.get(t))
    return (_partition(q), _partition(q + bad), ring.to_scalar(got.get(bad, ring.zero), scale),
            ring.to_scalar(want.get(bad, ring.zero), scale))


# ---------------------------------------------------------------------------
# twisted operators


_OP_REGISTRY: dict = {}


def build_L(chi: PeriodicFn, n: int) -> Operator:
    """(1/2N) sum_j chi(j) :a_{-j} a_{j + nN}: on partition states.

    chi must vanish at 0 mod N.  For odd chi the pairwise coefficients
    cancel and the zero operator comes out; a warning flags that case.
    The mode-scaled operator (1/l) tau_l(L_n^chi) is build_L(chi.dilate(l), n).
    """
    N = chi.period
    if chi(0):
        raise ValueError("twist function must vanish at 0 mod N")
    if not chi.even:
        warnings.warn("odd twist function: the operator vanishes", stacklevel=2)
    key = ("L", chi.fingerprint(), n)
    op = _OP_REGISTRY.get(key)
    if op is None:
        op = _OP_REGISTRY[key] = BilinearOp(chi, n * N, rat(1, 2 * N))
    return op


def twist_residue(G: TwistGroup, i: int) -> int:
    """The residue class j in 1..(N-1)/2 with generator(j) = omega^{k-i}."""
    k = len(G)
    if not 1 <= i <= k:
        raise ValueError("index out of range")
    gen = G.elements[G.generator_index()]
    omega = zeta(k)
    target = omega ** ((k - i) % k)
    N = G.period
    for j in range(1, N):
        if gen(j) == target:
            return min(j, N - j)
    raise ValueError("index mismatch")


@lru_cache(maxsize=None)
def pair_indicator(N: int, r: int) -> PeriodicFn:
    """The 0/1 indicator 1_r of the residues +-r mod N (the pair {r, N-r}).

    P_n^(r) = build_L(pair_indicator(N, r), n) is the residue-pair basis of
    the twisted operators: every even f with f(0) = 0 is
    sum_r f(r) 1_r over r = 1..N//2, so L_n^f = sum_r f(r) P_n^(r).
    """
    pair = (r % N, -r % N)
    return PeriodicFn(N, [rat(1) if u % N in pair else rat(0) for u in range(1, N + 1)])


def _pair_residues(N: int) -> range:
    return range(1, N // 2 + 1)


def _pair_combination(N: int, coeffs: Sequence) -> PeriodicFn:
    """sum_r coeffs[r-1] 1_r over the pair residues r, as a PeriodicFn: the
    value at u = +-r mod N is coeffs[r-1], at u = 0 it is 0."""
    by_pair = dict(zip(_pair_residues(N), coeffs))
    return PeriodicFn(N, [by_pair.get(min(u % N, -u % N), rat(0)) for u in range(1, N + 1)])


def _pair_coefficients(f: PeriodicFn) -> Optional[list]:
    """[f(r) for the pair residues r] when f == sum_r f(r) 1_r exactly, else
    None (f is not even or does not vanish at 0 mod N)."""
    coeffs = [f(r) for r in _pair_residues(f.period)]
    return coeffs if f == _pair_combination(f.period, coeffs) else None


def _component_average(G: TwistGroup, i: int, value) -> Scalar:
    """(1/k) sum_s omega^{is} value(g^s) over s = 1..k, for the generator g
    of the cyclic twist group G of order k and omega = zeta(k)."""
    k = len(G)
    omega = zeta(k)
    gen_idx = G.generator_index()
    acc: Scalar = rat(0)
    power_idx = gen_idx
    for s in range(1, k + 1):
        acc = acc + omega ** ((i * s) % k) * value(G.elements[power_idx])
        power_idx = G.product_index(power_idx, gen_idx)
    return acc * rat(1, k)


def _mode_indicator(G: TwistGroup, i: int) -> tuple[PeriodicFn, int]:
    """Indicator of residues {j, N-j} for the index-i twist component,
    verified exactly against the root-of-unity average of the generators."""
    N = G.period
    j = twist_residue(G, i)
    ind = pair_indicator(N, j)
    for u in range(N):
        if _component_average(G, i, lambda g: g(u)) != ind(u):
            raise ArithmeticError(
                "root-of-unity average does not project onto a residue pair; "
                "twist group is outside the supported families"
            )
    return ind, j


def build_T(G: TwistGroup, i: int, n: int) -> Operator:
    """Component operator T_n^i of the cyclic twist group decomposition.

    Built as the mode-restricted bilinear (1/2N) sum_{j = +-j_i mod N}
    :a_{-j} a_{j+nN}:, which equals the root-of-unity average
    (1/k) sum_s omega^{is} L_n^{g^s}; the coefficient identity behind that
    equality is verified exactly during construction.  At n = 0 the scalar
    vacuum shift (1/k) sum_s omega^{is} L(-1, g^s) / (2N) is included.
    """
    if not G.is_cyclic:
        raise ValueError("component operators need a cyclic twist group")
    N = G.period
    key = ("T", G.fingerprint(), i, n)
    hit = _OP_REGISTRY.get(key)
    if hit is not None:
        return hit
    ind, j = _mode_indicator(G, i)
    op: Operator = build_L(ind, n)
    if n == 0:
        energy = vacuum_energies(G, i)
        scalar = energy.c * rat(1, N)
        op = SumOp([(1, op), (1, ScalarOp(scalar))])
    _OP_REGISTRY[key] = op
    return op


class VacuumEnergy(NamedTuple):
    """Vacuum shifts of a twist component: c for the component's zero mode,
    d for the grading operator on the component's vacuum."""

    index: int
    residue: int
    c: Scalar
    d: Scalar
    group_period: int

    def closed_forms_hold(self) -> bool:
        N, j = self.group_period, self.residue
        c_closed = rat(j * (N - j), 2 * N) - rat(N, 12)
        d_closed = rat((N - 2 * j) ** 2, 8 * N) - rat(1, 24)
        return self.c == c_closed and self.d == d_closed


@lru_cache(maxsize=None)
def vacuum_energies(G: TwistGroup, i: int) -> VacuumEnergy:
    """Exact vacuum shifts c_i = (1/2k) sum_s omega^{is} L(-1, g^s) and
    d_i = (1/2) L(-1, identity) - c_i for a cyclic twist group.

    For the standard families (even characters mod an odd prime, folded
    power family) the closed forms c_i = j(N-j)/(2N) - N/12 and
    d_i = (N-2j)^2/(8N) - 1/24 are checked exactly; a mismatch raises.
    Computed once per group and index.
    """
    if not G.is_cyclic:
        raise ValueError("vacuum energies need a cyclic twist group")
    N = G.period
    j = twist_residue(G, i)
    c = is_rational(_component_average(G, i, l_minus_one) * rat(1, 2))
    if c is None:
        raise ArithmeticError("vacuum shift did not come out rational")
    ident = G.elements[G.identity]
    d = l_minus_one(ident) * rat(1, 2) - c
    energy = VacuumEnergy(index=i, residue=j, c=c, d=d, group_period=N)
    if ident.is_offzero_indicator and not energy.closed_forms_hold():
        raise ArithmeticError(
            f"closed-form vacuum shifts fail for i={i}: c={c}, d={d}"
        )
    return energy


# ---------------------------------------------------------------------------
# verification sweeps


class VerifyResult:
    __slots__ = ("passed", "cases", "witness")

    def __init__(self, passed: bool, cases: int, witness: Optional[tuple] = None):
        self.passed, self.cases, self.witness = passed, cases, witness

    def __bool__(self) -> bool:
        return self.passed


_LEMMA_KS, _LEMMA_NS = range(-6, 7), range(-2, 3)
# the certified Theorem 2.4 / 3.1 suites and the 3.1 sweep: |m|, |n| <= 2,
# so the operators P_k^(r) the certificates rest on have |k| = |m + n| <= 4
_MAX_MODE, _PRODUCT_MODES = 2, range(-4, 5)


def _lemma_2_3_sides(chi: PeriodicFn, k: int, n: int) -> tuple:
    N = chi.period
    lhs = CommutatorOp(ModeOp(k), build_L(chi, n))
    rhs = SumOp([(chi(k) * rat(k, N), ModeOp(k + n * N))])
    return lhs, rhs


def verify_lemma_2_3(chi: PeriodicFn, k: int, n: int, D: int) -> VerifyResult:
    """[a_k, L_n^chi] = (1/N) chi(k) k a_{k + nN}, exactly on the window."""
    window = commutator_window(D, k, n * chi.period)
    lhs, rhs = _lemma_2_3_sides(chi, k, n)
    witness = lhs.matrix_equal(rhs, window)
    return VerifyResult(witness is None, len(window), witness)


def verify_lemma_2_3_suite(G: TwistGroup, D: int) -> VerifyResult:
    """Lemma 2.3 for every element of G, |k| <= 6 and |n| <= 2.

    Both sides are linear in chi, so the identity is swept once per
    residue-pair operator P^(r) (chi = 1_r) and holds for each chi in G once
    chi == sum_r chi(r) 1_r is checked exactly.  If a sweep or that check
    fails, the per-element cases run one by one; the witness is the first
    failing ((element, k, n), state, out_state, got, want).  The count is of
    (element, k, n) cases.
    """
    return _lemma_2_3_suite(G, lambda chi, k, n: verify_lemma_2_3(chi, k, n, D))


def certify_lemma_2_3_suite(G: TwistGroup, D: int) -> VerifyResult:
    """The cases of `verify_lemma_2_3_suite`, each proved on the whole Fock
    space by its normal-ordering form alone; the columns are
    `representation_suite`'s.  A failing case gives ((element, k, n), mode
    index, got, want).  Like the sweep, it raises `cutoff too small` when
    the window of k = 6, n = 2 is empty."""
    _window_budget(D, _LEMMA_KS[-1], _LEMMA_NS[-1] * G.period)
    return _lemma_2_3_suite(G, lambda chi, k, n: _certify(*_lemma_2_3_sides(chi, k, n)))


def _lemma_2_3_suite(G: TwistGroup, case) -> VerifyResult:
    """The suite with `case(chi, k, n) -> VerifyResult` deciding one case."""
    N = G.period
    cases = [(a, k, n) for a in range(len(G)) for k in _LEMMA_KS for n in _LEMMA_NS]
    if all(_pair_coefficients(chi) is not None for chi in G.elements) and all(
        case(pair_indicator(N, r), k, n)
        for r in _pair_residues(N) for k in _LEMMA_KS for n in _LEMMA_NS
    ):
        return VerifyResult(True, len(cases), None)
    return _case_by_case(cases, lambda a, k, n: case(G.elements[a], k, n).witness)


def _case_by_case(cases: list, case, swap: bool = False,
                  case_log: Optional[list] = None) -> VerifyResult:
    """Decide the keys of `cases` in order, `case(*key)` giving a case's
    witness or None.  With `swap`, a key (x, y, m, n) whose swap (y, x, n, m)
    came earlier takes that key's witness: the two brackets are negatives.
    The first failing key names the witness (key, *its witness).  With
    `case_log`, each key gets a (*key, passed, witness) entry and the loop
    runs on; without, it stops at the first failure, counting up to it."""
    witnesses: dict = {}
    failure = None
    for total, key in enumerate(cases, start=1):
        twin = (key[1], key[0], key[3], key[2]) if swap else None
        witness = witnesses[key] = witnesses[twin] if twin in witnesses else case(*key)
        if case_log is not None:
            case_log.append((*key, witness is None, witness))
        if witness is not None and failure is None:
            failure = (key,) + witness
            if case_log is None:
                return VerifyResult(False, total, failure)
    return VerifyResult(failure is None, len(cases), failure)


def _check_columns(ops: Iterator[tuple], D: int) -> Optional[tuple]:
    """(label, *the first failure) of the first of the (label, operator)
    pairs `ops`, walked once each in order, whose columns are not the Fock
    representation on degree <= D - |M| (`_check_representation`), or None."""
    for label, op in ops:
        if (bad := _check_representation(op, D)) is not None:
            return (label,) + bad
    return None


def _state_counts(D: int) -> list:
    """S[n], the number of states of degree <= n, for n = 0..D: partial sums
    of the partition counts, the coefficients of prod (1 - q^e)^-1."""
    from ltwist.qseries import product_expand

    return list(itertools.accumulate(product_expand(1, {0}, -1, D + 1).coeffs.values()))


def representation_suite(N: int, D: int) -> VerifyResult:
    """The columns of every residue-pair operator P_k^(r), |k| <= 4, that
    the certified suites at modulus N rest on, by `_check_columns` on degree
    <= D - |k| N in r-major order; the count is of the states checked.  A
    witness is (("P", r, k), state, out_state, got, want), or (("P", r, k),
    "table", residue, got, want).  At D < 4N it raises `cutoff too small`,
    as the Theorem 2.4 and 3.1 suites do."""
    _window_budget(D, _PRODUCT_MODES[-1] * N)
    S = _state_counts(D)
    count = len(_pair_residues(N)) * sum(S[D - abs(k) * N] for k in _PRODUCT_MODES)
    witness = _check_columns(((("P", r, k), build_L(pair_indicator(N, r), k))
                              for r in _pair_residues(N) for k in _PRODUCT_MODES), D)
    return VerifyResult(witness is None, count, witness)


def _central_term(f: PeriodicFn, m: int) -> Scalar:
    """The central scalar of Theorem 2.4 at n = -m for the product twist f:
    (m/N) L(-1, f) + (m^3/12) sum_k f(k), L(-1, f) the closed form, which
    is linear in f."""
    return l_minus_one_form(f) * rat(m, f.period) + f.period_sum() * rat(m**3, 12)


def _bracket_rhs(prod: PeriodicFn, m: int, n: int) -> Operator:
    """(m-n) L_{m+n}^{prod} plus the central scalar when m = -n."""
    terms = [(rat(m - n), build_L(prod, m + n))]
    if m == -n:
        terms.append((1, ScalarOp(_central_term(prod, m))))
    return SumOp(terms)


def _bracket_sides(f1: PeriodicFn, f2: PeriodicFn, m: int, n: int,
                   prod: Optional[PeriodicFn] = None) -> tuple:
    """The two sides of Theorem 2.4; `prod`, when given, is f1 f2."""
    lhs = CommutatorOp(build_L(f1, m), build_L(f2, n))
    return lhs, _bracket_rhs(pf_mul(f1, f2) if prod is None else prod, m, n)


def _verify_bracket(f1: PeriodicFn, f2: PeriodicFn, m: int, n: int, D: int,
                    prod: Optional[PeriodicFn] = None) -> VerifyResult:
    """[L_m^{f1}, L_n^{f2}] against `_bracket_rhs(f1 f2, ...)`, exactly on
    the window."""
    N = f1.period
    window = commutator_window(D, m * N, n * N)
    lhs, rhs = _bracket_sides(f1, f2, m, n, prod)
    witness = lhs.matrix_equal(rhs, window)
    return VerifyResult(witness is None, len(window), witness)


def verify_theorem_2_4(
    G: Optional[TwistGroup],
    chi1: PeriodicFn,
    chi2: PeriodicFn,
    m: int,
    n: int,
    D: int,
) -> VerifyResult:
    """[L_m^{chi1}, L_n^{chi2}] = (m-n) L_{m+n}^{chi1 chi2}
    + delta_{m,-n} [ (m/N) L(-1, chi1 chi2) + (m^3/12) sum_k (chi1 chi2)(k) ],
    as an exact matrix identity on input degrees d <= D - N(|m|+|n|)."""
    if chi2.period != chi1.period:
        raise ValueError("twist functions must share a period")
    return _verify_bracket(chi1, chi2, m, n, D)


def verify_theorem_2_4_suite(
    G: TwistGroup, D: int, max_mode: int = 2, case_log: Optional[list] = None
) -> VerifyResult:
    """All ordered pairs of group elements and |m|, |n| <= max_mode.

    The left side of Theorem 2.4 is bilinear in (chi1, chi2) and the right
    side is linear in the product chi1 chi2, its central term too, as the
    closed form of L(-1, f) is linear in f.  So the identity is swept once
    per unordered pair of residue-pair cases ((r, m), (s, n)), with the
    swapped case its exact negation and 1_r 1_s = delta_rs 1_r, and every
    ordered element case follows from two exact checks on G: chi == sum_r
    chi(r) 1_r and chi1 chi2 == sum_r chi1(r) chi2(r) 1_r.  If any sweep or
    check fails, the element cases run one by one, and the witness is the
    first failing ((a, b, m, n), state, out_state, got, want).  When
    `case_log` is given, one (a, b, m, n, passed, witness) entry is appended
    per ordered case.
    """
    def case(f1, f2, m, n, prod=None):
        return _verify_bracket(f1, f2, m, n, D, prod)

    return _theorem_2_4_suite(G, max_mode, case, case_log)


def certify_theorem_2_4_suite(G: TwistGroup, D: int,
                              case_log: Optional[list] = None) -> VerifyResult:
    """The cases of `verify_theorem_2_4_suite` at its default |m|, |n| <= 2,
    each proved on the whole Fock space by its normal-ordering form alone;
    the columns of the P_k^(r) it rests on are `representation_suite`'s.  A
    failing case gives ((a, b, m, n), x, got, want) with x the first index
    where the symmetrised coefficients differ, or "central".  Like the
    sweep, it raises `cutoff too small` when the window of |m| = |n| = 2 is
    empty.  `case_log` gets each ordered case's (a, b, m, n, passed,
    witness) from its certificate."""
    _window_budget(D, _MAX_MODE * G.period, _MAX_MODE * G.period)
    return _theorem_2_4_suite(
        G, _MAX_MODE, lambda *a, **k: _certify(*_bracket_sides(*a, **k)), case_log)


def _theorem_2_4_suite(G: TwistGroup, max_mode: int, case,
                       case_log: Optional[list]) -> VerifyResult:
    """The suite with `case(f1, f2, m, n, prod=...) -> VerifyResult`
    deciding one case."""
    N = G.period
    es = range(len(G))
    span = range(-max_mode, max_mode + 1)
    cases = [(a, b, m, n) for a in es for b in es for m in span for n in span]
    if _pair_certificate(G) and _pair_cases_2_4(N, span, case):
        if case_log is not None:
            case_log.extend((*key, True, None) for key in cases)
        return VerifyResult(True, len(cases), None)
    return _case_by_case(
        cases, lambda a, b, m, n: case(G.elements[a], G.elements[b], m, n).witness,
        swap=True, case_log=case_log)


def _pair_certificate(G: TwistGroup) -> bool:
    """The exact identities that carry the pair-basis cases of Theorem 2.4
    over to every ordered pair of elements of G: each chi is sum_r chi(r)
    1_r, and each product chi1 chi2 is sum_r chi1(r) chi2(r) 1_r.  A case's
    left side is bilinear in the twists and its right side, central term
    too, linear in their product, so no central scalar needs a check."""
    N = G.period
    coeffs = [_pair_coefficients(chi) for chi in G.elements]
    return all(c is not None for c in coeffs) and all(
        pf_mul(chi1, chi2) == _pair_combination(N, list(map(operator.mul, c1, c2)))
        for chi1, c1 in zip(G.elements, coeffs) for chi2, c2 in zip(G.elements, coeffs))


def _pair_cases_2_4(N: int, span: range, case) -> bool:
    """The unordered pair-basis cases ((r, m), (s, n)), each given 1_r 1_s =
    delta_rs 1_r in closed form, so one operator per product is built."""
    zero = PeriodicFn(N, [rat(0)] * N)
    items = [(r, m) for r in _pair_residues(N) for m in span]
    return all(case(pair_indicator(N, r), pair_indicator(N, s), m, n,
                    prod=pair_indicator(N, r) if r == s else zero).passed
               for i, (r, m) in enumerate(items) for s, n in items[i:])


def verify_theorem_3_1(G: TwistGroup, D: int) -> VerifyResult:
    """Decomposition into |G| commuting copies sharing the central element:
    [T_m^i, T_n^i] = (m-n) T_{m+n}^i + delta_{m,-n} (m^3/12k) b with
    b = sum_s identity(s), and [T_m^i, T_n^j] = 0 for i != j, at |m|, |n| <=
    2; exact on the window.  Also checks the averaging projectors are
    idempotent, mutually orthogonal, and resolve the identity on the
    coefficient space."""
    def case(lhs, rhs, m, n):
        return lhs.matrix_equal(rhs, commutator_window(D, m * G.period, n * G.period))

    return _theorem_3_1(G, case)


def certify_theorem_3_1(G: TwistGroup, D: int) -> VerifyResult:
    """The cases of `verify_theorem_3_1`, each proved on the whole Fock
    space by its normal-ordering form alone; the columns of the P_k^(r)
    that the T^i are built from are `representation_suite`'s.  A failing
    case gives ((i, j, m, n), x, got, want) with x an index or "central".
    Like the sweep, it raises `cutoff too small` when the window of
    |m| = |n| = 2 is empty."""
    _window_budget(D, _MAX_MODE * G.period, _MAX_MODE * G.period)
    return _theorem_3_1(G, lambda lhs, rhs, m, n: _certify(lhs, rhs).witness)


def _theorem_3_1(G: TwistGroup, case) -> VerifyResult:
    """The cases with `case(lhs, rhs, m, n) -> witness or None` deciding
    one unordered case; the count is of ordered cases."""
    k = len(G)
    b = G.elements[G.identity].period_sum()
    _check_projectors(k)
    span = range(-_MAX_MODE, _MAX_MODE + 1)

    def sides(i: int, j: int, m: int, n: int) -> Optional[tuple]:
        lhs = CommutatorOp(build_T(G, i, m), build_T(G, j, n))
        terms = []
        if i == j:
            if m != n:
                terms.append((rat(m - n), build_T(G, i, m + n)))
            if m == -n:
                terms.append((1, ScalarOp(b * rat(m**3, 12 * k))))
        return case(lhs, SumOp(terms), m, n)

    return _case_by_case(list(itertools.product(range(1, k + 1), range(1, k + 1), span, span)),
                         sides, swap=True)


def _check_projectors(k: int) -> None:
    """Averaging matrices P_i[s,t] = (1/k) omega^{i(s-t)} must be idempotent,
    mutually orthogonal, and sum to the identity."""
    omega, ks = zeta(k), range(k)
    P = {i: [[omega ** ((i * (s - t)) % k) * rat(1, k) for t in ks] for s in ks]
         for i in range(1, k + 1)}

    def matmul(A, B):
        return [[sum((A[s][r] * B[r][t] for r in ks), rat(0)) for t in ks] for s in ks]

    for i in P:  # nested lists compare entry by entry
        if matmul(P[i], P[i]) != P[i]:
            raise ArithmeticError("averaging projector is not idempotent")
        if any(x for j in P if j != i for row in matmul(P[i], P[j]) for x in row):
            raise ArithmeticError("averaging projectors overlap")
    if any(sum((P[i][s][t] for i in P), rat(0)) != (s == t) for s in ks for t in ks):
        raise ArithmeticError("averaging projectors do not resolve identity")


def verify_eq_3_28(N: int, i: int) -> VerifyResult:
    """Three-way exact equality for the index-i vacuum shift of period N:
    (2(k-j)+1)^2/(8(2k+1)) - 1/24 = h^{1,j} - c/24
    = (1/2) L(-1, identity) - (1/2k) sum_s omega^{is} L(-1, g^s)."""
    from ltwist.qseries import central_charge, highest_weight

    G = even_twist_group(N)
    k = len(G)
    if N != 2 * k + 1:
        raise ValueError("period and group order are inconsistent")
    energy = vacuum_energies(G, i)
    j = energy.residue
    a = rat((2 * (k - j) + 1) ** 2, 8 * (2 * k + 1)) - rat(1, 24)
    b = highest_weight(k, j) - central_charge(k) / 24
    cval = energy.d
    ok = a == b and b == cval
    return VerifyResult(ok, 3, None if ok else (N, i, str(a), str(b), str(cval)))


def verify_eq_3_28_suite(N: int) -> VerifyResult:
    """`verify_eq_3_28` for every index of even_twist_group(N); the count is
    of indices, the witness the first failing one's."""
    k = len(even_twist_group(N))
    for i in range(1, k + 1):
        res = verify_eq_3_28(N, i)
        if not res.passed:
            return VerifyResult(False, i, res.witness)
    return VerifyResult(True, k, None)


def scaling_embed_check(chi: PeriodicFn, l: int, m: int, n: int, D: int) -> VerifyResult:
    """The mode-scaled operators (1/l) tau_l(L_n^chi), which are the L_n of
    the dilated twist chi.dilate(l), satisfy the bracket identity of chi with
    the same central values, exactly on the window.  Their central scalar is
    `_central_term` of the dilated product, whose closed form of L(-1) is l
    times that of chi chi, so it is the unscaled _central_term(chi chi, m)."""
    x = chi.dilate(l)
    return _verify_bracket(x, x, m, n, D)


def certify_scaling_suite(chi: PeriodicFn, D: int) -> VerifyResult:
    """The cases of `scaling_embed_check` for l in {2, 3} and (m, n) in
    {(1, -1), (1, 0)}, each proved on the whole Fock space by its
    normal-ordering form on x = chi.dilate(l), and the columns of
    build_L(x, k), k in {-1, 0, 1}, checked against the Fock representation
    on degree <= D - |k| lN.  The row claims chi's central values, so each
    case first checks that the closed form of L(-1, x x) is l L(-1, chi chi),
    else its witness is ((l, m, n), "L(-1)", got, want).  A failing case
    otherwise gives ((l, m, n), x, got, want) with x an index or "central";
    a failing column gives (("L", l, k), state, out_state, got, want), or
    (("L", l, k), "table", residue, got, want).  Like the sweeps it raises
    `cutoff too small` when the window of l = 3, (m, n) = (1, -1) is empty,
    D < 6N, and its count is theirs: the states of degree <= D - lN(|m| +
    |n|), summed over the cases."""
    N = chi.period
    _window_budget(D, 3 * N, 3 * N)
    cases = [(l, m, n) for l in (2, 3) for m, n in ((1, -1), (1, 0))]
    S = _state_counts(D)
    count = sum(S[D - l * N * (abs(m) + abs(n))] for l, m, n in cases)
    lm = l_minus_one(pf_mul(chi, chi))

    def scaled_case(l: int, m: int, n: int) -> Optional[tuple]:
        x = chi.dilate(l)
        prod = pf_mul(x, x)
        if (got := l_minus_one_form(prod)) != l * lm:
            return "L(-1)", got, l * lm
        return _certify(*_bracket_sides(x, x, m, n, prod)).witness

    witness = _case_by_case(cases, scaled_case).witness or _check_columns(
        ((("L", l, k), build_L(chi.dilate(l), k)) for l in (2, 3) for k in (-1, 0, 1)), D)
    return VerifyResult(witness is None, count, witness)


def verify_transpose_symmetry(chi: PeriodicFn, n: int, D: int) -> VerifyResult:
    """w(lam) <lam|L_n^chi|mu> = w(mu) conj(<mu|L_{-n}^{chibar}|lam>) with
    w the partition symmetry factor, exactly on the window."""
    N = chi.period
    window = commutator_window(D, n * N)
    A = build_L(chi, n)
    B = build_L(chi.conj(), -n)
    ring = cyclo_ring(math.lcm(A.order, B.order))
    a, b = _cross_factors(A.scale, B.scale)
    smul, conj = ring.smul, ring.conj
    # once per state and sweep
    weight = lru_cache(maxsize=None)(lambda q: partition_weight(_partition(q)))
    checked = 0
    for mu in window:
        w_mu = weight(mu)
        for lam, val in A.icolumn(mu, ring).items():
            back = B.icolumn(lam, ring).get(mu, ring.zero)
            lhs = smul(val, weight(lam))
            rhs = smul(conj(back), w_mu)
            checked += 1
            if smul(lhs, a) != smul(rhs, b):
                return VerifyResult(False, checked, (
                    _partition(mu), _partition(lam),
                    ring.to_scalar(lhs, A.scale), ring.to_scalar(rhs, B.scale),
                ))
    return VerifyResult(True, checked, None)


def certify_transpose_symmetry(chi: PeriodicFn, n: int, D: int) -> VerifyResult:
    """The identity of `verify_transpose_symmetry`, A = L_n^chi having the
    adjoint B = L_{-n}^{chibar}, by normal-ordering forms on the whole Fock
    space; the count is the sweep's, the nonzero entries of A = sum_r chi(r)
    P_n^(r) on the sweep's window, with no column built.  A move keeps its
    residue pair, so for n != 0 the P_n^(r) with chi(r) != 0 add theirs
    (`_entry_count`); for n = 0 they are the states where sum_r chi(r)
    <q|P_0^(r)|q> != 0.  B is the A of (chibar, -n) and the norm is
    `weight_mismatch`'s, so a row closed under conjugation checks both.  A
    chi that is not a pair combination raises ValueError."""
    N, coeffs = chi.period, _pair_coefficients(chi)
    top = _window_budget(D, n * N)
    if coeffs is None:
        raise ValueError("twist function is not a combination of residue pairs")
    A, B = build_L(chi, n), build_L(chi.conj(), -n)
    ring = cyclo_ring(math.lcm(A.order, B.order))
    witness = _mismatch(_adjoint(_form(A, ring)), _form(B, ring))
    if witness is not None:
        return VerifyResult(False, 0, witness)
    if n:
        S = _state_counts(top)
        return VerifyResult(True, sum(_entry_count(build_L(pair_indicator(N, r), n), S)
                                      for r, c in zip(_pair_residues(N), coeffs) if c), None)
    ring = cyclo_ring(A.order)
    x = [A._table.elements(ring)[r] for r in _pair_residues(N)]  # chi(r) times A's den
    counts = _diagonal_counts(N, top, frozenset(range(N)))
    return VerifyResult(True, sum(k for vec, k in counts if not ring.is_zero(
        reduce(ring.add, map(ring.smul, x, vec), ring.zero))), None)


def _entry_count(op: BilinearOp, S: list) -> int:
    """The nonzero column entries of `op`, M != 0, on the states counted by
    S = `_state_counts(top)`, off its kernel record: a move of u enters the
    S[top - u] columns with a part u, a double annihilation of u and v the
    S[top - u - v] with both, and a creation every column, S[top]."""
    moves, _, pairs, creations = op._kernel(cyclo_ring(op.order))
    top = len(S) - 1
    return (sum(S[top - u] for u, _, _ in moves if u <= top) + len(creations) * S[top]
            + sum(S[top - u - v] for u, v, _ in pairs if u + v <= top))


@lru_cache(maxsize=None)
def _diagonal_counts(N: int, top: int, allowed: frozenset) -> tuple:
    """The vectors (<q|P_0^(r)|q>)_r, in units of their scale 1/(2N), of the
    states q of degree <= top with every part in the residues `allowed` mod
    N, by col(q) = col(p) + u s(-u) for q = p plus a largest part u, each
    with how many q share it; the walk prunes at the first part outside."""
    tables = [build_L(pair_indicator(N, r), 0)._table.elements(cyclo_ring(1))
              for r in _pair_residues(N)]
    steps = [tuple(u * (t[u % N] + t[-u % N]) for t in tables) for u in range(top + 1)]
    counts: dict = {}

    def visit(q: int, degree: int, u: int, parent: Optional[tuple]) -> tuple:
        if q and u % N not in allowed:
            return None, None  # q and its children have a part outside
        vec = tuple(map(operator.add, parent, steps[u])) if q else steps[0]
        counts[vec] = counts.get(vec, 0) + 1
        return None, vec

    _walk(top, visit)
    return tuple(counts.items())


def weight_mismatch(D: int) -> Optional[tuple]:
    """First ("weight", q, got, want), depth-first on degree <= D, where
    `partition_weight` is not the norm of a_x^dagger = a_{-x}: <0|0> = 1 and
    <q|q> = <p|a_u a_{-u}|p> = v <p|p> for q = (u,) + p, a_u|q> = v|p>, with
    v = u m_u(q) read off the key, m_u(q) = q >> 8 (u - 1) & 255: no column
    is built."""
    def visit(q: int, degree: int, u: int, parent: Optional[tuple]) -> tuple:
        t = (u,) + parent[1] if q else ()  # parent is (w(p), p), p = q less a part u
        w = partition_weight(t)
        want = u * (q >> 8 * (u - 1) & 255) * parent[0] if q else 1
        return (None if w == want else ("weight", t, w, want)), (w, t)

    return _walk(D, visit)


# ---------------------------------------------------------------------------
# q-traces


def qtrace(G: TwistGroup, i: int, mode: str, D: int):
    """Graded trace of the index-i component on its vacuum, as a Puiseux
    series in q.

    mode "char": trace of q^{N * grading + d_i} over states with no parts
    congruent to 0 or +-j mod N, grading being the eigenvalue of
    L_0^{identity} - T_0^i (both unshifted, diagonal).  Equals the minimal
    character series with matching residue.

    mode "kernel": trace of q^{N * grading + c_i} over states with every
    part congruent to +-j mod N, grading the unshifted T_0^i eigenvalue.

    Both eigenvalues are residue-pair combinations at the scale 1/(2N) of
    the P_0^(r): T_0^i = P_0^(j) and L_0^{identity} = sum_r e(r) P_0^(r),
    the identity e being even, 0/1-valued and 0 at 0 mod N (`TwistGroup`
    checks this).  So 2N * grading is an integer weighting of one vector of
    `_diagonal_counts`, taken once per vector, not per state.
    """
    from ltwist.qseries import PuiseuxSeries

    N = G.period
    if D < 2 * N:
        raise ValueError("cutoff too small")
    check_cutoff(D)
    energy = vacuum_energies(G, i)
    _, j = _mode_indicator(G, i)  # checks T_0^i's pair as build_T does
    pair = frozenset({j % N, -j % N})
    weights = [int(r == j) for r in _pair_residues(N)]  # T_0^i = P_0^(j)
    if mode == "char":
        ident = G.elements[G.identity]
        allowed, shift = frozenset(range(1, N)) - pair, energy.d
        weights = [int(ident(r)) - t for r, t in zip(_pair_residues(N), weights)]
    elif mode == "kernel":
        allowed, shift = pair, energy.c
    else:
        raise ValueError("mode must be 'char' or 'kernel'")
    shift = rat(shift)
    denom = shift.denominator
    counts: dict = {}
    for vec, k in _diagonal_counts(N, D, allowed):
        t, odd = divmod(sum(map(operator.mul, weights, vec)), 2)
        if odd:
            raise ArithmeticError("grading did not rescale to an integer")
        key = t * denom + shift.numerator
        counts[key] = counts.get(key, 0) + k
    return PuiseuxSeries(denom, counts, shift + D + 1)


def check_qtrace_order(order: int, name: str) -> None:
    """Reject an order whose `verify_qtrace_char` walk, to degree order + 2,
    would pass MAX_BASIS_DEGREE, calling it `name`."""
    if order + 2 > MAX_BASIS_DEGREE:
        raise ValueError(f"{name} must be at most {MAX_BASIS_DEGREE - 2}")


def verify_qtrace_char(k: int, order: int) -> VerifyResult:
    """The "char" `qtrace` of each index i = 1..k of even_twist_group(2k + 1)
    equals `qseries.minimal_char` to order + 1; the count is of indices, the
    witness the first failing (i, first difference)."""
    from ltwist.qseries import minimal_char

    N = 2 * k + 1
    G = even_twist_group(N)
    for i in range(1, k + 1):
        tr = qtrace(G, i, "char", max(order + 2, 2 * N))
        mc = minimal_char(k, vacuum_energies(G, i).residue, order + 1)
        diff = tr.first_difference(mc)
        if diff is not None:
            return VerifyResult(False, i, (i, diff))
    return VerifyResult(True, k, None)
