"""Central-term classification for ring-indexed Witt-type brackets.

For the bracket [L_m, L_n] = (m - n) L_{m+n} + alpha(m, n) c with indices in
the ring of integers of K (K = Q or a quadratic field), the diagonal support
and antisymmetry constraints leave a single functional equation

    (m - n) alpha(m + n) - (2n + m) alpha(m) + (n + 2m) alpha(n) = 0.

This module builds that linear system on a coordinate box, checks alpha(m) = m
and alpha(m) = m^3 against every constraint exactly, and certifies that they
span the null space over K by the rank of the rows' images under a ring map
Z[w] -> F_p, which is never above their rank over K.  The indices and the
coefficients lie in the ring of integers Z[w] = Z[x]/(f) of K, f the minimal
polynomial of w, and run on the integer tuples of `exactnum.QuotientRing`,
the ring that also carries Z[zeta_m].
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from ltwist.exactnum import QuotientRing, factorize, horner, is_prime, rat

FIELDS = {
    "Q": None,
    "Q(sqrt2)": 2,
    "Q(sqrt5)": 5,
    "Q(i)": -1,
}


@lru_cache(maxsize=None)
def quadratic_order(d: Optional[int]) -> QuotientRing:
    """Z (d None), or the integers Z[w] of Q(sqrt d) with w = sqrt d, or
    (1 + sqrt d)/2 when d = 1 mod 4: Z[x]/(f), f the minimal polynomial of w."""
    if d is None:
        return QuotientRing((0, 1), ())
    if d in (0, 1) or any(e > 1 for _, e in factorize(abs(d))):
        raise ValueError("d must be a squarefree integer other than 0, 1")
    return QuotientRing(((1 - d) // 4, -1, 1) if d % 4 == 1 else (-d, 0, 1), ())


def field_by_name(name: str) -> QuotientRing:
    if name not in FIELDS:
        raise ValueError(f"unknown field {name!r}; choose from {sorted(FIELDS)}")
    return quadratic_order(FIELDS[name])


class CocycleSystem(NamedTuple):
    """Linear constraints over K for the diagonal central terms alpha(m),
    held in tuples and read-only mappings: `checks` shares a system between
    rows."""

    field: QuotientRing
    height: int
    unknowns: tuple         # canonical box representatives (one per +- pair)
    index: Mapping          # canonical element -> unknown position
    rows: tuple             # of {position: K coefficient}, int coordinates
    box: tuple              # all nonzero box elements


def build_system(d, H: int) -> CocycleSystem:
    """All functional-equation constraints with m, n, m + n inside the
    coordinate box of height H, after imposing alpha(0) = 0 and antisymmetry.
    Box points and coefficients are sums of m, n, 2m, 2n: integer tuples.

    row(-m, -n) = row(m, n), row(n, m) = -row(m, n) and
    row(m + n, -n) = -row(m, n), so each triple m + n + k = 0 in the box
    gives one row up to sign.  It is built once, from the pair (m, n) that
    comes first in box order: m the first of the six points +-m, +-n, +-k,
    n before k.  Then no two of the three points share an unknown, and no
    coefficient vanishes."""
    K = field_by_name(d) if isinstance(d, str) else quadratic_order(d)
    if H < 3:
        raise ValueError("height must be at least 3")
    rng = range(-H, H + 1)
    if K.degree == 1:
        box = [(x,) for x in rng if x != 0]
    else:
        box = [(x, y) for x in rng for y in rng if not (x == 0 and y == 0)]
    reps = []
    index = {}
    for m in box:
        s, r = _canonical(m)
        if r not in index:
            index[r] = len(reps)
            reps.append(r)
    at = {b: i for i, b in enumerate(box)}
    rows = []
    for i, m in enumerate(box):
        if at[K.neg(m)] < i:  # implied in lexicographic order by the n, -n tests
            continue
        for n in box[i + 1:]:
            tot = K.add(m, n)  # -k; zero or outside the box: not in `at`
            if (at.get(tot, -1) < i or at[K.neg(n)] < i
                    or at[K.neg(tot)] <= at[n]):
                continue
            row: dict = {}
            _row_add(row, K, index, tot, K.sub(m, n))
            _row_add(row, K, index, m, K.neg(K.add(K.add(n, n), m)))
            _row_add(row, K, index, n, K.add(n, K.add(m, m)))
            rows.append(row)
    return CocycleSystem(field=K, height=H, unknowns=tuple(reps), index=MappingProxyType(index),
                         rows=tuple(map(MappingProxyType, rows)), box=tuple(box))


def _canonical(m):
    """(sign, representative) identifying alpha(-m) = -alpha(m)."""
    for c in m:
        if c > 0:
            return 1, m
        if c < 0:
            return -1, tuple(-x for x in m)
    raise ValueError("zero has no canonical form")


def _row_add(row: dict, K: QuotientRing, index: dict, m, coeff) -> None:
    s, r = _canonical(m)
    pos = index[r]
    if s < 0:
        coeff = K.neg(coeff)
    row[pos] = K.add(row.get(pos, K.zero), coeff)


def _row_apply(K: QuotientRing, row: Mapping, vec) -> bool:
    acc = K.zero
    for pos, c in row.items():
        acc = K.add(acc, K.mul(c, vec[pos]))
    return K.is_zero(acc)


def nullspace_dim(sys_: CocycleSystem):
    """Null-space dimension over K, with the tuple basis (m, m^3).

    Both are first verified against every row exactly; their values at
    m = 1, 2, which every box holds, are independent, so the dimension is at
    least 2.  The rows then go through the ring map Z[w] -> F_p, w -> r, of
    `_degree_one_prime`: it sends every minor of the K-rows to the matching
    minor of their images, so the rank of the images mod p is at most their
    rank over K.  It is taken until it reaches #unknowns - 2; then the
    dimension is exactly 2 and (m, m^3) is a basis.  Otherwise the returned
    dimension is the upper bound #unknowns - rank > 2, so an uncertified
    system can only read as a larger null space.
    """
    K = sys_.field
    v1 = tuple(sys_.unknowns)                                 # alpha(m) = m
    v3 = tuple(K.mul(r, K.mul(r, r)) for r in sys_.unknowns)  # alpha(m) = m^3
    for ridx, row in enumerate(sys_.rows):
        if not _row_apply(K, row, v1) or not _row_apply(K, row, v3):
            raise ArithmeticError(f"polynomial solution violates constraint {ridx}")
    u = len(sys_.unknowns)
    p, r = _degree_one_prime(K.f)
    images = ({j: horner(c, r) for j, c in row.items()} for row in sys_.rows)
    return u - _rank_mod_p(images, p, u - 2), (v1, v3)


@lru_cache(maxsize=None)
def _degree_one_prime(f: tuple) -> tuple[int, int]:
    """(p, r), p = f(r) a prime below 2^30 for the largest such r <= 2^(30/deg f):
    w -> r mod p is a ring map Z[x]/(f) -> F_p, and residues and their
    products stay in machine words.  A rank lost mod p could only turn a row red."""
    r = 1 << (30 // (len(f) - 1))
    while horner(f, r) >= 1 << 30:
        r -= 1
    while not is_prime(horner(f, r)):
        r -= 1
    return horner(f, r), r


def _rank_mod_p(rows, p: int, target: int) -> int:
    """Rank mod p of the integer rows, stopping once it reaches target.
    Each pivot row is scaled to lead with 1 at its first column, so reducing
    by it only touches later columns."""
    pivots: dict = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                if len(pivots) == target:
                    return target
                break
            f = row[col]
            for c, v in piv.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def fit_cubic(sys_: CocycleSystem, vec) -> Optional[tuple]:
    """Coefficients (a, b) with vec(m) = a m + b m^3 on the whole box,
    interpolated through m = 1, 2 on the first basis direction; None if the
    vector is not of that shape."""
    K = sys_.field
    one = K.one
    two = K.from_int(2)
    p1 = sys_.index[_canonical(one)[1]]
    p2 = sys_.index[_canonical(two)[1]]
    # solve a + b = vec(1), 2a + 8b = vec(2)
    y1, y2 = vec[p1], vec[p2]
    six_b = K.sub(y2, K.add(y1, y1))
    b = tuple(rat(c) / 6 for c in six_b)
    a = K.sub(y1, b)
    for pos, r in enumerate(sys_.unknowns):
        want = K.add(K.mul(a, r), K.mul(b, K.mul(r, K.mul(r, r))))
        if want != vec[pos]:
            return None
    return a, b


def line_recursion_holds(sys_: CocycleSystem, basis) -> bool:
    """The one-line recursion (4.49) on the b1-line,
    (m - 1) alpha((m+1) b1) = (m + 2) alpha(m b1) - (2m + 1) alpha(b1),
    for the basis vectors of a system of height H >= 4 and a combination
    of them; reads sys_ and basis only."""
    H = sys_.height
    K = sys_.field
    # a random-ish combination exercises linearity
    vecs = [*basis, [K.add(a, K.add(b, b)) for a, b in zip(*basis)]]
    for vec in vecs:
        for m in range(1, H):
            lhs = _line_value(sys_, K, vec, m + 1)
            lhs = K.mul(K.from_int(m - 1), lhs)
            rhs = K.sub(
                K.mul(K.from_int(m + 2), _line_value(sys_, K, vec, m)),
                K.mul(K.from_int(2 * m + 1), _line_value(sys_, K, vec, 1)),
            )
            if lhs != rhs:
                return False
    return True


def _line_value(sys_: CocycleSystem, K: QuotientRing, vec, m: int):
    elem = K.from_int(m)
    s, r = _canonical(elem)
    val = vec[sys_.index[r]]
    return val if s > 0 else K.neg(val)
