import random
from functools import lru_cache

import pytest

from ltwist import checks, cocycle
from ltwist.cocycle import (
    FIELDS,
    build_system,
    field_by_name,
    fit_cubic,
    line_recursion_holds,
    nullspace_dim,
    quadratic_order,
)
from ltwist.exactnum import Rat, factorize, horner
from ltwist.report import RunConfig, _run_check


def fresh_null_spaces(monkeypatch):
    """Give `checks._null_space` an empty cache of the test's own: no null
    space of another test reaches the test, and none it makes outlives it."""
    monkeypatch.setattr(checks, "_null_space",
                        lru_cache(maxsize=None)(checks._null_space.__wrapped__))


def test_field_arithmetic():
    # the orders are Z[x]/(f) on integer tuples, f the minimal polynomial of w
    K = field_by_name("Q(sqrt2)")
    assert K.mul((1, 2), (3, -1)) == (3 - 2 * 2, 6 - 1)  # (1 + 2 w)(3 - w), w^2 = 2
    # golden-ratio basis: w^2 = w + 1 in Q(sqrt5)
    assert field_by_name("Q(sqrt5)").mul((0, 1), (0, 1)) == (1, 1)
    assert field_by_name("Q(i)").mul((0, 1), (0, 1)) == (-1, 0)
    Q = field_by_name("Q")
    assert Q.mul((3,), (-4,)) == (-12,) and Q.one == (1,) and Q.from_int(2) == (2,)
    # f = x^2 - wl x - wc: w^2 = wl w + wc, and the rank is the degree of f
    assert {name: field_by_name(name).f for name in FIELDS} == {
        "Q": (0, 1), "Q(sqrt2)": (-2, 0, 1), "Q(sqrt5)": (-1, -1, 1), "Q(i)": (1, 0, 1)}
    assert quadratic_order(-3).f == (1, -1, 1)  # w = (1 + sqrt -3)/2, w^2 = w - 1
    assert quadratic_order(5) is field_by_name("Q(sqrt5)")


def test_build_system_shapes():
    s = build_system("Q", 4)
    assert len(s.unknowns) == 4  # alpha(1..4) after antisymmetry
    s2 = build_system("Q(sqrt2)", 3)
    assert len(s2.box) == 48
    assert len(s2.unknowns) == 24
    with pytest.raises(ValueError):
        build_system("Q", 2)


def test_build_system_rows_are_integral():
    # the constraint systems are integral on {1, w}: no Rat (and never a
    # float) may enter before the elimination divides
    for name in FIELDS:
        sys_ = build_system(name, 4)
        assert all(type(x) is int for m in sys_.box for x in m)
        for row in sys_.rows:
            assert all(type(x) is int for c in row.values() for x in c)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_inverse_and_fit_stay_exact(name):
    # the field has no inverse: elements are integral and only the 1/6 of
    # the cubic fit is rational
    K = field_by_name(name)
    assert not hasattr(K, "inv")
    sys_ = build_system(name, 3)
    dim, basis = nullspace_dim(sys_)
    for vec in basis:
        a, b = fit_cubic(sys_, vec)
        assert all(type(c) is Rat for c in a + b)


def test_nullspace_dimensions():
    for name in ("Q", "Q(sqrt2)", "Q(sqrt5)", "Q(i)"):
        dims = []
        for H in (3, 4, 5):
            dim, basis = nullspace_dim(build_system(name, H))
            dims.append(dim)
            assert dim == 2
        # stabilization: non-increasing and settled
        assert dims[0] >= dims[1] >= dims[2]
    dim6, basis6 = nullspace_dim(build_system("Q", 6))
    assert dim6 == 2


def test_basis_is_m_and_m_cubed():
    for name in ("Q", "Q(sqrt2)", "Q(sqrt5)"):
        sys_ = build_system(name, 5)
        dim, basis = nullspace_dim(sys_)
        fits = [fit_cubic(sys_, v) for v in basis]
        assert all(f is not None for f in fits)
        K = sys_.field
        # the two fits must be linearly independent as (a, b) pairs
        (a1, b1), (a2, b2) = fits
        det_like = K.sub(K.mul(a1, b2), K.mul(a2, b1))
        assert not K.is_zero(det_like)


def test_random_nullspace_vector_fits():
    rng = random.Random(5)
    sys_ = build_system("Q(sqrt2)", 5)
    dim, basis = nullspace_dim(sys_)
    K = sys_.field
    c1 = (rng.randint(-3, 3), rng.randint(-3, 3))
    c2 = (rng.randint(-3, 3), rng.randint(-3, 3))
    combo = [K.add(K.mul(c1, x), K.mul(c2, y)) for x, y in zip(*basis)]
    for row in sys_.rows:
        acc = K.zero
        for pos, c in row.items():
            acc = K.add(acc, K.mul(c, combo[pos]))
        assert K.is_zero(acc)
    assert fit_cubic(sys_, combo) is not None


# exact dimensions of row prefixes of build_system(name, 4), computed by
# Gaussian elimination over K
_PREFIX_DIMS = {
    "Q": {1: 3, None: 2},
    **{name: {1: 39, 3: 37, 10: 30, 20: 20, 30: 13, 40: 10, 60: 4, None: 2}
       for name in ("Q(sqrt2)", "Q(sqrt5)", "Q(i)")},
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rank_certificate_matches_exact_dimensions(name):
    sys_ = build_system(name, 4)
    rows = sys_.rows
    for k, want in _PREFIX_DIMS[name].items():
        dim, basis = nullspace_dim(sys_._replace(rows=rows[:k]))
        assert dim == want, k
        assert len(basis) == 2


def test_rank_prime_is_a_degree_one_prime_below_2_to_the_30():
    # The certificate's rank is taken mod p, which is sound only for a
    # prime, through w -> r, a ring map Z[w] -> F_p only when f(r) = 0 mod p;
    # below 2^30 the residues and their products fit machine words.
    for d in [FIELDS[name] for name in sorted(FIELDS)] + [3, -3, 13]:
        f = quadratic_order(d).f
        p, r = cocycle._degree_one_prime(f)
        assert factorize(p) == [(p, 1)], d
        assert p < 1 << 30, d
        assert horner(f, r) % p == 0, d


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_perturbed_row_violates_polynomial_solutions(name):
    sys_ = build_system(name, 4)
    K = sys_.field
    row = dict(sys_.rows[-1])
    pos = min(row)
    row[pos] = K.add(row[pos], K.one)
    bad = sys_._replace(rows=(*sys_.rows[:-1], row))
    with pytest.raises(ArithmeticError, match="polynomial solution violates constraint"):
        nullspace_dim(bad)


def test_line_recursion_needs_a_certified_null_space(monkeypatch):
    # the cocycle:recursion row turns red when a null space it reads is not
    # two-dimensional
    sys_ = build_system("Q(sqrt2)", 4)
    short = sys_._replace(rows=sys_.rows[:40])
    assert nullspace_dim(short)[0] > 2
    real = cocycle.build_system
    fresh_null_spaces(monkeypatch)
    monkeypatch.setattr(cocycle, "build_system",
                        lambda d, H: short if d == "Q(sqrt2)" else real(d, H))
    row = next(c for c in checks.build_registry(RunConfig()) if c.id == "cocycle:recursion")
    result = _run_check(row, RunConfig())
    assert (result.status, result.witness) == ("fail", "AssertionError: Q(sqrt2)")


def test_line_recursion():
    # algebraic sanity on the two polynomial generators
    for m in range(2, 12):
        assert (m - 1) * (m + 1) == (m + 2) * m - (2 * m + 1)
        assert (m - 1) * (m + 1) ** 3 == (m + 2) * m**3 - (2 * m + 1)
    for name, H in (("Q", 4), ("Q(sqrt2)", 4), ("Q(sqrt5)", 4), ("Q(i)", 4), ("Q", 5)):
        sys_ = build_system(name, H)
        dim, basis = nullspace_dim(sys_)
        assert dim == 2 and line_recursion_holds(sys_, basis)


def test_line_recursion_fails_off_the_null_space():
    sys_ = build_system("Q(sqrt5)", 4)
    dim, basis = nullspace_dim(sys_)
    K = sys_.field
    assert dim == 2 and line_recursion_holds(sys_, basis)
    assert not line_recursion_holds(sys_, [basis[0], [K.mul(v, v) for v in basis[0]]])


def test_recursion_row_reads_the_null_spaces_of_the_cocycle_rows(monkeypatch):
    # the recursion row reads the cached null spaces the cocycle rows made
    names = ("Q", "Q(sqrt2)", "Q(sqrt5)")
    fresh_null_spaces(monkeypatch)
    for name in names:
        checks.check_cocycle(RunConfig(), name)
    built = []
    real = cocycle.build_system
    monkeypatch.setattr(cocycle, "build_system", lambda d, H: built.append((d, H)) or real(d, H))
    value = checks.check_cocycle_recursion(RunConfig())
    assert built == []
    checks._null_space.cache_clear()
    assert checks.check_cocycle_recursion(RunConfig()) == value
    assert built == [(name, 4) for name in names]


def test_quad_field_guards():
    with pytest.raises(ValueError):
        field_by_name("Q(sqrt7)")
    for d in (0, 1, 4, 8, 9, -4):
        with pytest.raises(ValueError, match="squarefree"):
            quadratic_order(d)
        with pytest.raises(ValueError, match="squarefree"):
            build_system(d, 3)
    for d in range(-50, 51):
        if d not in (0, 1) and all(d % (k * k) for k in range(2, 8)):
            assert quadratic_order(d).degree == 2, d
        else:
            with pytest.raises(ValueError, match="squarefree"):
                quadratic_order(d)


def test_unknown_field_names_raise_value_error():
    for H in (3, 4):
        with pytest.raises(ValueError, match="unknown field 'Q\\(sqrt7\\)'"):
            build_system("Q(sqrt7)", H)


def _all_ordered_pair_rows(sys_):
    """The constraint rows of every ordered pair (m, n) of the box, each
    kept the first time it or its negation occurs."""
    K, index, box = sys_.field, sys_.index, sys_.box
    rows, seen = [], set()
    for m in box:
        for n in box:
            tot = K.add(m, n)
            if K.is_zero(tot) or tot not in box:
                continue
            row: dict = {}
            cocycle._row_add(row, K, index, tot, K.sub(m, n))
            cocycle._row_add(row, K, index, m, K.neg(K.add(K.add(n, n), m)))
            cocycle._row_add(row, K, index, n, K.add(n, K.add(m, m)))
            row = {p: c for p, c in row.items() if not K.is_zero(c)}
            fp = tuple(sorted(row.items()))
            if row and fp not in seen and tuple(sorted(
                    (p, K.neg(c)) for p, c in row.items())) not in seen:
                seen.add(fp)
                rows.append(row)
    return rows


# rows per height H: over Q, and over each quadratic field
_ROW_COUNTS = {3: (1, 100), 4: (2, 284), 5: (4, 654), 6: (6, 1290)}


@pytest.mark.parametrize("name", list(FIELDS))
@pytest.mark.parametrize("H", [3, 4, 5, 6])
def test_unordered_pairs_keep_the_rows_and_their_order(name, H):
    # build_system builds one row per sum-zero triple; the rows, their order
    # and their entries' order are those of the exhaustive reference, which
    # also shows that no row holds a zero coefficient
    sys_ = build_system(name, H)
    want = _all_ordered_pair_rows(sys_)
    assert [list(r.items()) for r in sys_.rows] == [list(r.items()) for r in want]
    assert len(want) == _ROW_COUNTS[H][sys_.field.degree - 1]
