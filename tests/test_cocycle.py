import random

import pytest

from ltwist.cocycle import (
    FIELDS,
    QuadField,
    build_system,
    field_by_name,
    fit_cubic,
    nullspace_dim,
    verify_449,
)
from ltwist.exactnum import Rat, rat


def test_field_arithmetic():
    K = field_by_name("Q(sqrt2)")
    a = K.element(1, 2)       # 1 + 2 sqrt2
    b = K.element(3, -1)
    assert K.mul(a, b) == K.element(3 - 2 * 2, 6 - 1)  # (3-4) + ... compute directly
    # golden-ratio basis: w^2 = w + 1 in Q(sqrt5)
    K5 = field_by_name("Q(sqrt5)")
    w = K5.element(0, 1)
    assert K5.mul(w, w) == K5.element(1, 1)
    # inverses
    for K in (field_by_name("Q"), field_by_name("Q(sqrt2)"), field_by_name("Q(i)")):
        x = K.element(*([3] + [2] * (K.rank - 1)))
        assert K.mul(x, K.inv(x)) == K.one


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
    K = field_by_name(name)
    for coords in ((3,) + (0,) * (K.rank - 1), (3,) + (2,) * (K.rank - 1),
                   (2,) + (1,) * (K.rank - 1)):
        x = K.element(*coords)
        inv = K.inv(x)
        assert all(type(c) is Rat for c in inv)
        assert K.mul(x, inv) == K.one
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
    c1 = K.element(rng.randint(-3, 3), rng.randint(-3, 3))
    c2 = K.element(rng.randint(-3, 3), rng.randint(-3, 3))
    combo = [K.add(K.mul(c1, x), K.mul(c2, y)) for x, y in zip(*basis)]
    for row in sys_.rows:
        acc = K.zero
        for pos, c in row.items():
            acc = K.add(acc, K.mul(c, combo[pos]))
        assert K.is_zero(acc)
    assert fit_cubic(sys_, combo) is not None


def test_line_recursion():
    # algebraic sanity on the two polynomial generators
    for m in range(2, 12):
        assert (m - 1) * (m + 1) == (m + 2) * m - (2 * m + 1)
        assert (m - 1) * (m + 1) ** 3 == (m + 2) * m**3 - (2 * m + 1)
    for name in ("Q", "Q(sqrt2)", "Q(sqrt5)", "Q(i)"):
        assert verify_449(name, 4)
    assert verify_449("Q", 5)
    with pytest.raises(ValueError):
        verify_449("Q", 3)


def test_quad_field_guards():
    with pytest.raises(ValueError):
        QuadField(0)
    with pytest.raises(ValueError):
        QuadField(1)
    with pytest.raises(ValueError):
        field_by_name("Q(sqrt7)")
