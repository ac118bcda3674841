"""Reference float engine for the averaging checks.

Every batch is complex128: a periodic batch gathered from the residue
embedding by index, a rational batch from Horner's rule with one division.
Every Cesaro step makes fresh arrays (a cumulative sum, a new index, the
quotient), and `limit_numeric` builds its whole chain on every call.  It
shares nothing with `summation` but `horner`, so tests compare the engine
with it bit for bit.
"""

from typing import NamedTuple

import numpy as np

from ltwist.exactnum import horner


class Series(NamedTuple):
    floats: object  # n -> complex128 array
    period_hint: object = None


def periodic_series(chi, weight="const"):
    N = chi.period
    emb = np.array([complex(chi(r)) for r in range(N)], dtype=np.complex128)
    if weight == "const":
        return Series(lambda n: emb[np.arange(1, n + 1) % N], N)

    def floats(n):
        idx = np.arange(1, n + 1)
        return emb[idx % N] * idx

    return Series(floats, N)


def rational_series(num, den=(1,), alternating=False, period_hint=None):
    def floats(n):
        idx = np.arange(1, n + 1, dtype=np.int64)
        p = horner(num, idx)
        if alternating:
            p[::2] *= -1
        return (p / horner(den, idx)).astype(np.complex128)

    return Series(floats, period_hint)


def partial_sums(s):
    return Series(lambda n: np.cumsum(s.floats(n)), s.period_hint)


def cesaro(s):
    sums = partial_sums(s)
    return Series(lambda n: sums.floats(n) / np.arange(1, n + 1), s.period_hint)


def inflate(s, k):
    if k == 1:
        return s
    hint = s.period_hint * k if s.period_hint else None
    return Series(lambda n: np.repeat(s.floats((n + k - 1) // k), k)[:n], hint)


def limit_numeric(s, depth, n_terms, tol):
    """(value, residual, converged, message) as `summation.limit_numeric`
    reports them."""
    period = s.period_hint or 1
    for _ in range(depth):
        s = cesaro(s)
    x = s.floats(n_terms)
    tail = x[-max(2 * period, 64):]
    re_lo, re_hi = tail.real.min(), tail.real.max()
    im_lo, im_hi = tail.imag.min(), tail.imag.max()
    spread = max(re_hi - re_lo, im_hi - im_lo)
    mid = complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)
    if abs(mid.imag) < 1e-15:
        mid = mid.real
    converged = not spread > float(tol)
    message = "" if converged else f"no convergence at depth {depth}"
    return (mid if converged else None), float(spread), converged, message


def averaged_dirichlet(chi, s, n_terms):
    N = chi.period
    l = N * (n_terms // N)
    vals = np.array([complex(chi(r)) for r in range(N)], dtype=np.complex128)
    k = np.arange(1, l + 1, dtype=np.float64)
    coeff = vals[np.arange(1, l + 1) % N]
    coeff *= l + 1 - k
    k **= -float(s)
    coeff *= k
    return complex(np.sum(coeff) / l)
