"""Divergent-series engine: partial sums, arithmetic averaging, inflation,
exact closed-form limits for mean-zero periodic families, numeric limits with
a trailing-window convergence test, and the averaged continuation of
Dirichlet-type series to the strip s > -1."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

from ltwist.characters import PeriodicFn
from ltwist.exactnum import Scalar, cyclo_embed, horner, linear_form, rat

if TYPE_CHECKING:
    import numpy as np

MAX_CESARO_DEPTH = 4


class SeqSpec:
    """Lazily evaluated exact sequence with float batch evaluation.

    `term(i)` (1-indexed) returns the exact value; `floats(n)` returns the
    first n values as a new array the caller owns, float64 if all are real
    and complex128 otherwise.  Transforms (partial_sums, cesaro, inflate)
    return new SeqSpecs and compose.

    Without a batch function, or where it returns None for an n it cannot
    serve exactly, `floats(n)` converts the first n exact terms one by one.
    Only the float paths import numpy, so a sequence read term by term never
    loads it.  `limit_numeric` keeps its memo on its spec, dying with it.
    """

    def __init__(
        self,
        term_fn: Callable[[int], Scalar],
        float_fn: Optional[Callable[[int], np.ndarray]] = None,
        period_hint: Optional[int] = None,
    ):
        self._term_fn = term_fn
        self._float_fn = float_fn
        self.period_hint = period_hint
        self._chain = (0, 0, None)  # n, depth and buffer of limit_numeric

    def term(self, i: int) -> Scalar:
        if i < 1:
            raise IndexError("terms are 1-indexed")
        return self._term_fn(i)

    def floats(self, n: int) -> np.ndarray:
        import numpy as np

        if self._float_fn is not None:
            batch = self._float_fn(n)
            if batch is not None:
                return batch
        return _batch(np.array([complex(self.term(i)) for i in range(1, n + 1)]))


def _batch(x: np.ndarray) -> np.ndarray:
    """x, a complex128 array, as float64 if all its values are real."""
    return x if x.imag.any() else x.real.copy()


def _average(x: np.ndarray, steps: int = 1) -> np.ndarray:
    """Advance x by `steps` Cesaro means in place: partial sums, then term i
    over i.  numpy divides a + bi by a real c as (a + 0 b)(1/c), so a float64
    x (no -0.0) times 1/i is the real part of the complex128 chain, bit for bit."""
    import numpy as np

    real = x.dtype == np.float64
    i = np.arange(1, len(x) + 1, dtype=np.float64)
    if real:
        np.divide(1.0, i, out=i)
    for _ in range(steps):
        np.cumsum(x, out=x)
        (np.multiply if real else np.divide)(x, i, out=x)
    return x


def rational_series(
    num: tuple,
    den: tuple = (1,),
    alternating: bool = False,
    period_hint: Optional[int] = None,
) -> SeqSpec:
    """Terms s(i) num(i) / den(i), num and den integer polynomials given by
    their coefficients in ascending degree, s(i) = (-1)^i when alternating
    and 1 otherwise.

    The exact term is rat(s(i) num(i), den(i)).  The float64 batch is
    Horner's rule on int64 indices, then one division.  While
    sum |c_k| n^k < 2^53 for num and for den, every intermediate is an exact
    float, so the correctly rounded quotient is complex() of the exact term,
    bit for bit; beyond that bound the floats come from the exact terms.
    """

    def term(i: int):
        p = horner(num, i)
        return rat(-p if alternating and i % 2 else p, horner(den, i))

    def floats(n: int):
        import numpy as np

        if any(sum(abs(c) * n**k for k, c in enumerate(coeffs)) >= 2**53
               for coeffs in (num, den)):
            return None
        idx = np.arange(1, n + 1, dtype=np.int64)
        p = horner(num, idx)
        if alternating:
            p[::2] *= -1  # odd i, negated as integers: a zero term stays +0.0
        q = p / horner(den, idx)
        return np.add(q, 0.0, out=q)  # 0 over a den < 0 is -0.0, complex(rat(0)) +0.0

    return SeqSpec(term, floats, period_hint=period_hint)


def periodic_series(chi: PeriodicFn, weight: str = "const") -> SeqSpec:
    """Terms chi(i) (weight "const") or chi(i) * i (weight "linear")."""
    if weight not in ("const", "linear"):
        raise ValueError("weight must be 'const' or 'linear'")
    import numpy as np

    N = chi.period
    period = _batch(np.roll(chi.embedding, -1))  # chi(1), ..., chi(N)

    def batch(n: int):
        return np.tile(period, -(-n // N))[:n]

    if weight == "const":
        term, floats = chi, batch
    else:
        def term(i: int):
            return chi(i) * i

        def floats(n: int):
            x = batch(n)
            return np.multiply(x, np.arange(1, n + 1, dtype=np.float64), out=x)

    return SeqSpec(term, floats, period_hint=N)


def partial_sums(s: SeqSpec) -> SeqSpec:
    cache: list = []

    def term(i: int):
        while len(cache) < i:
            j = len(cache) + 1
            prev = cache[-1] if cache else rat(0)
            cache.append(prev + s.term(j))
        return cache[i - 1]

    def floats(n: int):
        import numpy as np

        x = s.floats(n)
        return np.cumsum(x, out=x)

    return SeqSpec(term, floats, period_hint=s.period_hint)


def cesaro(s: SeqSpec) -> SeqSpec:
    """Arithmetic-average transform: term i becomes (b_1 + ... + b_i)/i."""
    sums = partial_sums(s)

    def term(i: int):
        return sums.term(i) * rat(1, i)

    def floats(n: int):
        return _average(s.floats(n))

    return SeqSpec(term, floats, period_hint=s.period_hint)


def inflate(s: SeqSpec, k: int) -> SeqSpec:
    """Repeat each value k times (axiom of value-preserving inflation)."""
    if k < 1:
        raise ValueError("inflation factor must be at least 1")
    if k == 1:
        return s

    def term(i: int):
        return s.term((i + k - 1) // k)

    def floats(n: int):
        import numpy as np

        m = (n + k - 1) // k
        return np.repeat(s.floats(m), k)[:n]

    hint = s.period_hint * k if s.period_hint else None
    return SeqSpec(term, floats, period_hint=hint)


class LimitReport(NamedTuple):
    """Outcome of limit_numeric: the window midpoint and spread, or no value
    and a message when the spread exceeds the tolerance."""

    value: Union[float, complex, None]
    mode: str
    residual: float
    converged: bool
    message: str


def limit_numeric(s: SeqSpec, depth: int, n_terms: int, tol) -> LimitReport:
    """Apply the averaging transform `depth` times, then test the trailing
    window (length max(2 * period, 64)) for oscillation within tol.  A call
    at the last call's n on s and at least its depth resumes that chain.

    Returns the window midpoint on success; a non-converged report with the
    message "no convergence at depth d" when the spread exceeds tol.
    """
    if not 0 <= depth <= MAX_CESARO_DEPTH:  # depth 0: the raw partial sums
        raise ValueError(f"depth must lie in 0..{MAX_CESARO_DEPTH}")
    period = s.period_hint or 1
    if n_terms < 10 * period:
        raise ValueError("n_terms must be at least 10 periods")
    tol_f = float(tol)
    if not tol_f > 0:  # else any spread at all would read as divergence
        raise ValueError("tolerance must be positive")
    n, done, x = s._chain
    if n != n_terms or done > depth:
        done, x = 0, s.floats(n_terms)
    s._chain = (n_terms, depth, _average(x, depth - done))
    window = max(2 * period, 64)
    tail = s._chain[2][-window:]
    re_lo, re_hi = tail.real.min(), tail.real.max()
    im_lo, im_hi = tail.imag.min(), tail.imag.max()
    spread = max(re_hi - re_lo, im_hi - im_lo)
    mid = complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)
    if abs(mid.imag) < 1e-15:
        mid = mid.real
    converged = not spread > tol_f
    return LimitReport(
        value=mid if converged else None,
        mode=f"numeric(tol={tol_f}, window={window}, n_terms={n_terms})",
        residual=float(spread),
        converged=converged,
        message="" if converged else f"no convergence at depth {depth}",
    )


def limit_exact_periodic(chi: PeriodicFn, weight: str = "const") -> Scalar:
    """Exact averaged limit of sum chi(i) (const) or sum chi(i) i (linear).

    Uses the closed-form period sums of the averaging argument, linear
    forms on chi's table:
      const:  -(1/N) sum_k k chi(k)
      linear: (1/2N) sum_k (N k - k^2) chi(k)
    Only defined for mean-zero chi; anything else is outside the averaging
    axiom's domain.
    """
    if not chi.mean_zero:
        raise ValueError("axiom (2) inapplicable")
    N = chi.period
    if weight == "const":
        return linear_form(chi.table, range(-1, -N - 1, -1), N)
    if weight == "linear":
        return linear_form(chi.table, [N * k - k * k for k in range(1, N + 1)], 2 * N)
    raise ValueError("weight must be 'const' or 'linear'")


# ---------------------------------------------------------------------------
# replay of the worked derivations


def _check_termwise(lhs: SeqSpec, rhs: SeqSpec, identity: str) -> None:
    """lhs and rhs agree on their first 512 terms."""
    for i in range(1, 513):
        if lhs.term(i) != rhs.term(i):
            raise ArithmeticError(f"termwise identity {identity} fails at i={i}")


def replay_derivations() -> dict[str, Scalar]:
    """Replay the worked divergent-series evaluations as checked steps.

    Convergent ingredients are evaluated by limit_exact_periodic; the
    inflation manipulations are recorded as linear equations among the named
    unknowns, with every termwise sequence identity behind them verified
    exactly over a long prefix.  Returns the solved table.
    """
    # ingredient u = lim (0,1,0,1,...), the averaged value 1/2
    alt = PeriodicFn(2, [rat(1), rat(-1)])
    u = limit_exact_periodic(alt, "const")  # equals 1/2
    if u != rat(1, 2):
        raise ArithmeticError("averaged alternating limit is off")

    # partial sums of 0+1+1+1+...  -> B(i) = i-1
    B_s = SeqSpec(lambda i: rat(i - 1))
    combo = SeqSpec(lambda i: B_s.term(i) - 2 * inflate(B_s, 2).term(i))
    target = SeqSpec(lambda i: rat((i + 1) % 2))
    _check_termwise(combo, target, "B - 2 inflate(B, 2) = (0,1,0,1,...)")
    # recorded equation (linearity + inflation): s - 2 s = u, so s = -u
    s_value = -u

    # s1 = 0+1-2+3-4+... equals the linear-weight averaged value for (1,-1)
    s1_value = limit_exact_periodic(alt, "linear")
    if s1_value != rat(1, 4):
        raise ArithmeticError("averaged alternating linear limit is off")

    # partial sums for s2 = 0+1+2+3+... and s1, and the inflation identity
    B_s2 = SeqSpec(lambda i: rat(i * (i - 1), 2))
    B_s1 = SeqSpec(lambda i: rat((i - 1 + 1) // 2) * (1 if i % 2 == 0 else -1))
    diff = SeqSpec(lambda i: B_s2.term(i) - B_s1.term(i))
    quadruple = SeqSpec(lambda i: 4 * B_s2.term(i))
    _check_termwise(diff, inflate(quadruple, 2), "B(s2) - B(s1) = inflate(4 B(s2), 2)")
    # recorded equation: s2 - s1 = 4 s2  =>  s2 = -s1 / 3
    s2_value = -s1_value / 3

    # solve/consistency: the two equations must reproduce the recorded values
    if not (-s_value == u and s2_value - s1_value == 4 * s2_value):
        raise ArithmeticError("linear relations among replayed series are inconsistent")

    return {
        "0+1+1+1+...": s_value,
        "0+1-2+3-4+...": s1_value,
        "0+1+2+3+...": s2_value,
    }


# ---------------------------------------------------------------------------
# averaged continuation of the Dirichlet series


def averaged_dirichlet(chi: PeriodicFn, s, n_terms: int, precision_bits: int = 53):
    """Averaged partial sums (1/l) sum_{k<=l} (l+1-k) chi(k) / k^s at
    l = the largest multiple of the period below n_terms.

    Valid for mean-zero chi and real s > -1; returns a complex value.
    Uses float64 when precision_bits <= 53, otherwise mpmath at the
    requested precision.
    """
    if not chi.mean_zero:
        raise ValueError("averaged continuation needs a mean-zero function")
    s_f = float(s)
    if not -1 < s_f < float("inf"):  # NaN and infinity too
        raise ValueError("outside proven half-plane")
    N = chi.period
    l = N * (n_terms // N)
    if l < N:
        raise ValueError("need at least one full period of terms")
    if precision_bits <= 53:
        import numpy as np

        # sum of (l+1-k) * chi(k) * k^(-s), worked in place in that order so
        # that no more than three arrays of length l are alive at once, in
        # complex128 for a real chi too: np.sum's pairwise blocks differ
        coeff = np.tile(np.roll(chi.embedding, -1), l // N)
        k = np.arange(1, l + 1, dtype=np.float64)
        coeff *= l + 1 - k
        k **= -s_f
        coeff *= k
        return complex(np.sum(coeff) / l)
    import mpmath

    with mpmath.workprec(precision_bits + 16):
        emb = [cyclo_embed(chi(r), precision_bits + 16) for r in range(N)]
        s_mp = mpmath.mpf(rat(s).numerator) / mpmath.mpf(rat(s).denominator)
        acc = mpmath.mpc(0)
        for k in range(1, l + 1):
            c = emb[k % N]
            if c == 0:
                continue
            acc += (l + 1 - k) * c * mpmath.power(k, -s_mp)
        return +(acc / l)
