"""The integer ring Z[zeta_m] of the exact operator sweeps.

Kept apart from `exactnum` so that commands which never sweep do not load
it at start-up.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from ltwist.exactnum import CycloNum, _tuple_ops, euler_phi, rat


class CycloRing:
    """Z[zeta_m] on integer coefficient tuples over the power basis.

    The exact operator sweeps run in this ring: their column entries are
    algebraic integers with the rational factor kept outside, so no `Rat`
    and no scalar-type dispatch is met per entry.  When phi(m) = 1 the
    elements are plain ints and the operations are the int builtins;
    otherwise they are the tuple functions `exactnum._tuple_ops` generates
    for m, the ones `CycloNum` multiplies with.  Get instances from
    `cyclo_ring`.
    """

    def __init__(self, m: int):
        self.order = m
        self.phi = phi = euler_phi(m)
        if phi == 1:
            self.zero, self.one = 0, 1
            self.add, self.sub, self.neg = operator.add, operator.sub, operator.neg
            self.mul = self.smul = operator.mul
            self.from_int = int
            self.is_zero = operator.not_
            self.conj = _same
        else:
            self.zero = (0,) * phi
            self.one = (1,) + self.zero[1:]
            ops = _tuple_ops(m)
            self.add, self.sub, self.neg = ops["add"], ops["sub"], ops["neg"]
            self.mul, self.smul = ops["mul"], ops["smul"]
            self.from_int = ops["from_int"]
            self.is_zero = _all_zero
            # complex conjugation zeta -> zeta^{-1}
            self.conj = ops["conj"]

    # boundary with the scalar domain

    def from_scalar(self, x) -> tuple:
        """(element, den) with x = element / den and den > 0 minimal."""
        if isinstance(x, CycloNum):
            num, den = x.promote(self.order), x.den
        else:
            x = rat(x)
            num, den = (int(x.numerator),) + (0,) * (self.phi - 1), int(x.denominator)
        return (num[0] if self.phi == 1 else num), den

    def to_scalar(self, a, scale):
        """The scalar `scale * a` (a Rat when phi(m) = 1, else a CycloNum)."""
        if self.phi == 1:
            return scale * a
        p, q = int(scale.numerator), int(scale.denominator)
        return CycloNum._make(self.order, [p * c for c in a], q)


def _all_zero(a) -> bool:
    return not any(a)


def _same(a):
    return a


@lru_cache(maxsize=None)
def cyclo_ring(m: int) -> CycloRing:
    return CycloRing(m)


def scalar_order(x) -> int:
    """Order of the cyclotomic field a scalar is written in (1 for rationals)."""
    return x.order if isinstance(x, CycloNum) else 1


def scalar_den(x) -> int:
    """Least positive integer d such that d * x has integer power-basis coordinates."""
    return x.den if isinstance(x, CycloNum) else int(rat(x).denominator)
