"""Per-layer probes: fixed small inputs timed through public calls.

Each probe warms up once, then reports the median of several timed repeats,
except the `cold` ones, which time first use on fresh objects.  The probe
process is a fresh interpreter, so the fock sweep probe meets cold operator
caches.
"""

from __future__ import annotations

import statistics
import time

ORDERS = (3, 4, 5, 8, 12)
REPEATS = 5


def _per_op_ns(fn, a, b, budget_s: float = 0.02) -> float:
    fn(a, b)  # warm-up
    t0 = time.perf_counter()
    for _ in range(10):
        fn(a, b)
    est = max((time.perf_counter() - t0) / 10, 1e-9)
    n = max(10, int(budget_s / est))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(a, b)
        samples.append((time.perf_counter() - t0) / n * 1e9)
    return statistics.median(samples)


def exactnum_probes() -> dict:
    from ltwist.exactnum import euler_phi, rat, zeta

    def element(m: int, shift: int):
        # a full-support element sum_k c_k zeta_m^k, built with public operators
        z = zeta(m)
        acc = rat(shift + 1, 3)
        for k in range(1, euler_phi(m)):
            acc = acc + rat((-1) ** k * (k + shift), k + 2) * z ** k
        return acc

    def mul(a, b):
        return a * b

    def add(a, b):
        return a + b

    pairs = {"rat": (rat(3, 7), rat(-5, 11))}
    for m in ORDERS:
        pairs[f"c{m}"] = (element(m, 0), element(m, 1))
    out = {}
    for key, (a, b) in pairs.items():
        out[f"exactnum.mul_ns.{key}"] = _per_op_ns(mul, a, b)
        out[f"exactnum.add_ns.{key}"] = _per_op_ns(add, a, b)
    return out


def _median_ms(fn) -> float:
    fn()  # warm-up
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def fock_probes() -> dict:
    from ltwist import fock
    from ltwist.characters import even_twist_group
    from ltwist.exactnum import rat

    def twist(N: int):
        G = even_twist_group(N)
        return G, G.elements[(G.identity + 1) % len(G)]

    # one cold Theorem 2.4 case at N=7 and the fock-sweep cutoff
    G7, chi7 = twist(7)
    t0 = time.perf_counter()
    res = fock.verify_theorem_2_4(G7, chi7, chi7, 1, -1, 28)
    out = {"fock.sweep_s.n7": time.perf_counter() - t0}
    if not res.passed:
        raise RuntimeError(f"probe case failed: {res.witness}")

    # cold columns of fresh L_1 operators on the degree <= 24 basis
    states = fock.basis_partitions(24)
    for N in (5, 7):
        _, chi = twist(N)
        samples = []
        for _ in range(3):
            op = fock.BilinearOp(chi, N, rat(1, 2 * N))
            t0 = time.perf_counter()
            for p in states:
                op.column(p)
            samples.append((time.perf_counter() - t0) / len(states) * 1e6)
        out[f"fock.column_us.n{N}"] = statistics.median(samples)
    return out


def summation_probes() -> dict:
    from ltwist import summation
    from ltwist.characters import dirichlet_characters

    chi = dirichlet_characters(5)[2]
    seq = summation.partial_sums(summation.periodic_series(chi, "const"))
    return {"summation.limit_numeric_ms":
            _median_ms(lambda: summation.limit_numeric(seq, 2, 100_000, 1e-3))}


def qseries_probes() -> dict:
    from ltwist import qseries
    from ltwist.exactnum import rat

    a = qseries.minimal_char(2, 1, 60)
    b = qseries.minimal_char(2, 2, 60)
    theta, _ = qseries.reduced_theta(rat(1, 3), 3, 52)
    return {
        "qseries.mul_ms": _median_ms(lambda: a * b),
        "qseries.inverse_ms": _median_ms(theta.inverse),
    }


def run_all() -> dict:
    out = {}
    out.update(exactnum_probes())
    out.update(fock_probes())
    out.update(summation_probes())
    out.update(qseries_probes())
    return out
