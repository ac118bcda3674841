"""Workload definitions shared by run.py, the worker and the pin script.

Nothing here imports ltwist: the run.py process stays small so that the
resident-memory figures it reads for its children are theirs, not its own.
"""

from __future__ import annotations

import random

WORKLOADS = ("fock-sweep", "report-rest", "cli-cold")
ROW_WORKLOADS = ("fock-sweep", "report-rest")
SIZES = ("full", "tiny")

# fock-sweep: rows of the registry's commutator-sweep families.  N=7 is the
# smallest modulus with truly cyclotomic twist values (Q(zeta_3)); cutoff 28
# is the smallest at which its rows pass instead of skipping.  At full size
# the pass is the bracket family alone, fock:bracket:7 (Theorem 2.4, about 25
# reference seconds): with mode-bracket:7 beside it a traced run, which makes
# an untraced and a traced pass, would not end within 180 s on a host running
# at half its best speed.  The tiny size runs all three families.
FOCK_FAMILIES = {
    "full": ("fock:bracket:",),
    "tiny": ("fock:mode-bracket:", "fock:bracket:", "fock:decomposition:"),
}
FOCK_CONFIG = {
    "full": dict(moduli_bracket=(7,), moduli_decomposition=(), cutoff=28),
    "tiny": dict(moduli_bracket=(3,), moduli_decomposition=(5,), cutoff=22),
}

# report-rest: the default report without the three commutator-sweep families.
REPORT_CONFIG = {
    "full": dict(moduli_bracket=(), moduli_decomposition=()),
    "tiny": dict(moduli_bracket=(), moduli_decomposition=(), moduli_exact=(5,),
                 moduli_numeric=(5,), moduli_energy=(5,),
                 modular_order=100, euler_order=60, jacobi_order=20,
                 series_order=20, qtrace_order=10, precision_bits=128),
}
# RunConfig.seed is the workload seed modulo this; references are pinned for
# every residue.
REPORT_SEEDS = 16
# Rows whose value depends on RunConfig.seed.
SEEDED_ROWS = ("exactnum:field-axioms", "exactnum:embedding-hom")
# Statuses known by hand: every row passes except this designed red.
DESIGNED_FAIL = ("summation:squares",)


def report_config(size: str, seed: int) -> dict:
    cfg = dict(REPORT_CONFIG[size])
    cfg["seed"] = seed % REPORT_SEEDS
    return cfg


def expected_status(row_id: str) -> str:
    return "fail" if row_id in DESIGNED_FAIL else "pass"


# ---------------------------------------------------------------------------
# cli-cold: a closed loop with one caller, each call a fresh `ltwist` process.

_PHI = {5: 4, 7: 6, 8: 4, 9: 6, 11: 10, 12: 4, 13: 12}
_QUAD_PRIMES = (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127,
                131, 139, 151, 163, 167, 179, 191, 199, 211, 223, 227, 239, 251)


def _nonprincipal(moduli):
    # dirichlet_characters(N)[0] is the principal character
    return [(N, c) for N in moduli for c in range(1, _PHI[N])]


# Every pool entry costs within this share of its pool's median (pin.py
# measures each entry and refuses to pin otherwise), so that the seed changes
# the calls but hardly the cost of a sequence.
COST_BAND = 0.25


def pools() -> dict:
    """Argument pools per subcommand."""
    return {
        "lvalue": [
            ["lvalue", "--modulus", str(N), "--char", str(c), "--point", p]
            for N in sorted(_PHI) for c in range(_PHI[N]) for p in ("0", "-1")
        ],
        "classnumber": [["classnumber", "--q", str(q)] for q in _QUAD_PRIMES],
        "cesaro": [
            ["cesaro", "--modulus", str(N), "--char", str(c)] + extra
            for N, c in _nonprincipal((5, 7, 12))
            for extra in (["--depth", "1"], ["--weight", "linear", "--depth", "2"],
                          ["--exact"])
        ],
        "dirichlet-avg": [
            ["dirichlet-avg", "--modulus", str(N), "--char", str(c), "--s", s]
            for N, c in _nonprincipal((5, 7, 12)) for s in ("0", "1/2", "1", "1/3")
        ],
        "qseries-verify": [
            ["qseries", "verify", "--identity", "euler", "--order", o] for o in ("80", "100")
        ] + [
            ["qseries", "verify", "--identity", "jacobi", "--order", o] for o in ("24", "30")
        ] + [
            ["qseries", "verify", "--identity", i, "--k", str(k), "--j", str(j), "--order", "40"]
            for i in ("314", "316") for k in (2, 3) for j in range(1, k + 1)
        ] + [
            ["qseries", "verify", "--identity", "312", "--order", o] for o in ("30", "40")
        ] + [
            ["qseries", "verify", "--identity", "char-cross", "--k", "2", "--order", o]
            for o in ("16", "20")
        ],
        # order 200 costs a third more
        "qseries-modular": [
            ["qseries", "modular", "--k", k, "--order", "100", "--precision", "128"]
            for k in ("2", "3")
        ],
        # order 24 in the char mode at N=7 costs half as much again
        "fock-qtrace": [
            ["fock", "qtrace", "--modulus", str(N), "--index", str(i), "--mode", m,
             "--order", "16"]
            for N in (5, 7) for i in range(1, (N - 1) // 2 + 1) for m in ("char", "kernel")
        ],
        # the rational field Q is much cheaper; report-rest covers it
        "cocycle-verify": [
            ["cocycle", "verify", "--field", f, "--height", "3"]
            for f in ("Q(sqrt2)", "Q(sqrt5)", "Q(i)")
        ],
        # Theorem 3.1 costs twice as much even at N=3; fock-sweep and
        # report-rest cover it
        "fock-verify": [
            ["fock", "verify", "--modulus", N, "--cutoff", D, "--theorem", t]
            for N, D, t in (("3", "12", "2.3"), ("3", "13", "2.4"), ("3", "20", "scaling"),
                            ("5", "14", "3.28"), ("7", "14", "3.28"))
        ],
    }


SUBCOMMANDS = ("lvalue", "classnumber", "cesaro", "dirichlet-avg", "qseries-verify",
               "qseries-modular", "cocycle-verify", "fock-qtrace", "fock-verify")
ROUNDS = {"full": 2, "tiny": 1}

# The documented `--s value` spelling with a negative value: argparse reads
# "-1/2" as an option and exits 2.  Run once per run outside the timed loop so
# the defect stays visible without making a fix look like a slowdown.
DEFECT_POOL = [
    ["dirichlet-avg", "--modulus", str(N), "--char", str(c), "--s", "-1/2"]
    for N, c in _nonprincipal((5, 7, 12))
]


def defect_reference_argv(argv: list) -> list:
    """The `--s=value` spelling, which parses, gives the reference output."""
    i = argv.index("--s")
    return argv[:i] + [f"--s={argv[i + 1]}"] + argv[i + 2:]


def subcommand_of(argv: list) -> str:
    return argv[0] if argv[0] in ("lvalue", "classnumber", "cesaro", "dirichlet-avg") \
        else f"{argv[0]}-{argv[1]}"


def cli_sequence(seed: int, size: str) -> tuple[list, list]:
    """(calls, defect_call): the seeded call sequence and the defect probe.

    Each round calls every subcommand once, in a seeded order, with seeded
    arguments from its pool."""
    rng = random.Random(seed)
    by_sub = pools()
    calls = []
    for _ in range(ROUNDS[size]):
        block = [rng.choice(by_sub[sub]) for sub in SUBCOMMANDS]
        rng.shuffle(block)
        calls += block
    return calls, rng.choice(DEFECT_POOL)
