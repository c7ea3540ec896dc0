"""The benchmark's workloads: fixed sequences of ``thinsieve`` CLI steps.

Sizes never depend on the seed.  The seed only picks, for ``fiber_forms``, the
trace-fiber trace, the two class-cycles discriminants, the geodesic word and
the expsum sample seed, so every workload does nearly the same work at every
seed.  All norms and bounds are integers, so that ``round(n*n)`` and
``floor(n*n)`` agree and a change of radius convention cannot change an
artifact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isqrt

DEFAULT_SEED = 0

# Float columns of float-bearing artifacts, by column index, with the relative
# tolerance allowed on them.  Every other column must match exactly.
FLOAT_COLUMNS = {
    "hensley-fit": ({3, 4}, 1e-9),  # slope, residual
    "expsum": ({3, 4}, 1e-9),  # value, bound
    "dimension": ({2, 3, 4}, 1e-6),  # lower, upper, asymptote (bisection tol 1e-6)
    "geodesic": ({0, 1}, 1e-9),  # center, radius
}


@dataclass(frozen=True)
class Step:
    command: str
    flags: tuple[str, ...]
    artifact: str
    seeded: bool = False  # inputs depend on the seed
    params: dict = field(default_factory=dict, compare=False)

    @property
    def argv(self) -> list[str]:
        out_flag = "--emit" if self.command == "geodesic" else "--output"
        return [self.command, *self.flags, out_flag, self.artifact]


BALL_SIEVE_NORMS = (1000, 1778, 3162, 5623, 10000)  # integer quarter-decades
PI_FLAGS = ("--use-pi", "--alphabet", "2", "--xi-bound", "1000",
            "--omega-bound", "100", "--aleph-bound", "1000000")


def _discriminant_in_band(rng: random.Random, base: int) -> int:
    """A non-square D = 1 mod 4 in [base, base + 8000)."""
    d = base + 4 * rng.randrange(2000) + 1
    while isqrt(d) ** 2 == d:
        d += 4
    return d


def steps(workload: str, seed: int) -> list[Step]:
    if workload == "ball_sieve":
        return [
            Step("sieve-remainders", ("--alphabet", "3", "--norm", "10000", "--cutoff", "100"),
                 "remainders.csv"),
            Step("squarefree-count", ("--alphabet", "3", "--norm", "10000"),
                 "squarefree_count.csv"),
            Step("hensley-fit", ("--alphabet", "3", "--norms",
                                 ",".join(map(str, BALL_SIEVE_NORMS))), "hensley_fit.csv"),
            Step("enumerate", ("--alphabet", "3", "--norm", "1000", "--parity", "any"),
                 "enumerate.jsonl"),
        ]
    if workload == "pi_ledger":
        return [
            Step("sieve-remainders", (*PI_FLAGS, "--cutoff", "1000"), "remainders.csv"),
            Step("almost-prime", (*PI_FLAGS, "--threshold", "100"), "almost_prime.csv"),
        ]
    if workload == "fiber_forms":
        rng = random.Random(seed)
        t = rng.randint(2900, 3100)
        d1 = _discriminant_in_band(rng, 4_000_000)
        d2 = _discriminant_in_band(rng, 10_000_000)
        word = ",".join(str(rng.randint(1, 9)) for _ in range(18))
        expsum_seed = rng.randrange(10**6)
        return [
            Step("discriminants", ("--alphabet", "10", "--max-T", "300000"), "discriminants.csv"),
            Step("trace-fiber", ("--alphabet", "10", "--trace", str(t)), "trace_fiber.jsonl",
                 True, {"t": t}),
            Step("class-census", ("--disc", "1365", "--alphabet", "35"), "class_census.json"),
            Step("class-cycles", ("--disc", str(d1)), "class_cycles_1.json", True, {"d": d1}),
            Step("class-cycles", ("--disc", str(d2)), "class_cycles_2.json", True, {"d": d2}),
            Step("geodesic", ("--word", word), "arcs.csv", True, {"word": word}),
            Step("densities", ("--modulus", "3000"), "densities.csv"),
            Step("expsum", ("--prime", "113", "--samples", "4", "--seed", str(expsum_seed)),
                 "expsum.csv", True, {"seed": expsum_seed}),
            Step("dimension", ("--alphabets", "2,3", "--depth", "13"), "dimension.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ball_sieve", "pi_ledger", "fiber_forms")
