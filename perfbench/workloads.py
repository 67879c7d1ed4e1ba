"""The benchmark's workloads: each turns a seed into a fixed cycle of CLI calls.

An op is one in-process call of ``hirzquant.cli.main(argv)``. A workload's
ops form a cycle that the benchmark repeats whole, so every run measures the
same mix. The package receives only the generated argv.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import oracle


@dataclass(frozen=True)
class Op:
    """One CLI call, the checker of its result, and the file it writes, if any."""

    argv: tuple[str, ...]
    check: Callable[[oracle.Result], bool] = field(compare=False)
    out_path: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int, str], list[Op]]
    # The traced run asserts that the scan kernel is never called.
    bypasses_kernel: bool = False


# Box-cell bands of the scan ladder, one polytope each: (name, d, lowest, highest).
# Scan time is close to proportional to box cells, so each band spans only
# about 4% either side of the default ladder's polytope: a seed changes the
# polytope's shape but hardly the work, and throughput stays comparable.
LADDER_BANDS = (
    ("small", 1, 3_400, 3_700),
    ("mid", 2, 41_000, 44_000),
    ("large", 3, 275_000, 295_000),
)
# The first three cases of the original kernel ladder; the default seed runs them.
DEFAULT_LADDER = ((1, 5, 40, 2), (2, 4, 20, 2), (3, 3, 12, 2))
DEFAULT_SEED = 0

LARGE_B = 50_000
ASYMPTOTIC_TWISTS = (10, 100, 1000)


def _param_argv(d: int, a: int, b: int, n: int) -> tuple[str, ...]:
    return ("--d", str(d), "--a", str(a), "--b", str(b), "--n", str(n))


def band_candidates(d: int, lowest: int, highest: int) -> list[tuple[int, int, int, int]]:
    """All (d, a, b, n) with a <= 9, 1 <= n <= 4, b <= 99 whose box lies in the band."""
    return [
        (d, a, b, n)
        for a in range(10)
        for n in range(1, 5)
        for b in range(100)
        if lowest <= oracle.box_cells(d, a, b, n) <= highest
    ]


def ladder(seed: int) -> tuple[tuple[int, int, int, int], ...]:
    """One polytope per band; the default seed gives the original ladder."""
    if seed == DEFAULT_SEED:
        return DEFAULT_LADDER
    rng = random.Random(seed)
    return tuple(rng.choice(band_candidates(d, lo, hi)) for _, d, lo, hi in LADDER_BANDS)


def band_of(cells: int) -> str | None:
    """The ladder band a scan of this many box cells falls in, if any."""
    for name, _, lo, hi in LADDER_BANDS:
        if lo <= cells <= hi:
            return name
    return None


def verify_ops(seed: int, tmpdir: str) -> list[Op]:
    """Default `verify`; the seed is ignored, as the workload is the default invocation."""
    return [Op(("verify",), oracle.check_verify)]


def scan_ladder_ops(seed: int, tmpdir: str) -> list[Op]:
    """`quantize --method all` on the seed's ladder, smallest box first."""
    return [
        Op(("quantize", "--method", "all") + _param_argv(*p), partial(oracle.check_quantize_all, *p))
        for p in ladder(seed)
    ]


def closed_large_b_ops(seed: int, tmpdir: str) -> list[Op]:
    """Closed and slice routes at d=3, b=5e4, then `asymptotics` at d=2; the seed picks a and n."""
    rng = random.Random(seed)
    a, n = rng.randint(0, 9), rng.randint(2, 9)
    p = (3, a, LARGE_B, n)
    twists = ",".join(str(t) for t in ASYMPTOTIC_TWISTS)
    return [
        Op(("quantize", "--method", "closed") + _param_argv(*p), partial(oracle.check_quantize_closed, *p)),
        Op(("quantize", "--method", "slice") + _param_argv(*p), partial(oracle.check_quantize_slice, *p)),
        Op(
            ("asymptotics", "--d", "2", "--a", str(a), "--b", str(LARGE_B), "--n-list", twists),
            partial(oracle.check_asymptotics, 2, a, LARGE_B, ASYMPTOTIC_TWISTS),
        ),
    ]


def sweep_grid_ops(seed: int, tmpdir: str) -> list[Op]:
    """A 3x6x20x11 = 3960-row csv sweep; the seed shifts the a and n ranges up by 0..3."""
    rng = random.Random(seed)
    a_lo, n_lo = rng.randint(0, 3), rng.randint(0, 3)
    ranges = ((1, 3), (a_lo, a_lo + 5), (1, 20), (n_lo, n_lo + 10))
    out_path = os.path.join(tmpdir, "sweep.csv")
    flags = []
    for flag, (lo, hi) in zip(("--d", "--a", "--b", "--n"), ranges):
        flags += [flag, f"{lo}:{hi}"]
    argv = ("sweep", *flags, "--methods", "closed,slice", "--format", "csv", "--out", out_path)
    return [Op(argv, partial(oracle.check_sweep, *ranges, out_path), out_path=out_path)]


# Why each workload is in the benchmark, with its measured layer shares, is
# recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_default", verify_ops),
        Workload("scan_ladder", scan_ladder_ops),
        Workload("closed_large_b", closed_large_b_ops, bypasses_kernel=True),
        Workload("sweep_grid", sweep_grid_ops, bypasses_kernel=True),
    )
}
