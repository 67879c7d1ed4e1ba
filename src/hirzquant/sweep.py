"""Deterministic parameter sweeps written as CSV or JSON artifacts.

Rows are emitted in sorted (d, a, b, n) order and rendering is pure string
assembly over exact integers, so a sweep re-run with the same spec produces
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterator

from . import analysis, counting
from .polytope import FibrationParams, build_hirzebruch_polytope
from .quantization import quantization_dimension

VALID_METHODS = ("closed", "slice", "brute")

# The count each optional method adds to a row, keyed by method name.
_EXTRA_COUNTS = {
    "slice": lambda p: counting.count_slice_sum(p).value,
    "brute": lambda p: counting.count_brute_force(build_hirzebruch_polytope(p)).value,
}


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter ranges, count methods to run, and output format."""

    d_range: tuple[int, int]
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    n_range: tuple[int, int]
    methods: tuple[str, ...] = ("closed",)
    fmt: str = "csv"

    def __post_init__(self):
        for name, (lo, hi) in zip("dabn", self.ranges):
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}:{hi}")
            floor = 1 if name == "d" else 0
            if lo < floor:
                raise ValueError(f"{name} range must start at {floor} or above, got {lo}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {', '.join(VALID_METHODS)}")
        if "closed" not in self.methods:
            object.__setattr__(self, "methods", ("closed",) + tuple(self.methods))

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        return (self.d_range, self.a_range, self.b_range, self.n_range)

    def __len__(self) -> int:
        """The number of (d, a, b, n) tuples, i.e. of rows in the output."""
        return prod(hi - lo + 1 for lo, hi in self.ranges)

    def tuples(self) -> Iterator[FibrationParams]:
        for d, a, b, n in product(*map(_span, self.ranges)):
            yield FibrationParams(d=d, a=a, b=b, n=n)


def render_sweep(spec: SweepSpec) -> bytes:
    """Render the sweep to its output bytes (UTF-8, LF line endings)."""
    n_max = spec.n_range[1]
    extras = [m for m in _EXTRA_COUNTS if m in spec.methods]
    rows = []
    for d, a, b in product(*map(_span, spec.ranges[:3])):
        gap = _gap_at(d, a, b, n_max)
        for n in _span(spec.n_range):
            p = FibrationParams(d=d, a=a, b=b, n=n)
            counts = [_EXTRA_COUNTS[m](p) for m in extras]
            rows.append((p, quantization_dimension(p), analysis.symplectic_volume(p), gap, counts))
    keys = [f"{m}_count" for m in extras]
    if spec.fmt == "csv":
        return _render_csv(keys, rows)
    return _render_json(keys, rows)


def _gap_at(d: int, a: int, b: int, n_max: int) -> Fraction | None:
    # The density-series gap is only defined away from the degenerate cases.
    if b < 1 or n_max < 1:
        return None
    return analysis.ratio_convergence(d, a, b, [n_max])[0].gap


def _render_csv(keys: list[str], rows) -> bytes:
    header = ["d", "a", "b", "n", "dimension", *keys]
    header += ["volume_num", "volume_den", "gap_at_nmax_num", "gap_at_nmax_den"]
    lines = [",".join(header)]
    for p, record, volume, gap, counts in rows:
        cells = [p.d, p.a, p.b, p.n, record.dimension, *counts]
        cells += [volume.numerator, volume.denominator]
        cells += ["", ""] if gap is None else [gap.numerator, gap.denominator]
        lines.append(",".join(map(str, cells)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_json(keys: list[str], rows) -> bytes:
    payload = []
    for _, record, volume, gap, counts in rows:
        obj = record.to_json()
        obj["volume"] = analysis.rational_json(volume)
        obj["gap_at_nmax"] = None if gap is None else analysis.rational_json(gap)
        obj.update(zip(keys, map(str, counts)))
        payload.append(obj)
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _span(rng: tuple[int, int]) -> range:
    return range(rng[0], rng[1] + 1)
