"""Deterministic parameter sweeps written as CSV or JSON artifacts.

Rows are emitted in sorted (d, a, b, n) order and rendering is pure string
assembly over exact integers, so a sweep re-run with the same spec produces
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, counting
from .polytope import FibrationParams, build_hirzebruch_polytope
from .quantization import quantization_dimension

VALID_METHODS = ("closed", "slice", "brute")


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter ranges, count methods to run, and output settings."""

    d_range: tuple[int, int]
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    n_range: tuple[int, int]
    methods: tuple[str, ...] = ("closed",)
    fmt: str = "csv"
    out_path: str = ""

    def __post_init__(self):
        for name, (lo, hi) in (
            ("d", self.d_range),
            ("a", self.a_range),
            ("b", self.b_range),
            ("n", self.n_range),
        ):
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

    def tuples(self) -> list[FibrationParams]:
        return [
            FibrationParams(d=d, a=a, b=b, n=n)
            for d in _span(self.d_range)
            for a in _span(self.a_range)
            for b in _span(self.b_range)
            for n in _span(self.n_range)
        ]


def render_sweep(spec: SweepSpec) -> bytes:
    """Render the sweep to its output bytes (UTF-8, LF line endings)."""
    n_max = spec.n_range[1]
    rows = []
    for p in spec.tuples():
        record = quantization_dimension(p)
        volume = analysis.symplectic_volume(p)
        gap = _gap_at(p.d, p.a, p.b, n_max)
        extra = {}
        if "slice" in spec.methods:
            extra["slice_count"] = counting.count_slice_sum(p).value
        if "brute" in spec.methods:
            poly = build_hirzebruch_polytope(p)
            extra["brute_count"] = counting.count_brute_force(poly).value
        rows.append((p, record, volume, gap, extra))

    if spec.fmt == "csv":
        return _render_csv(spec, rows)
    return _render_json(rows)


def _gap_at(d: int, a: int, b: int, n_max: int) -> Fraction | None:
    # The density-series gap is only defined away from the degenerate cases.
    if b < 1 or n_max < 1:
        return None
    return analysis.ratio_convergence(d, a, b, [n_max])[0].gap


def _render_csv(spec: SweepSpec, rows) -> bytes:
    header = ["d", "a", "b", "n", "dimension"]
    if "slice" in spec.methods:
        header.append("slice_count")
    if "brute" in spec.methods:
        header.append("brute_count")
    header += ["volume_num", "volume_den", "gap_at_nmax_num", "gap_at_nmax_den"]
    lines = [",".join(header)]
    for p, record, volume, gap, extra in rows:
        cells = [str(p.d), str(p.a), str(p.b), str(p.n), str(record.dimension)]
        if "slice" in spec.methods:
            cells.append(str(extra["slice_count"]))
        if "brute" in spec.methods:
            cells.append(str(extra["brute_count"]))
        cells += [str(volume.numerator), str(volume.denominator)]
        if gap is None:
            cells += ["", ""]
        else:
            cells += [str(gap.numerator), str(gap.denominator)]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_json(rows) -> bytes:
    payload = []
    for _, record, volume, gap, extra in rows:
        obj = record.to_json()
        obj["volume"] = analysis.rational_json(volume)
        obj["gap_at_nmax"] = None if gap is None else analysis.rational_json(gap)
        for key in ("slice_count", "brute_count"):
            if key in extra:
                obj[key] = str(extra[key])
        payload.append(obj)
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _span(rng: tuple[int, int]) -> range:
    return range(rng[0], rng[1] + 1)
