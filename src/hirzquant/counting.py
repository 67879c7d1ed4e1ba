"""Lattice-point counts by three independent routes, plus the monomial basis.

The brute-force route is the ground truth every closed form is checked
against. It scans the polytope with one loop nest whose bounds come from the
rows (Ancourt & Irigoin, "Scanning polyhedra with DO loops", PPoPP 1991):
each outer axis runs only over the values every row still allows once the
outer coordinates are fixed and the inner terms take their box minimum, and
the innermost axis is counted in one step as the length of the interval all
rows leave open. Arithmetic is exact at any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .combinat import binomial
from .polytope import FibrationParams, HPolytope, LatticePoint, SimplexParams, bounding_box, contains
from .quantization import slice_terms


class CountMethod(Enum):
    BRUTE_FORCE = "BruteForce"
    SLICE_SUM = "SliceSum"
    CLOSED_FORM = "ClosedForm"


@dataclass(frozen=True)
class CountResult:
    """A nonnegative exact count plus the route that produced it."""

    value: int
    method: CountMethod

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"count cannot be negative, got {self.value}")

    def to_json(self) -> dict:
        # Decimal string: counts overflow 64-bit JSON consumers at large parameters.
        return {"value": str(self.value), "method": self.method.value}


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent tuples of the monomial basis, in lexicographic order."""

    exponents: tuple[LatticePoint, ...]

    def __len__(self) -> int:
        return len(self.exponents)

    def to_json(self) -> list:
        return [list(e) for e in self.exponents]


def count_brute_force(poly: HPolytope) -> CountResult:
    """Exact point count by scanning the polytope inside its bounding box."""
    total, _ = _boxed_count(poly)
    return CountResult(value=total, method=CountMethod.BRUTE_FORCE)


def brute_force_slice_counts(poly: HPolytope) -> tuple[int, ...]:
    """Per-height counts along the last coordinate, from the same single scan.

    Entry i counts the points whose last coordinate is box_lower[-1] + i; for
    the twisted-bundle family this is exactly the foliation profile.
    """
    _, profile = _boxed_count(poly)
    return tuple(profile)


def count_simplex_closed_form(p: SimplexParams) -> CountResult:
    """Points of the scaled simplex in closed form: C(b + N, N)."""
    return CountResult(value=binomial(p.b + p.N, p.N), method=CountMethod.CLOSED_FORM)


def count_slice_sum(p: FibrationParams) -> CountResult:
    """Sum of per-height simplex counts: sum_t C(a + n*(b-t) + d, d) for t = 0..b."""
    total = sum(slice_terms(p))
    return CountResult(value=total, method=CountMethod.SLICE_SUM)


def monomial_basis(poly: HPolytope) -> MonomialBasis:
    """All lattice points of the polytope as exponent tuples, in lex order."""
    lo, hi = bounding_box(poly)
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    points = tuple(pt for pt in itertools.product(*axes) if contains(poly, pt))
    return MonomialBasis(exponents=points)


def _boxed_count(poly: HPolytope) -> tuple[int, list[int]]:
    lo, hi = bounding_box(poly)
    coeffs = [row for row, _ in poly.rows]
    bounds = [bound for _, bound in poly.rows]
    return count_box(coeffs, bounds, lo, hi)


def count_box(
    coeffs: Sequence[Sequence[int]],
    bounds: Sequence[int],
    lower: Sequence[int],
    upper: Sequence[int],
) -> tuple[int, list[int]]:
    """Count integer points of {x : coeffs . x <= bounds rowwise} in the box.

    The box is the integer product [lower_j, upper_j]. Returns (total, profile)
    where profile[i] counts the points whose last coordinate is lower[-1] + i.
    """
    dim = len(lower)
    last_lo, last_hi = lower[-1], upper[-1]
    if last_hi < last_lo:
        return 0, []
    profile = [0] * (last_hi - last_lo + 1)
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return 0, profile

    # Sort the rows by their lowest nonzero axis. The rows with a nonzero
    # coefficient below axis j then form a prefix, and only that prefix is
    # carried into the loops inside axis j: axis j's own interval settles the
    # others exactly. All rows are live at the last axis, so an all-zero row
    # with a negative bound empties the scan there.
    lowest = [next((j for j, c in enumerate(row) if c), dim) for row in coeffs]
    rows = sorted(zip(lowest, coeffs, bounds), key=lambda row: row[0])
    cols = [[row[j] for _, row, _ in rows] for j in range(dim)]
    # step[j]: the axis-j coefficients of the rows still live below axis j.
    step = [None] + [[row[j] for low, row, _ in rows if low < j] for j in range(1, dim)]
    # floors[j][r]: the box minimum of row r's terms on the axes below j. A
    # value of axis j that a row rules out even then is out for every inner
    # coordinate. floors[0] is all zero, which makes axis 0's interval exact.
    floors = [[0] * len(rows)]
    for lo, hi, col in zip(lower, upper, cols[:-1]):
        floors.append([m + min(c * lo, c * hi) for m, c in zip(floors[-1], col)])

    def interval(j: int, slack: list[int]) -> tuple[int, int]:
        # Values of axis j with cols[j][r] * x <= slack[r] - floors[j][r] for
        # every live row r; zip stops at the end of slack, the live prefix.
        lo, hi = lower[j], upper[j]
        for c, s, m in zip(cols[j], slack, floors[j]):
            room = s - m
            if c > 0:
                hi = min(hi, room // c)
            elif c < 0:
                lo = max(lo, -(room // -c))
            elif room < 0:
                return 1, 0
        return lo, hi

    def count(j: int, slack: list[int]) -> int:
        # Points on axes 0..j, given each live row's bound minus its outer terms.
        lo, hi = interval(j, slack)
        if j == 0:
            return max(0, hi - lo + 1)
        col = step[j]
        inner = ([s - c * x for s, c in zip(slack, col)] for x in range(lo, hi + 1))
        if j == 1:  # count(0, ...) inlined: this is the hottest loop
            return sum(max(0, b - a + 1) for a, b in map(interval, itertools.repeat(0), inner))
        return sum(count(j - 1, s) for s in inner)

    top = [bound for _, _, bound in rows]
    lo, hi = interval(dim - 1, top)
    for x in range(lo, hi + 1):
        if dim == 1:  # axis 0 is the last axis, and its interval is exact
            profile[x - last_lo] = 1
        else:
            profile[x - last_lo] = count(dim - 2, [s - c * x for s, c in zip(top, step[-1])])
    return sum(profile), profile
