"""Lattice-point counts by three independent routes, plus the monomial basis.

The brute-force route is the ground truth every closed form is checked
against. It scans the polytope with one loop nest whose bounds come from the
rows (Ancourt & Irigoin, "Scanning polyhedra with DO loops", PPoPP 1991):
each outer axis runs only over the values every row still allows once the
outer coordinates are fixed and the inner terms take their box minimum, and
the innermost axis is counted in one step as the length of the interval all
rows leave open. The monomial basis walks the same loop nest, yielding each
point of that interval instead of counting it, so the work of listing the
basis follows the number of points, not of box cells. Arithmetic is exact at
any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .combinat import binomial
from .polytope import FibrationParams, HPolytope, LatticePoint, SimplexParams, bounding_box
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
    total, _ = count_box(*_box_system(poly))
    return CountResult(value=total, method=CountMethod.BRUTE_FORCE)


def brute_force_slice_counts(poly: HPolytope) -> tuple[int, ...]:
    """Per-height counts along the last coordinate, from the same single scan.

    Entry i counts the points whose last coordinate is box_lower[-1] + i; for
    the twisted-bundle family this is exactly the foliation profile.
    """
    _, profile = count_box(*_box_system(poly))
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
    return MonomialBasis(exponents=tuple(lattice_points(poly)))


def lattice_points(poly: HPolytope) -> Iterator[LatticePoint]:
    """The polytope's lattice points in lex order, one at a time.

    The bounding box is derived at the call, so an unbounded polytope raises
    UnboundedPolytopeError here rather than at the first point.
    """
    return walk_box(*_box_system(poly))


def _box_system(poly: HPolytope) -> tuple[list, list, LatticePoint, LatticePoint]:
    """The polytope as the (coeffs, bounds, lower, upper) that both scans take."""
    lo, hi = bounding_box(poly)
    coeffs = [row for row, _ in poly.rows]
    bounds = [bound for _, bound in poly.rows]
    return coeffs, bounds, lo, hi


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

    top, step, interval = _loop_nest(coeffs, bounds, lower, upper)

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

    lo, hi = interval(dim - 1, top)
    for x in range(lo, hi + 1):
        if dim == 1:  # axis 0 is the last axis, and its interval is exact
            profile[x - last_lo] = 1
        else:
            profile[x - last_lo] = count(dim - 2, [s - c * x for s, c in zip(top, step[-1])])
    return sum(profile), profile


def walk_box(
    coeffs: Sequence[Sequence[int]],
    bounds: Sequence[int],
    lower: Sequence[int],
    upper: Sequence[int],
) -> Iterator[LatticePoint]:
    """Yield the integer points of {x : coeffs . x <= bounds rowwise} in the box.

    The points come in lex order: this is count_box's loop nest run on the
    axis-reversed system, so axis 0 is the outermost loop, and each point is
    built by appending the coordinate each loop fixes.
    """
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return
    top, step, interval = _loop_nest(
        [row[::-1] for row in coeffs], bounds, lower[::-1], upper[::-1]
    )

    def walk(j: int, slack: list[int], prefix: LatticePoint) -> Iterator[LatticePoint]:
        lo, hi = interval(j, slack)
        if j == 0:
            for x in range(lo, hi + 1):
                yield prefix + (x,)
            return
        col = step[j]
        for x in range(lo, hi + 1):
            yield from walk(j - 1, [s - c * x for s, c in zip(slack, col)], prefix + (x,))

    yield from walk(len(lower) - 1, top, ())


def _loop_nest(
    coeffs: Sequence[Sequence[int]],
    bounds: Sequence[int],
    lower: Sequence[int],
    upper: Sequence[int],
):
    """Fix the loop nest's bounds for a box with no empty axis.

    Axis dim - 1 is the outermost loop and axis 0 the innermost. Returns
    (top, step, interval): top is the slack of the outermost loop, every
    row's bound in the sorted row order; fixing x on axis j turns that axis's
    slack into [s - c * x for s, c in zip(slack, step[j])], the slack of
    axis j - 1; and interval(j, slack) is the (lo, hi) range of axis j that
    every live row allows, empty when lo > hi.
    """
    dim = len(lower)
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

    return [bound for _, _, bound in rows], step, interval
