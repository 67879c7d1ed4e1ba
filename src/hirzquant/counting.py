"""Lattice-point counts by three independent routes, plus the monomial basis.

The brute-force route is the ground truth every closed form is checked
against. It scans the polytope with one loop nest whose bounds come from the
rows (Ancourt & Irigoin, "Scanning polyhedra with DO loops", PPoPP 1991):
each outer axis runs only over the values every row still allows once the
outer coordinates are fixed and the inner terms take their box minimum.
Below the outermost axis the two innermost axes are counted together: with
the outer coordinates fixed they span a polygon whose axis-0 bounds are the
minimum and maximum of lines in x1, so between two crossings of those lines
its points are two floor sums (`combinat.floor_sum`, O(log) steps each), and
no loop runs over axis 1 (Beck & Robins, "Computing the Continuous
Discretely", ch. 1-2). The kernel's work then follows the number of prefixes
on axes 2 and up. The monomial basis walks the same loop nest, yielding each
point of the innermost interval instead of counting it, so the work of
listing the basis follows the number of points, not of box cells.
Arithmetic is exact at any size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .combinat import binomial, floor_sum
from .polytope import Box, FibrationParams, HPolytope, LatticePoint, SimplexParams, bounding_box
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


def count_brute_force(poly: HPolytope, box: Box | None = None) -> CountResult:
    """Exact point count by scanning the polytope inside its bounding box.

    A caller that has already derived the box, to size the scan, passes it.
    """
    total, _ = count_box(*_box_system(poly, box))
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


def lattice_points(poly: HPolytope, box: Box | None = None) -> Iterator[LatticePoint]:
    """The polytope's lattice points in lex order, one at a time.

    The bounding box, unless given, is derived at the call, so an unbounded
    polytope raises UnboundedPolytopeError here rather than at the first point.
    """
    return walk_box(*_box_system(poly, box))


def _box_system(
    poly: HPolytope, box: Box | None = None
) -> tuple[list, list, LatticePoint, LatticePoint]:
    """The polytope as the (coeffs, bounds, lower, upper) that both scans take."""
    lo, hi = bounding_box(poly) if box is None else box
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
    The last axis runs one value at a time, as the profile needs, and so does
    every axis from 2 up; below them, axes 0 and 1 are one plane count. In
    dimension 2 the last axis is axis 1, and axis 0 is one interval.
    """
    dim = len(lower)
    last_lo, last_hi = lower[-1], upper[-1]
    if last_hi < last_lo:
        return 0, []
    profile = [0] * (last_hi - last_lo + 1)
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return 0, profile

    top, step, interval, plane = _loop_nest(coeffs, bounds, lower, upper)

    def count(j: int, slack: list[int]) -> int:
        # Points on axes 0..j, given each live row's bound minus its outer terms.
        if j == 1:
            return plane(slack)
        lo, hi = interval(j, slack)
        if j == 0:
            return max(0, hi - lo + 1)
        col = step[j]
        return sum(count(j - 1, [s - c * x for s, c in zip(slack, col)]) for x in range(lo, hi + 1))

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
    top, step, interval, _ = _loop_nest(
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
    (top, step, interval, plane): top is the slack of the outermost loop,
    every row's bound in the sorted row order; fixing x on axis j turns that
    axis's slack into [s - c * x for s, c in zip(slack, step[j])], the slack
    of axis j - 1; interval(j, slack) is the (lo, hi) range of axis j that
    every live row allows, empty when lo > hi; and plane(slack) is the number
    of points on axes 0 and 1 given the slack of axis 1, from `_plane`, whose
    static part is fixed here once per scan (None below dimension 3, where
    no outer axis fixes a plane).
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

    top = [bound for _, _, bound in rows]
    if dim < 3:  # count_box counts axes 0 and 1 together only below an outer axis
        return top, step, interval, None
    live = [(row, bound) for low, row, bound in rows if low == 0]
    return top, step, interval, _plane(live, lower, upper, interval)


def _plane(live, lower: Sequence[int], upper: Sequence[int], interval):
    """The count of axes 0 and 1 together, given the slack of axis 1.

    `live` holds the (coeffs, bound) rows with a nonzero axis-0 coefficient,
    in loop order. With the outer coordinates fixed, live row r reads
    c0 * x0 <= s_r - c1 * x1; put g_r(x1) = (s_r - c1 * x1) / |c0|. Axis 0
    then runs from -floor(min g) over the rows with c0 < 0 and the line
    -lower[0] (the "down" side), to floor(min g) over the rows with c0 > 0
    and the line upper[0] (the "up" side). So the plane holds the sum over
    x1 of floor(min_up g) + floor(min_down g) + 1 where min_up g + min_down g
    >= 0, and no point elsewhere.

    Between two crossings of these lines (pairs on one side, where its
    minimum may switch, and pairs across, where the sum may change sign) each
    minimum is one line, so each stretch of x1 is two floor sums (Beck &
    Robins, "Computing the Continuous Discretely", ch. 1). A stretch starts
    at the first x1 past a crossing, so the lines lowest at its first x1 are
    lowest all along it; where the sides part inside it, only its last x1
    can hold points. A crossing on the last x1, where the polygon closes at a
    vertex, then adds no stretch. The slopes, denominators and the pairs of
    lines that are not parallel are fixed here, once per scan, and a box
    bound that some row on its side already implies everywhere in the box
    is left out.
    """
    n_live = len(live)
    # Line i is (slope[i] * x1 + s_i) / den[i]; scaled to the common
    # denominator of all lines it is (slope[i] * x1 + s_i) * weight[i].
    # Lines n_live and n_live + 1 are the box's bounds on axis 0.
    slope = [-row[1] for row, _ in live] + [0, 0]
    den = [abs(row[0]) for row, _ in live] + [1, 1]
    scale = math.lcm(*den)
    weight = [scale // m for m in den]
    box = [upper[0], -lower[0]]
    up = [i for i, (row, _) in enumerate(live) if row[0] > 0]
    down = [i for i, (row, _) in enumerate(live) if row[0] < 0]

    def peak(row, bound) -> int:
        # floor(g) at its largest in the box, where its terms on axes 1 and up
        # take their box minimum.
        rest = sum(min(c * lo, c * hi) for c, lo, hi in zip(row[1:], lower[1:], upper[1:]))
        return (bound - rest) // abs(row[0])

    # A box bound is a line of its side unless some row there never rises above it.
    for side, edge in ((up, n_live), (down, n_live + 1)):
        if all(peak(*live[i]) > box[edge - n_live] for i in side):
            side.append(edge)
    # A crossing of lines i and j is at x1 = (wi * s_i + wj * s_j) / dx.
    crossings = []
    for side in (up, down):
        for i, j in itertools.combinations(side, 2):
            dx = slope[i] * weight[i] - slope[j] * weight[j]
            if dx:
                crossings.append((i, -weight[i], j, weight[j], dx))
    for i in up:
        for j in down:
            dx = slope[i] * weight[i] + slope[j] * weight[j]
            if dx:
                crossings.append((i, -weight[i], j, -weight[j], dx))
    up_lines, down_lines = ([(i, slope[i], weight[i]) for i in side] for side in (up, down))

    def plane(slack: list[int]) -> int:
        lo, hi = interval(1, slack)
        if lo > hi:
            return 0
        s = slack[:n_live] + box
        cuts = {hi + 1}
        for i, wi, j, wj, dx in crossings:
            x = (wi * s[i] + wj * s[j]) // dx + 1  # the first x1 past the crossing
            if lo < x <= hi:
                cuts.add(x)
        ends = sorted(cuts)
        total = 0
        for first, last in zip([lo] + ends, [x - 1 for x in ends]):
            # The lines lowest at the stretch's first x1 are lowest all along it.
            top, u = min(((a * first + s[i]) * w, i) for i, a, w in up_lines)
            bottom, d = min(((a * first + s[i]) * w, i) for i, a, w in down_lines)
            au, mu, ad, md = slope[u], den[u], slope[d], den[d]
            if top + bottom >= 0:
                n = last - first + 1
                total += n + floor_sum(n, mu, au, au * first + s[u])
                total += floor_sum(n, md, ad, ad * first + s[d])
            else:
                # The sides part after the first x1: only the last can hold points.
                total += max(0, (au * last + s[u]) // mu + (ad * last + s[d]) // md + 1)
        return total

    return plane
