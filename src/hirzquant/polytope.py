"""Moment polytopes of projective spaces and twisted projective-line bundles.

Everything here is exact integer data. Two families are constructed:

* the scaled standard simplex in R^N, ``{x >= 0, sum x_i <= b}``, which is the
  moment polytope of CP^N with symplectic scale b;
* the twisted-bundle polytope in R^(d+1),
  ``{x >= 0, x_{d+1} <= b, sum_{i<=d} x_i + n*x_{d+1} <= a + n*b}``,
  the moment polytope of the n-twisted CP^1-bundle over CP^d with base scale a
  and fiber scale b. The slanted facet (slope -n in the fiber direction) is
  stored in rearranged integer-linear form so every row has integer data.

Half-space rows are kept exactly as constructed (no deduplication) so that
serialization is bit-exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

LatticePoint = tuple[int, ...]
# A (lower, upper) integer box, as `bounding_box` returns it.
Box = tuple[LatticePoint, LatticePoint]


class UnboundedPolytopeError(ValueError):
    """Raised when a bounding box cannot be certified for an H-polytope."""


@dataclass(frozen=True)
class SimplexParams:
    """Parameters (N, b) of the scaled simplex: ambient rank N, scale b."""

    N: int
    b: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"simplex rank must be >= 1, got N={self.N}")
        if self.b < 0:
            raise ValueError(f"simplex scale must be >= 0, got b={self.b}")


@dataclass(frozen=True)
class FibrationParams:
    """Parameters (d, a, b, n) of the twisted-bundle family.

    d: complex dimension of the base projective space (>= 1)
    a: base symplectic scale (>= 0)
    b: fiber symplectic scale (>= 0)
    n: twisting integer of the line bundle (>= 0)
    """

    d: int
    a: int
    b: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"base dimension must be >= 1, got d={self.d}")
        for name in ("a", "b", "n"):
            if getattr(self, name) < 0:
                raise ValueError(f"parameter {name} must be >= 0, got {getattr(self, name)}")

    def to_json(self) -> dict:
        return {"d": self.d, "a": self.a, "b": self.b, "n": self.n}


@dataclass(frozen=True)
class HPolytope:
    """Integer half-space representation {x : coeffs . x <= bound, rowwise}.

    Rows are (coeffs, bound) pairs with len(coeffs) == dim. Instances built by
    this module are bounded; arbitrary instances are only certified bounded
    when `bounding_box` succeeds (``from_json`` runs that check).
    """

    dim: int
    rows: tuple[tuple[LatticePoint, int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"polytope dimension must be >= 1, got {self.dim}")
        frozen = []
        for coeffs, bound in self.rows:
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != self.dim:
                raise ValueError(f"row {coeffs} has length {len(coeffs)}, expected {self.dim}")
            frozen.append((coeffs, int(bound)))
        object.__setattr__(self, "rows", tuple(frozen))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "rows": [{"coeffs": list(coeffs), "bound": bound} for coeffs, bound in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HPolytope":
        poly = cls(
            dim=int(obj["dim"]),
            rows=tuple((tuple(row["coeffs"]), row["bound"]) for row in obj["rows"]),
        )
        bounding_box(poly)  # raises UnboundedPolytopeError if not certifiable
        return poly


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated vertex list, lexicographically sorted.

    `degenerate` is set when parameter coincidences (a=0 or b=0) collapse
    vertices together, leaving fewer than the generic 2d+2 points.
    """

    points: tuple[LatticePoint, ...]
    degenerate: bool

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "vertices": [list(p) for p in self.points],
            "degenerate": self.degenerate,
            "count": len(self.points),
        }


def build_simplex(p: SimplexParams) -> HPolytope:
    """H-representation of {x in R^N : x_i >= 0, sum x_i <= b}."""
    rows = [(_axis_point(p.N, i, -1), 0) for i in range(p.N)]
    rows.append((tuple([1] * p.N), p.b))
    return HPolytope(dim=p.N, rows=tuple(rows))


def build_hirzebruch_polytope(p: FibrationParams) -> HPolytope:
    """H-representation of the twisted-bundle moment polytope in R^(d+1).

    Rows: x_i >= 0 for all i; x_{d+1} <= b; and the slanted facet
    sum_{i<=d} x_i + n*x_{d+1} <= a + n*b.
    """
    dim = p.d + 1
    rows = [(_axis_point(dim, i, -1), 0) for i in range(dim)]
    rows.append((_axis_point(dim, dim - 1, 1), p.b))
    slanted = tuple([1] * p.d + [p.n])
    rows.append((slanted, p.a + p.n * p.b))
    return HPolytope(dim=dim, rows=tuple(rows))


def vertices(p: FibrationParams) -> VertexSet:
    """Vertex set of the twisted-bundle polytope from its fixed-point images.

    The 2d+2 generic vertices are 0, b*e_{d+1}, (a+n*b)*e_i and
    a*e_i + b*e_{d+1} for i = 1..d; coincident points are merged and flagged.
    """
    dim = p.d + 1
    raw: set[LatticePoint] = {tuple([0] * dim), _axis_point(dim, dim - 1, p.b)}
    for i in range(p.d):
        raw.add(_axis_point(dim, i, p.a + p.n * p.b))
        point = [0] * dim
        point[i] = p.a
        point[dim - 1] = p.b
        raw.add(tuple(point))
    return VertexSet(points=tuple(sorted(raw)), degenerate=len(raw) < 2 * p.d + 2)


def contains(poly: HPolytope, x: Sequence[int]) -> bool:
    """Exact membership test: every row satisfies coeffs . x <= bound."""
    if len(x) != poly.dim:
        raise ValueError(f"point has length {len(x)}, polytope dimension is {poly.dim}")
    return all(
        sum(c * v for c, v in zip(coeffs, x)) <= bound for coeffs, bound in poly.rows
    )


def slice_simplex(p: FibrationParams, t: int) -> SimplexParams:
    """Cross-section of the twisted-bundle polytope at fiber height t.

    The section at integer height t (0 <= t <= b) is the standard d-simplex
    scaled by a + n*(b - t).
    """
    if not 0 <= t <= p.b:
        raise ValueError(f"slice height t={t} outside [0, {p.b}]")
    return SimplexParams(N=p.d, b=p.a + p.n * (p.b - t))


def bounding_box(poly: HPolytope) -> Box:
    """Componentwise integer bounds containing the polytope.

    Bounds are derived by interval propagation over the rows: a row gives a
    bound on coordinate j once the extreme value of its remaining terms is
    known. Raises UnboundedPolytopeError when no finite box can be certified
    (which cannot happen for the two families built here).
    """
    lo: list[int | None] = [None] * poly.dim
    hi: list[int | None] = [None] * poly.dim
    for _ in range(100):
        changed = False
        for coeffs, bound in poly.rows:
            for j, cj in enumerate(coeffs):
                if cj == 0:
                    continue
                rest = 0
                known = True
                for k, ck in enumerate(coeffs):
                    if k == j or ck == 0:
                        continue
                    edge = lo[k] if ck > 0 else hi[k]
                    if edge is None:
                        known = False
                        break
                    rest += ck * edge
                if not known:
                    continue
                num = bound - rest
                if cj > 0:
                    cand = _floor_div(num, cj)
                    if hi[j] is None or cand < hi[j]:
                        hi[j] = cand
                        changed = True
                else:
                    cand = _ceil_div(num, cj)
                    if lo[j] is None or cand > lo[j]:
                        lo[j] = cand
                        changed = True
        if not changed:
            break
    if any(v is None for v in lo) or any(v is None for v in hi):
        raise UnboundedPolytopeError("no finite bounding box could be derived from the rows")
    return tuple(lo), tuple(hi)


def box_cell_count(poly: HPolytope) -> int:
    """Number of integer points of the bounding box (the brute-force scan size)."""
    return cell_count(bounding_box(poly))


def cell_count(box: Box) -> int:
    """Number of integer points of a (lower, upper) box."""
    cells = 1
    for l, h in zip(*box):
        cells *= max(0, h - l + 1)
    return cells


def dilate(poly: HPolytope, k: int) -> HPolytope:
    """The k-fold dilation kP, obtained by scaling every bound by k >= 1."""
    if k < 1:
        raise ValueError(f"dilation factor must be >= 1, got {k}")
    return HPolytope(dim=poly.dim, rows=tuple((coeffs, k * bound) for coeffs, bound in poly.rows))


def _axis_point(dim: int, index: int, value: int) -> LatticePoint:
    row = [0] * dim
    row[index] = value
    return tuple(row)


def _floor_div(p: int, q: int) -> int:
    if q < 0:
        p, q = -p, -q
    return p // q


def _ceil_div(p: int, q: int) -> int:
    if q < 0:
        p, q = -p, -q
    return -((-p) // q)
