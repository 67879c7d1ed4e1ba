"""Independent exact-arithmetic oracles used only by the tests.

Deliberately brute force: rational Gaussian elimination, Caratheodory-style
subset enumeration, a box odometer and a box-product point enumerator,
sharing no code with the package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence


def exact_rank(rows) -> int:
    """Rank of an integer matrix over the rationals."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    n_cols = len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def solve_unique(matrix, rhs):
    """Solve matrix @ x = rhs exactly; None unless a unique solution exists."""
    m, n = len(matrix), len(matrix[0])
    rows = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    lead = 0
    for col in range(n):
        pivot = next((r for r in range(lead, m) if rows[r][col] != 0), None)
        if pivot is None:
            return None  # rank-deficient: no unique solution
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [v / pv for v in rows[lead]]
        for r in range(m):
            if r != lead and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[lead])]
        lead += 1
    for r in range(lead, m):
        if rows[r][n] != 0:
            return None  # inconsistent
    return [rows[i][n] for i in range(n)]


def in_convex_hull(point, generators) -> bool:
    """Exact membership of `point` in the convex hull of `generators`.

    By Caratheodory, membership implies a convex combination over some
    affinely independent subset of size <= dim + 1; those subsets are exactly
    the ones whose barycentric system has a unique solution, so enumerating
    them is a complete check.
    """
    dim = len(point)
    gens = list(generators)
    for size in range(1, min(len(gens), dim + 1) + 1):
        for subset in itertools.combinations(gens, size):
            matrix = [[subset[j][i] for j in range(size)] for i in range(dim)]
            matrix.append([1] * size)
            rhs = list(point) + [1]
            lam = solve_unique(matrix, rhs)
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


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
    last_lo, last_hi = lower[dim - 1], upper[dim - 1]
    if last_hi < last_lo:
        return 0, []
    width = last_hi - last_lo + 1
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return 0, [0] * width

    inner = [range(lo, hi + 1) for lo, hi in zip(lower[:-1], upper[:-1])]
    profile = []
    for x_last in range(last_lo, last_hi + 1):
        # Fold the fixed last coordinate into each row's bound.
        reduced = [
            (row[:-1], bound - row[-1] * x_last) for row, bound in zip(coeffs, bounds)
        ]
        hits = 0
        for rest in itertools.product(*inner):
            ok = True
            for row, limit in reduced:
                acc = 0
                for c, v in zip(row, rest):
                    acc += c * v
                if acc > limit:
                    ok = False
                    break
            if ok:
                hits += 1
        profile.append(hits)
    return sum(profile), profile


def box_points(
    coeffs: Sequence[Sequence[int]],
    bounds: Sequence[int],
    lower: Sequence[int],
    upper: Sequence[int],
) -> list[tuple[int, ...]]:
    """Integer points of {x : coeffs . x <= bounds rowwise} in the box, in lex order.

    Every cell of the box product is visited and checked against every row.
    """
    axes = [range(lo, hi + 1) for lo, hi in zip(lower, upper)]
    points = []
    for point in itertools.product(*axes):
        if all(
            sum(c * v for c, v in zip(row, point)) <= bound
            for row, bound in zip(coeffs, bounds)
        ):
            points.append(point)
    return points
