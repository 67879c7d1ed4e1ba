"""Exact integer combinatorics used throughout the package."""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exact at any size.

    C(n, k) = 0 for k > n. Negative arguments are rejected: no counting sum in
    this package ever needs them, so a negative argument always signals a
    caller bug.
    """
    if n < 0:
        raise ValueError(f"binomial: negative upper argument n={n}")
    if k < 0:
        raise ValueError(f"binomial: negative lower argument k={k}")
    return math.comb(n, k)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, exact at any size.

    The Euclid-like reduction: split off the whole parts of a/m and b/m,
    which contribute in closed form, then count the remaining lattice points
    under the line by swapping the roles of m and a. Each round shrinks
    (m, a) as Euclid's algorithm does, so the cost is O(log m) integer steps.
    a and b may take either sign; n must be nonnegative and m positive.
    """
    if n < 0:
        raise ValueError(f"floor_sum: negative term count n={n}")
    if m < 1:
        raise ValueError(f"floor_sum: denominator m={m} must be positive")
    total = 0
    while True:
        # With a = qa*m + ra and b = qb*m + rb, the term is qa*i + qb plus
        # floor((ra*i + rb)/m), and ra, rb lie in [0, m).
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        # The points under the line, counted along the other axis.
        n, b = divmod(top, m)
        m, a = a, m
