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
