"""The row-bounded scan kernel and its point walker against the box scans in ``oracles``."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hirzquant import counting
from hirzquant.polytope import HPolytope

CASES = [
    # (coeffs, bounds, lower, upper) with assorted signs and shapes
    ([(1, 1)], [3], [0, 0], [3, 2]),
    ([(-1, 0), (0, -1), (0, 1), (1, 1)], [0, 0, 2, 3], [0, 0], [3, 2]),
    ([(2, -3, 1)], [4], [-2, -1, 0], [3, 2, 2]),
    ([(1,)], [0], [-5], [5]),
    ([], [], [0, 0], [2, 2]),          # no rows: every box cell counts
    ([(1, 1)], [3], [0, 5], [3, 2]),   # empty axis range
    ([(1, 1)], [-1], [0, 0], [2, 2]),  # infeasible rows
    ([(1, 1), (0, 0)], [3, -1], [0, 0], [2, 2]),  # an all-zero infeasible row
]


@pytest.mark.parametrize("coeffs,bounds,lower,upper", CASES)
def test_kernel_matches_oracle(coeffs, bounds, lower, upper):
    assert counting.count_box(coeffs, bounds, lower, upper) == oracles.count_box(
        coeffs, bounds, lower, upper
    )


@st.composite
def boxed_rows(draw):
    """Up to 5 mixed-sign rows in dimension 1-4, over a box whose axes may be empty."""
    dim = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 5))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=nrows, max_size=nrows))
    bounds = draw(st.lists(st.integers(-6, 12), min_size=nrows, max_size=nrows))
    lower = draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim))
    widths = draw(st.lists(st.integers(-1, 6), min_size=dim, max_size=dim))
    upper = [lo + w for lo, w in zip(lower, widths)]
    return coeffs, bounds, lower, upper


@settings(max_examples=300)
@given(boxed_rows())
def test_kernel_matches_oracle_property(case):
    assert counting.count_box(*case) == oracles.count_box(*case)


@settings(max_examples=300)
@given(boxed_rows())
@example(([(1, 1), (0, 0)], [3, -1], [0, 0], [2, 2]))  # an all-zero infeasible row
def test_walker_matches_oracle_property(case):
    points = list(counting.walk_box(*case))
    assert points == oracles.box_points(*case)
    assert len(points) == counting.count_box(*case)[0]


def test_pure_kernel_profile_semantics():
    total, profile = counting.count_box(
        [(-1, 0), (0, -1), (0, 1), (1, 1)], [0, 0, 2, 3], [0, 0], [3, 2]
    )
    assert total == 9
    assert profile == [4, 3, 2]


def test_pure_kernel_empty_last_axis():
    assert counting.count_box([(1, 1)], [3], [0, 5], [3, 2]) == (0, [])


def test_pure_kernel_empty_inner_axis():
    total, profile = counting.count_box([(1, 1)], [3], [5, 0], [3, 2])
    assert total == 0
    assert profile == [0, 0, 0]


def test_huge_bounds_fall_back_to_pure_and_stay_exact():
    # Three points near 10**20, far outside 64-bit integers: the count stays exact.
    big = 10**20
    poly = HPolytope(dim=1, rows=(((1,), big), ((-1,), -(big - 2))))
    assert counting.count_brute_force(poly).value == 3
