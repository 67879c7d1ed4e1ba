"""The row-bounded scan kernel, its floor sums and its point walker,
against the box scans in ``oracles`` and direct sums."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hirzquant import counting
from hirzquant.combinat import floor_sum
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


def test_huge_bounds_stay_exact():
    # Points near 10**20, far outside 64-bit integers: the counts stay exact.
    big = 10**20
    poly = HPolytope(dim=1, rows=(((1,), big), ((-1,), -(big - 2))))
    assert counting.count_brute_force(poly).value == 3
    # A dim-3 simplex shifted to 10**20 on axes 0 and 1, so the plane's floor
    # sums and crossings run on big integers: x + y + 3z <= 2*big + 7 over
    # x, y >= big and 0 <= z <= 2 leaves a triangle of side 7 - 3z at each z.
    coeffs = [(1, 1, 3), (-1, 0, 0), (0, -1, 0)]
    bounds = [2 * big + 7, -big, -big]
    lower, upper = [big, big, 0], [big + 7, big + 7, 2]
    expected = oracles.count_box(coeffs, [7, 0, 0], [0, 0, 0], [7, 7, 2])
    assert expected == (36 + 15 + 3, [36, 15, 3])
    assert counting.count_box(coeffs, bounds, lower, upper) == expected


# Small values of either sign, and values within 1000 of +-10**20.
floor_sum_terms = st.one_of(
    st.integers(-1000, 1000),
    st.integers(10**20 - 1000, 10**20 + 1000),
    st.integers(-(10**20) - 1000, -(10**20) + 1000),
)


@settings(max_examples=500)
@given(st.integers(0, 60), st.integers(1, 50), floor_sum_terms, floor_sum_terms)
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        floor_sum(-1, 3, 1, 1)
    with pytest.raises(ValueError):
        floor_sum(4, 0, 1, 1)


@st.composite
def wide_boxes(draw):
    """Up to 6 rows with coefficients up to 7 in dimension 3-4, over a box up
    to 40 wide on axes 0 and 1, so a plane of those axes can have several
    crossings of its bounding lines; the outer axes stay narrow so the
    referee's box scan stays small."""
    dim = draw(st.integers(3, 4))
    nrows = draw(st.integers(1, 6))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-7, 7)] * dim), min_size=nrows, max_size=nrows))
    bounds = draw(st.lists(st.integers(-40, 120), min_size=nrows, max_size=nrows))
    lower = draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
    widths = draw(st.tuples(st.integers(0, 40), st.integers(0, 40), *[st.integers(0, 3)] * (dim - 2)))
    upper = [lo + w for lo, w in zip(lower, widths)]
    return coeffs, bounds, lower, upper


@settings(max_examples=200)
@given(wide_boxes())
def test_kernel_matches_oracle_on_wide_boxes(case):
    assert counting.count_box(*case) == oracles.count_box(*case)
