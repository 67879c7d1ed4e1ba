"""Polytope construction, vertices, membership, slicing, bounding boxes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import exact_rank, in_convex_hull

from hirzquant.counting import count_brute_force
from hirzquant.polytope import (
    FibrationParams,
    HPolytope,
    SimplexParams,
    UnboundedPolytopeError,
    bounding_box,
    box_cell_count,
    build_hirzebruch_polytope,
    build_simplex,
    contains,
    dilate,
    slice_simplex,
    vertices,
)


def fibration_grid(dmax, amax, bmax, nmax):
    return [
        FibrationParams(d=d, a=a, b=b, n=n)
        for d in range(1, dmax + 1)
        for a in range(amax + 1)
        for b in range(bmax + 1)
        for n in range(nmax + 1)
    ]


def test_simplex_interval():
    poly = build_simplex(SimplexParams(N=1, b=5))
    assert poly.dim == 1
    assert poly.rows == (((-1,), 0), ((1,), 5))


def test_simplex_unit_triangle():
    poly = build_simplex(SimplexParams(N=2, b=1))
    assert poly.rows == (((-1, 0), 0), ((0, -1), 0), ((1, 1), 1))


def test_simplex_scale_zero_is_origin_only():
    poly = build_simplex(SimplexParams(N=3, b=0))
    assert contains(poly, (0, 0, 0))
    assert count_brute_force(poly).value == 1


def test_param_invariants_rejected():
    with pytest.raises(ValueError):
        SimplexParams(N=0, b=1)
    with pytest.raises(ValueError):
        SimplexParams(N=2, b=-1)
    with pytest.raises(ValueError):
        FibrationParams(d=0, a=1, b=1, n=1)
    with pytest.raises(ValueError):
        FibrationParams(d=1, a=1, b=2, n=-1)


def test_hirzebruch_rows_match_hand_rearrangement():
    # d=1, a=1, b=2, n=1: {-x1<=0, -x2<=0, x2<=2, x1+x2<=3}
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    assert poly.dim == 2
    assert poly.rows == (((-1, 0), 0), ((0, -1), 0), ((0, 1), 2), ((1, 1), 3))


def test_hirzebruch_point_polytope():
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=0, b=0, n=7))
    assert count_brute_force(poly).value == 1
    assert contains(poly, (0, 0))


def test_hirzebruch_prism_two_points():
    poly = build_hirzebruch_polytope(FibrationParams(d=2, a=0, b=1, n=0))
    lo, hi = bounding_box(poly)
    points = [
        (x, y, z)
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
        for z in range(lo[2], hi[2] + 1)
        if contains(poly, (x, y, z))
    ]
    assert points == [(0, 0, 0), (0, 0, 1)]


def test_vertices_generic_surface():
    vx = vertices(FibrationParams(d=1, a=1, b=1, n=1))
    assert set(vx.points) == {(0, 0), (0, 1), (2, 0), (1, 1)}
    assert not vx.degenerate


def test_vertices_degenerate_when_a_zero():
    vx = vertices(FibrationParams(d=1, a=0, b=1, n=1))
    assert set(vx.points) == {(0, 0), (0, 1), (1, 0)}
    assert vx.degenerate


def test_vertices_prism_corners():
    vx = vertices(FibrationParams(d=2, a=1, b=1, n=0))
    assert len(vx.points) == 6
    assert not vx.degenerate
    assert set(vx.points) == {
        (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1),
    }


def test_vertices_all_contained():
    for p in fibration_grid(3, 4, 4, 4):
        poly = build_hirzebruch_polytope(p)
        for v in vertices(p).points:
            assert contains(poly, v), (p, v)


def test_vertices_cardinality_generic():
    for p in fibration_grid(3, 4, 4, 4):
        vx = vertices(p)
        if p.a >= 1 and p.b >= 1:
            assert len(vx.points) == 2 * p.d + 2, p
            assert not vx.degenerate


def test_vertices_extremal():
    # No vertex is a convex combination of the others (exact hull oracle).
    for p in fibration_grid(3, 2, 2, 2):
        pts = vertices(p).points
        for v in pts:
            others = [w for w in pts if w != v]
            if others:
                assert not in_convex_hull(v, others), (p, v)


def test_vertices_equality_rank():
    # Each generic vertex saturates d+1 independent rows (a true 0-face).
    for p in fibration_grid(3, 3, 3, 3):
        if p.a < 1 or p.b < 1:
            continue
        poly = build_hirzebruch_polytope(p)
        for v in vertices(p).points:
            tight = [
                coeffs
                for coeffs, bound in poly.rows
                if sum(c * x for c, x in zip(coeffs, v)) == bound
            ]
            assert exact_rank(tight) == p.d + 1, (p, v)


def test_contains_boundary_cases():
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    assert contains(poly, (3, 0))
    assert not contains(poly, (3, 1))
    assert contains(poly, (0, 0))


def test_contains_dimension_mismatch():
    poly = build_simplex(SimplexParams(N=2, b=1))
    with pytest.raises(ValueError):
        contains(poly, (0, 0, 0))


def test_slice_scales():
    p = FibrationParams(d=1, a=1, b=2, n=1)
    assert slice_simplex(p, 0) == SimplexParams(N=1, b=3)
    assert slice_simplex(p, p.b) == SimplexParams(N=1, b=1)
    assert slice_simplex(FibrationParams(d=3, a=2, b=5, n=4), 3) == SimplexParams(N=3, b=10)


def test_slice_out_of_range():
    p = FibrationParams(d=1, a=1, b=2, n=1)
    with pytest.raises(ValueError):
        slice_simplex(p, 3)
    with pytest.raises(ValueError):
        slice_simplex(p, -1)


def test_slice_counts_sum_to_total():
    # The heights t = 0..b partition the lattice points of the full polytope.
    grid = fibration_grid(2, 3, 3, 3) + [FibrationParams(d=3, a=2, b=2, n=2)]
    for p in grid:
        total = count_brute_force(build_hirzebruch_polytope(p)).value
        sliced = sum(
            count_brute_force(build_simplex(slice_simplex(p, t))).value
            for t in range(p.b + 1)
        )
        assert total == sliced, p


def test_bounding_box_examples():
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    assert bounding_box(poly) == ((0, 0), (3, 2))
    for b in range(4):
        assert bounding_box(build_simplex(SimplexParams(N=2, b=b))) == ((0, 0), (b, b))
    point = build_hirzebruch_polytope(FibrationParams(d=2, a=0, b=0, n=3))
    assert bounding_box(point) == ((0, 0, 0), (0, 0, 0))


def test_bounding_box_family_pattern():
    for p in fibration_grid(3, 3, 3, 3):
        lo, hi = bounding_box(build_hirzebruch_polytope(p))
        assert lo == tuple([0] * (p.d + 1))
        assert hi == tuple([p.a + p.n * p.b] * p.d + [p.b])


def test_bounding_box_unbounded_raises():
    half_space = HPolytope(dim=1, rows=(((1,), 5),))
    with pytest.raises(UnboundedPolytopeError):
        bounding_box(half_space)


def test_bounding_box_needs_propagation_pass():
    # x1 <= x2 only bounds x1 once x2's edge is known: takes a second pass.
    chained = HPolytope(dim=2, rows=(((1, -1), 0), ((0, 1), 5), ((-1, 0), 0)))
    assert bounding_box(chained) == ((0, 0), (5, 5))


def test_box_cell_count():
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    assert box_cell_count(poly) == 4 * 3


def test_dilate_scales_bounds():
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    scaled = dilate(poly, 10)
    assert scaled.rows == (((-1, 0), 0), ((0, -1), 0), ((0, 1), 20), ((1, 1), 30))
    with pytest.raises(ValueError):
        dilate(poly, 0)


def test_row_length_validation():
    with pytest.raises(ValueError):
        HPolytope(dim=2, rows=(((1,), 0),))


def test_json_round_trip():
    poly = build_hirzebruch_polytope(FibrationParams(d=2, a=1, b=3, n=2))
    blob = poly.to_json()
    assert blob["dim"] == 3
    assert blob["rows"][0] == {"coeffs": [-1, 0, 0], "bound": 0}
    assert HPolytope.from_json(blob) == poly


def test_from_json_rejects_unbounded():
    with pytest.raises(UnboundedPolytopeError):
        HPolytope.from_json({"dim": 1, "rows": [{"coeffs": [1], "bound": 5}]})


@given(
    st.one_of(
        st.builds(
            lambda d, a, b, n: build_hirzebruch_polytope(FibrationParams(d=d, a=a, b=b, n=n)),
            st.integers(1, 5),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        st.builds(
            lambda N, b: build_simplex(SimplexParams(N=N, b=b)),
            st.integers(1, 6),
            st.integers(0, 10**6),
        ),
    )
)
def test_json_round_trip_property(poly):
    assert HPolytope.from_json(poly.to_json()) == poly


def test_vertex_set_json():
    blob = vertices(FibrationParams(d=1, a=0, b=1, n=1)).to_json()
    assert blob == {"vertices": [[0, 0], [0, 1], [1, 0]], "degenerate": True, "count": 3}
