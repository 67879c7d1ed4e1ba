"""Counting routes: brute force, closed forms, slice sums, monomial basis."""

from __future__ import annotations

import math

import pytest

from hirzquant.combinat import binomial
from hirzquant.counting import (
    CountMethod,
    CountResult,
    brute_force_slice_counts,
    count_brute_force,
    count_simplex_closed_form,
    count_slice_sum,
    lattice_points,
    monomial_basis,
)
from hirzquant.polytope import (
    FibrationParams,
    SimplexParams,
    build_hirzebruch_polytope,
    build_simplex,
)


def test_binomial_matches_math_comb():
    for n in range(0, 40):
        for k in range(0, 45):
            assert binomial(n, k) == math.comb(n, k)
    assert binomial(200, 100) == math.comb(200, 100)


def test_binomial_edge_contract():
    assert binomial(3, 7) == 0
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(4, -1)


def test_brute_force_examples():
    assert count_brute_force(build_simplex(SimplexParams(N=2, b=1))).value == 3
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    assert count_brute_force(poly).value == 9
    point = build_hirzebruch_polytope(FibrationParams(d=1, a=0, b=0, n=3))
    assert count_brute_force(point).value == 1


def test_brute_force_method_tag():
    result = count_brute_force(build_simplex(SimplexParams(N=1, b=4)))
    assert result.method is CountMethod.BRUTE_FORCE
    assert result.to_json() == {"value": "5", "method": "BruteForce"}


def test_simplex_closed_form_examples():
    assert count_simplex_closed_form(SimplexParams(N=2, b=1)).value == 3
    assert count_simplex_closed_form(SimplexParams(N=3, b=4)).value == 35
    assert count_simplex_closed_form(SimplexParams(N=1, b=5)).value == 6


def test_simplex_closed_form_against_brute():
    for N in range(1, 5):
        for b in range(7):
            params = SimplexParams(N=N, b=b)
            assert (
                count_brute_force(build_simplex(params)).value
                == count_simplex_closed_form(params).value
            ), params


def test_slice_sum_examples():
    assert count_slice_sum(FibrationParams(d=1, a=1, b=2, n=1)).value == 9
    assert count_slice_sum(FibrationParams(d=2, a=0, b=1, n=0)).value == 2
    assert count_slice_sum(FibrationParams(d=1, a=0, b=1, n=2)).value == 4
    assert count_slice_sum(FibrationParams(d=1, a=1, b=2, n=1)).method is CountMethod.SLICE_SUM


def test_slice_sum_against_brute():
    for d in (1, 2):
        for a in range(4):
            for b in range(4):
                for n in range(4):
                    p = FibrationParams(d=d, a=a, b=b, n=n)
                    brute = count_brute_force(build_hirzebruch_polytope(p)).value
                    assert brute == count_slice_sum(p).value, p


def test_slice_sum_monotone_in_each_parameter():
    for d in (1, 2, 3):
        for a in range(3):
            for b in range(3):
                for n in range(3):
                    base = count_slice_sum(FibrationParams(d=d, a=a, b=b, n=n)).value
                    for bump in (
                        FibrationParams(d=d, a=a + 1, b=b, n=n),
                        FibrationParams(d=d, a=a, b=b + 1, n=n),
                        FibrationParams(d=d, a=a, b=b, n=n + 1),
                    ):
                        assert count_slice_sum(bump).value >= base, (base, bump)


def test_slice_profile_matches_per_slice_closed_form():
    p = FibrationParams(d=1, a=1, b=2, n=1)
    profile = brute_force_slice_counts(build_hirzebruch_polytope(p))
    assert profile == (4, 3, 2)
    expected = tuple(binomial(p.a + p.n * (p.b - t) + p.d, p.d) for t in range(p.b + 1))
    assert profile == expected


def test_monomial_basis_interval():
    basis = monomial_basis(build_simplex(SimplexParams(N=1, b=2)))
    assert basis.exponents == ((0,), (1,), (2,))


def test_monomial_basis_lex_order():
    basis = monomial_basis(build_simplex(SimplexParams(N=2, b=1)))
    assert basis.exponents == ((0, 0), (0, 1), (1, 0))


def test_monomial_basis_surface():
    poly = build_hirzebruch_polytope(FibrationParams(d=1, a=1, b=2, n=1))
    basis = monomial_basis(poly)
    assert len(basis) == 9
    assert basis.exponents[0] == (0, 0)
    assert basis.exponents[-1] == (3, 0)
    assert list(basis.exponents) == sorted(basis.exponents)
    assert basis.to_json()[0] == [0, 0]


def test_monomial_basis_length_equals_count():
    for d in (1, 2):
        for a in range(3):
            for b in range(3):
                for n in range(3):
                    poly = build_hirzebruch_polytope(FibrationParams(d=d, a=a, b=b, n=n))
                    assert len(monomial_basis(poly)) == count_brute_force(poly).value


def test_count_result_rejects_negative():
    with pytest.raises(ValueError):
        CountResult(value=-1, method=CountMethod.BRUTE_FORCE)


def test_brute_force_rejects_unbounded():
    from hirzquant.polytope import HPolytope, UnboundedPolytopeError

    half_space = HPolytope(dim=2, rows=(((1, 1), 4),))
    with pytest.raises(UnboundedPolytopeError):
        count_brute_force(half_space)
    with pytest.raises(UnboundedPolytopeError):
        monomial_basis(half_space)
    with pytest.raises(UnboundedPolytopeError):
        lattice_points(half_space)  # at the call, before any point is asked for
