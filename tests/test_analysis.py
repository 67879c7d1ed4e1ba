"""Recurrence, finite differences, volumes, Bernoulli numbers, asymptotics."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzquant.analysis import (
    BernoulliConvention,
    asymptotic_series,
    bernoulli,
    finite_difference,
    ratio_convergence,
    rational_json,
    recurrence_residual,
    symplectic_volume,
)
from hirzquant.counting import count_brute_force
from hirzquant.polytope import FibrationParams, build_hirzebruch_polytope, dilate
from hirzquant.quantization import quantization_dimension
from hirzquant.verify import volume_by_slice_integration

B_PLUS = BernoulliConvention.B_PLUS
B_MINUS = BernoulliConvention.B_MINUS


def test_finite_difference_examples():
    assert finite_difference([6, 9, 12, 15]) == [3, 3, 3]
    assert finite_difference([1, 3, 6, 10]) == [2, 3, 4]
    q_values = [
        quantization_dimension(FibrationParams(d=1, a=1, b=2, n=n)).dimension
        for n in range(4)
    ]
    assert q_values == [6, 9, 12, 15]
    assert finite_difference(q_values) == [3, 3, 3]


def test_finite_difference_requires_two_values():
    with pytest.raises(ValueError):
        finite_difference([7])


def test_recurrence_examples():
    assert recurrence_residual(1, 1, 2, 0).residual == 0
    assert recurrence_residual(2, 0, 1, 0).residual == 0
    assert recurrence_residual(3, 2, 3, 5).residual == 0


def test_recurrence_full_grid():
    for d in range(1, 5):
        for a in range(4):
            for b in range(4):
                for n0 in range(4):
                    report = recurrence_residual(d, a, b, n0)
                    assert report.residual == 0, (d, a, b, n0)
                    assert len(report.q_values) == d + 2


@given(st.integers(1, 6), st.integers(0, 50), st.integers(0, 10**12), st.integers(0, 50))
def test_recurrence_residual_zero_property(d, a, b, n0):
    assert recurrence_residual(d, a, b, n0).residual == 0


def test_iterated_difference_annihilates():
    # d+1 applications of the first-difference map on d+2 consecutive Q values.
    for d in range(1, 5):
        for (a, b, n0) in ((0, 3, 0), (2, 1, 1), (3, 3, 3)):
            window = [
                quantization_dimension(FibrationParams(d=d, a=a, b=b, n=n0 + j)).dimension
                for j in range(d + 2)
            ]
            for _ in range(d + 1):
                window = finite_difference(window)
            assert window == [0], (d, a, b, n0)


def test_volume_examples():
    assert symplectic_volume(FibrationParams(d=1, a=1, b=2, n=1)) == 4
    assert symplectic_volume(FibrationParams(d=1, a=1, b=2, n=0)) == 2
    assert symplectic_volume(FibrationParams(d=2, a=0, b=1, n=1)) == Fraction(1, 6)


def test_volume_matches_independent_integration():
    for d in range(1, 4):
        for a in range(4):
            for b in range(4):
                for n in range(4):
                    p = FibrationParams(d=d, a=a, b=b, n=n)
                    assert symplectic_volume(p) == volume_by_slice_integration(p), p


def test_ehrhart_dilation_density():
    p = FibrationParams(d=1, a=1, b=2, n=1)
    k = 100
    count = count_brute_force(dilate(build_hirzebruch_polytope(p), k)).value
    assert count == 40401  # (k*a + 1 + n*k*b/2) * (k*b + 1) at the dilated scales
    density = Fraction(count, k ** (p.d + 1))
    assert abs(density - 4) / 4 < Fraction(1, 20)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1, B_MINUS) == Fraction(-1, 2)
    assert bernoulli(1, B_PLUS) == Fraction(1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_conventions_agree_off_one():
    for k in (0, 2, 3, 4, 5, 6, 7, 10):
        assert bernoulli(k, B_PLUS) == bernoulli(k, B_MINUS)
    assert bernoulli(1, B_PLUS) == -bernoulli(1, B_MINUS)


def test_bernoulli_odd_vanish():
    for k in (3, 5, 7, 9, 11):
        assert bernoulli(k) == 0


def test_series_examples():
    assert asymptotic_series(1, B_MINUS).coefficients == (1, -1)
    assert asymptotic_series(1, B_PLUS).coefficients == (1, 1)
    assert asymptotic_series(2, B_PLUS).coefficients == (1, Fraction(3, 2), Fraction(1, 2))


def test_series_odd_coefficients_vanish():
    for convention in (B_PLUS, B_MINUS):
        for d in range(3, 10):
            series = asymptotic_series(d, convention)
            for k in range(3, d + 1, 2):
                assert series.coefficients[k] == 0, (d, k, convention)


def test_series_even_coefficient_patterns():
    # c_k = C(d+1,k) B_k expands to falling products over fixed denominators.
    for d in range(1, 12):
        c = asymptotic_series(d, B_PLUS).coefficients
        assert c[0] == 1
        assert asymptotic_series(d, B_MINUS).coefficients[1] == Fraction(-(d + 1), 2)
        if d >= 2:
            assert c[2] == Fraction((d + 1) * d, 12)
        if d >= 4:
            assert c[4] == Fraction(-(d + 1) * d * (d - 1) * (d - 2), 720)
        if d >= 6:
            assert c[6] == Fraction(
                (d + 1) * d * (d - 1) * (d - 2) * (d - 3) * (d - 4), 30240
            )
        if d >= 8:
            assert c[8] == Fraction(
                -(d + 1) * d * (d - 1) * (d - 2) * (d - 3) * (d - 4) * (d - 5) * (d - 6),
                1209600,
            )


def test_series_value_matches_exact_surface_limit():
    # The exact d=1 limit of Q/Vol is (b+1)/b, which selects the +1/2 convention.
    for b in (1, 2, 3, 7):
        assert asymptotic_series(1, B_PLUS).evaluate(b) == Fraction(b + 1, b)


def test_series_evaluate():
    assert asymptotic_series(2, B_PLUS).evaluate(2) == Fraction(15, 8)
    assert asymptotic_series(1, B_PLUS).evaluate(1) == 2
    with pytest.raises(ValueError):
        asymptotic_series(1, B_PLUS).evaluate(0)


def test_ratio_convergence_exact_family():
    # d=1, a=0, b=1: Q = n+2, Vol = n/2, so the ratio is 2 + 4/n.
    points = ratio_convergence(1, 0, 1, [10, 100, 1000], B_PLUS)
    assert [pt.ratio for pt in points] == [
        Fraction(2) + Fraction(4, n) for n in (10, 100, 1000)
    ]
    assert points[0].series_value == 2
    assert [pt.gap for pt in points] == [Fraction(4, n) for n in (10, 100, 1000)]


def test_ratio_convergence_discriminates_conventions():
    plus = ratio_convergence(1, 0, 1, [1000], B_PLUS)[0]
    minus = ratio_convergence(1, 0, 1, [1000], B_MINUS)[0]
    assert plus.gap < Fraction(1, 100)
    assert minus.series_value == 0
    assert minus.gap > 2  # stuck near the true limit 2, far from the B-minus value


def test_ratio_convergence_strictly_decreasing():
    for d in (1, 2):
        for a in (0, 1):
            for b in (1, 2, 5):
                gaps = [pt.gap for pt in ratio_convergence(d, a, b, [10, 100, 1000])]
                assert gaps[0] > gaps[1] > gaps[2], (d, a, b)


def test_ratio_convergence_validation():
    with pytest.raises(ValueError):
        ratio_convergence(1, 0, 0, [10])
    with pytest.raises(ValueError):
        ratio_convergence(1, 0, 1, [0, 10])


def test_rational_json():
    assert rational_json(Fraction(-4, 6)) == {"num": "-2", "den": "3"}
