"""Quantization dimension, special-twist closed forms, identity residuals."""

from __future__ import annotations

from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hirzquant.combinat import binomial
from hirzquant.counting import count_brute_force, count_simplex_closed_form, count_slice_sum
from hirzquant.polytope import FibrationParams, SimplexParams, build_hirzebruch_polytope
from hirzquant.quantization import (
    IdentityName,
    IdentityReport,
    blowup_count_formula,
    blowup_decomposition,
    hirzebruch_surface_closed_form,
    quantization_dimension,
    untwisted_product_formula,
)


def grid(dmax, abmax, n):
    return [
        FibrationParams(d=d, a=a, b=b, n=n)
        for d in range(1, dmax + 1)
        for a in range(abmax + 1)
        for b in range(abmax + 1)
    ]


def test_dimension_examples():
    assert quantization_dimension(FibrationParams(d=1, a=1, b=2, n=1)).dimension == 9
    assert quantization_dimension(FibrationParams(d=2, a=0, b=1, n=0)).dimension == 2
    assert quantization_dimension(FibrationParams(d=1, a=0, b=1, n=2)).dimension == 4


def test_dimension_equals_slice_sum_and_brute():
    for d in (1, 2):
        for a in range(3):
            for b in range(3):
                for n in range(3):
                    p = FibrationParams(d=d, a=a, b=b, n=n)
                    record = quantization_dimension(p)
                    assert record.dimension == count_slice_sum(p).value
                    assert (
                        record.dimension
                        == count_brute_force(build_hirzebruch_polytope(p)).value
                    )


@settings(max_examples=200)
@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 60), st.integers(0, 6))
def test_closed_form_equals_term_sum_property(d, a, b, n):
    p = FibrationParams(d=d, a=a, b=b, n=n)
    record = quantization_dimension(p)
    assert record.dimension == count_slice_sum(p).value
    assert record.dimension == record.base_term + sum(record.fiber_terms)
    assert len(record.fiber_terms) == b
    # On small boxes, also against the odometer: the box is x_i in
    # [0, a + n*b] for i <= d and x_{d+1} in [0, b], read off the rows.
    upper = [a + n * b] * d + [b]
    if prod(u + 1 for u in upper) <= 5000:
        poly = build_hirzebruch_polytope(p)
        coeffs, bounds = zip(*poly.rows)
        assert record.dimension == oracles.count_box(coeffs, bounds, [0] * (d + 1), upper)[0]


def test_closed_form_at_astronomical_b():
    # No O(b) route finishes at this b; the special-twist closed forms do.
    b = 10**100
    for d in range(1, 6):
        for a in range(4):
            blowup = quantization_dimension(FibrationParams(d=d, a=a, b=b, n=1)).dimension
            assert blowup == comb(a + b + d + 1, d + 1) - comb(a + d, d + 1)
            product = quantization_dimension(FibrationParams(d=d, a=a, b=b, n=0)).dimension
            assert product == comb(a + d, d) * (b + 1)
    for a in range(4):
        for n in range(5):
            surface = quantization_dimension(FibrationParams(d=1, a=a, b=b, n=n)).dimension
            assert surface == hirzebruch_surface_closed_form(a, b, n)


def test_decomposition_structure():
    record = quantization_dimension(FibrationParams(d=1, a=1, b=2, n=1))
    assert record.base_term == 2
    assert record.fiber_terms == (3, 4)
    assert record.base_term + sum(record.fiber_terms) == record.dimension


def test_base_term_is_projective_space_count():
    for d in (1, 2, 3):
        for a in range(4):
            record = quantization_dimension(FibrationParams(d=d, a=a, b=2, n=2))
            assert record.base_term == count_simplex_closed_form(SimplexParams(N=d, b=a)).value


def test_record_json_schema():
    blob = quantization_dimension(FibrationParams(d=1, a=1, b=2, n=1)).to_json()
    assert blob == {
        "params": {"d": 1, "a": 1, "b": 2, "n": 1},
        "dimension": "9",
        "base_term": "2",
        "fiber_terms": ["3", "4"],
    }


def test_surface_closed_form_examples():
    assert hirzebruch_surface_closed_form(1, 2, 1) == 9
    assert hirzebruch_surface_closed_form(0, 0, 5) == 1
    assert hirzebruch_surface_closed_form(2, 1, 3) == 9


def test_surface_closed_form_always_integral_and_exact():
    for a in range(8):
        for b in range(8):
            for n in range(8):
                assert (
                    hirzebruch_surface_closed_form(a, b, n)
                    == quantization_dimension(FibrationParams(d=1, a=a, b=b, n=n)).dimension
                )


def test_surface_closed_form_rejects_negative():
    with pytest.raises(ValueError):
        hirzebruch_surface_closed_form(1, -2, 1)


def test_untwisted_product_examples():
    r = untwisted_product_formula(FibrationParams(d=2, a=0, b=1, n=0))
    assert (r.lhs, r.rhs, r.residual) == (2, 2, 0)
    r = untwisted_product_formula(FibrationParams(d=1, a=3, b=0, n=0))
    assert (r.lhs, r.rhs, r.residual) == (4, 4, 0)
    r = untwisted_product_formula(FibrationParams(d=3, a=2, b=2, n=0))
    assert r.residual == 0


def test_untwisted_product_grid():
    for p in grid(3, 4, 0):
        assert untwisted_product_formula(p).residual == 0, p


def test_untwisted_requires_n_zero():
    with pytest.raises(ValueError):
        untwisted_product_formula(FibrationParams(d=1, a=1, b=1, n=1))


def test_blowup_examples():
    r = blowup_count_formula(FibrationParams(d=1, a=1, b=1, n=1))
    assert (r.lhs, r.rhs) == (5, 5)
    r = blowup_count_formula(FibrationParams(d=2, a=0, b=1, n=1))
    assert (r.lhs, r.rhs) == (4, 4)
    r = blowup_count_formula(FibrationParams(d=1, a=0, b=0, n=1))
    assert (r.lhs, r.rhs) == (1, 1)


def test_blowup_grid():
    for p in grid(3, 4, 1):
        assert blowup_count_formula(p).residual == 0, p


def test_blowup_requires_n_one():
    with pytest.raises(ValueError):
        blowup_count_formula(FibrationParams(d=1, a=1, b=1, n=0))
    with pytest.raises(ValueError):
        blowup_decomposition(FibrationParams(d=1, a=1, b=1, n=2))


def test_decomposition_corrected_example():
    r = blowup_decomposition(FibrationParams(d=1, a=1, b=1, n=1), corrected=True)
    assert (r.lhs, r.rhs, r.residual) == (5, 5, 0)
    assert r.identity_name is IdentityName.BLOWUP_DECOMPOSITION_CORRECTED


def test_decomposition_uncorrected_counterexample():
    r = blowup_decomposition(FibrationParams(d=1, a=1, b=1, n=1), corrected=False)
    assert (r.lhs, r.rhs, r.residual) == (5, 4, 1)
    assert r.identity_name is IdentityName.BLOWUP_DECOMPOSITION_UNCORRECTED


def test_decomposition_grid():
    for p in grid(3, 4, 1):
        assert blowup_decomposition(p, corrected=True).residual == 0, p
        off = blowup_decomposition(p, corrected=False)
        predicted = binomial(p.a + p.d, p.d) - binomial(p.a + p.d - 1, p.d - 1)
        assert off.residual == predicted, p
        if p.a >= 1:
            assert off.residual != 0, p


def test_identity_report_json():
    blob = blowup_decomposition(FibrationParams(d=1, a=1, b=1, n=1), corrected=False).to_json()
    assert blob == {
        "identity_name": "blowup_decomposition_uncorrected",
        "lhs": "5",
        "rhs": "4",
        "residual": "1",
    }


def test_identity_report_residual_guard():
    with pytest.raises(ValueError):
        IdentityReport(IdentityName.UNTWISTED_PRODUCT, lhs=3, rhs=2, residual=0)
