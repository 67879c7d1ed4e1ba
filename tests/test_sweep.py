"""Sweep rendering: determinism, row order, schemas, method columns."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzquant.analysis import ratio_convergence
from hirzquant.sweep import SweepSpec, render_sweep

BASE = dict(d_range=(1, 1), a_range=(0, 2), b_range=(1, 2), n_range=(0, 3))


def test_csv_row_count_and_header():
    payload = render_sweep(SweepSpec(**BASE, fmt="csv")).decode()
    lines = payload.splitlines()
    assert lines[0] == "d,a,b,n,dimension,volume_num,volume_den,gap_at_nmax_num,gap_at_nmax_den"
    assert len(lines) == 1 + 24  # 1*3*2*4 parameter tuples


def test_render_is_byte_identical():
    for fmt in ("csv", "json"):
        spec = SweepSpec(**BASE, fmt=fmt)
        assert render_sweep(spec) == render_sweep(spec)


def test_rows_sorted_by_parameter_tuple():
    payload = render_sweep(SweepSpec(**BASE, fmt="csv")).decode()
    keys = [tuple(map(int, line.split(",")[:4])) for line in payload.splitlines()[1:]]
    assert keys == sorted(keys)


def test_csv_uses_lf_only():
    assert b"\r" not in render_sweep(SweepSpec(**BASE, fmt="csv"))


def test_json_rows_are_quantization_records():
    payload = json.loads(render_sweep(SweepSpec(**BASE, fmt="json")).decode())
    assert len(payload) == 24
    first = payload[0]
    assert first["params"] == {"d": 1, "a": 0, "b": 1, "n": 0}
    assert first["dimension"] == "2"
    assert first["base_term"] == "1"
    assert first["fiber_terms"] == ["1"]
    assert set(first) >= {"params", "dimension", "base_term", "fiber_terms", "volume", "gap_at_nmax"}


def test_gap_column_empty_when_undefined():
    # b = 0 rows have no density ratio; n_max = 0 sweeps have none at all.
    payload = render_sweep(
        SweepSpec(d_range=(1, 1), a_range=(1, 1), b_range=(0, 1), n_range=(1, 1), fmt="csv")
    ).decode()
    rows = payload.splitlines()[1:]
    assert rows[0].endswith(",,")   # b=0
    assert not rows[1].endswith(",,")
    payload = render_sweep(
        SweepSpec(d_range=(1, 1), a_range=(0, 0), b_range=(1, 1), n_range=(0, 0), fmt="csv")
    ).decode()
    assert payload.splitlines()[1].endswith(",,")


def test_method_columns_agree():
    spec = SweepSpec(**BASE, methods=("closed", "slice", "brute"), fmt="csv")
    payload = render_sweep(spec).decode()
    lines = payload.splitlines()
    header = lines[0].split(",")
    i_dim, i_slice, i_brute = header.index("dimension"), header.index("slice_count"), header.index("brute_count")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[i_dim] == cells[i_slice] == cells[i_brute]


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(d_range=(2, 1), a_range=(0, 0), b_range=(0, 0), n_range=(0, 0))
    with pytest.raises(ValueError):
        SweepSpec(d_range=(0, 1), a_range=(0, 0), b_range=(0, 0), n_range=(0, 0))
    with pytest.raises(ValueError):
        SweepSpec(**BASE, fmt="xml")
    with pytest.raises(ValueError):
        SweepSpec(**BASE, methods=("closed", "magic"))


def test_closed_method_always_included():
    spec = SweepSpec(**BASE, methods=("slice",))
    assert "closed" in spec.methods


def axis_range(floor):
    """An inclusive range of 1 to 3 values starting at `floor` or above."""
    return st.tuples(st.integers(floor, floor + 2), st.integers(0, 2)).map(
        lambda lo_width: (lo_width[0], lo_width[0] + lo_width[1])
    )


@settings(max_examples=40)
@given(axis_range(1), axis_range(0), axis_range(0), axis_range(0))
def test_sweep_rows_property(d_range, a_range, b_range, n_range):
    spec = SweepSpec(
        d_range=d_range, a_range=a_range, b_range=b_range, n_range=n_range,
        methods=("closed", "slice", "brute"), fmt="csv",
    )
    lines = render_sweep(spec).decode().splitlines()
    header = lines[0].split(",")
    assert len(lines) - 1 == len(spec) == len(list(spec.tuples()))
    n_max = n_range[1]
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["dimension"] == row["slice_count"] == row["brute_count"]
        d, a, b = int(row["d"]), int(row["a"]), int(row["b"])
        gap_cells = (row["gap_at_nmax_num"], row["gap_at_nmax_den"])
        if b == 0 or n_max == 0:
            assert gap_cells == ("", "")
        else:
            gap = ratio_convergence(d, a, b, [n_max])[0].gap
            assert gap_cells == (str(gap.numerator), str(gap.denominator))
