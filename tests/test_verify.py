"""The verification-suite library: check composition, budgets, partial reports."""

from __future__ import annotations

import dataclasses

import pytest

from hirzquant import verify
from hirzquant.polytope import FibrationParams


def test_default_run_passes():
    report = verify.run_verification()
    assert report.overall_pass
    names = [c.name for c in report.checks]
    assert names == [
        "oracle_grid_equivalence",
        "projective_space_closed_form",
        "surface_closed_form",
        "untwisted_factorization",
        "blowup_binomial",
        "blowup_decomposition_corrected",
        "blowup_decomposition_uncorrected",
        "recurrence",
        "volume_vs_integration",
        "ehrhart_dilation",
        "asymptotic_gap_bplus",
        "asymptotic_gap_bminus",
        "sweep_determinism",
    ]


def test_case_counts_match_grids():
    report = verify.run_verification()
    by_name = {c.name: c for c in report.checks}
    assert by_name["oracle_grid_equivalence"].cases == 3 * 4 * 4 * 4
    assert by_name["projective_space_closed_form"].cases == 4 * 7
    assert by_name["surface_closed_form"].cases == 11**3
    assert by_name["untwisted_factorization"].cases == 3 * 5 * 5
    assert by_name["recurrence"].cases == 4 * 4 * 4 * 4
    assert by_name["asymptotic_gap_bplus"].cases == 12


def test_informational_checks_flagged():
    report = verify.run_verification()
    info = {c.name for c in report.checks if c.informational}
    assert info == {"blowup_decomposition_uncorrected", "asymptotic_gap_bminus"}


def test_informational_never_affects_overall():
    report = verify.run_verification()
    for check in report.checks:
        if check.informational:
            check.failures = 99
    assert report.overall_pass


def test_budget_exhaustion_raises_with_partial_report():
    tight = verify.ScanBudget(cell_limit=10)
    with pytest.raises(verify.ResourceLimitExceeded) as excinfo:
        verify.run_verification(budget=tight)
    assert isinstance(excinfo.value.partial, verify.VerifyReport)
    assert len(excinfo.value.partial.checks) == 0  # first scan already too large
    assert excinfo.value.partial.incomplete
    assert not excinfo.value.partial.overall_pass


def test_budget_polytope_cap():
    tiny = verify.ScanBudget(max_polytopes=3)
    with pytest.raises(verify.ResourceLimitExceeded):
        verify.run_verification(budget=tiny)


def test_oracle_grid_reports_a_failing_tuple(monkeypatch):
    bad = FibrationParams(d=2, a=1, b=3, n=2)
    real = verify.quantization_dimension

    def off_by_one(p):
        record = real(p)
        return dataclasses.replace(record, dimension=record.dimension + 1) if p == bad else record

    monkeypatch.setattr(verify, "quantization_dimension", off_by_one)
    check = verify.check_oracle_grid()
    assert check.cases == 3 * 4 * 4 * 4
    assert check.failures == 1
    assert not check.passed
    assert check.first_counterexample.startswith(f"{bad}: ")
    closed = real(bad).dimension
    assert check.first_counterexample.endswith(f"slice={closed} closed={closed + 1}")


def test_tally_keeps_the_first_counterexample():
    check = verify._tally("demo", [None, "first", None, "second"])
    assert (check.cases, check.failures, check.first_counterexample) == (4, 2, "first")


def test_oracle_check_with_larger_dimension():
    check = verify.check_oracle_grid(dmax=4, amax=2, bmax=2, nmax=2)
    assert check.cases == 4 * 27
    assert check.failures == 0


def test_report_json_shape():
    report = verify.run_verification(dmax=1, amax=1, bmax=1, nmax=1)
    blob = report.to_json()
    assert blob["overall_pass"] is True
    assert {c["name"] for c in blob["checks"]} >= {"oracle_grid_equivalence", "recurrence"}
    first = blob["checks"][0]
    assert set(first) == {"name", "cases", "failures", "first_counterexample", "informational"}


def test_volume_oracle_standalone():
    from fractions import Fraction

    from hirzquant.polytope import FibrationParams

    assert verify.volume_by_slice_integration(FibrationParams(d=1, a=1, b=2, n=1)) == 4
    assert verify.volume_by_slice_integration(FibrationParams(d=2, a=0, b=1, n=1)) == Fraction(1, 6)
    assert verify.volume_by_slice_integration(FibrationParams(d=1, a=1, b=2, n=0)) == 2
