"""Acceptance suite: the nine exit criteria, one printed pass/fail line each.

Every comparison is exact; the only non-equality thresholds are themselves
exact rationals (Ehrhart density within 1/20, asymptotic gap below 1/100,
convention-discrimination gap above 1). Grids match the stated criteria; the
oracle grid also includes d=4 so the documented 256-polytope figure is covered
in full.
"""

from __future__ import annotations

import time
from fractions import Fraction

from hirzquant import verify
from hirzquant.analysis import BernoulliConvention, ratio_convergence
from hirzquant.counting import count_brute_force
from hirzquant.polytope import FibrationParams, build_hirzebruch_polytope, dilate
from hirzquant.quantization import blowup_decomposition
from hirzquant.sweep import SweepSpec, render_sweep


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    check = verify.check_oracle_grid(dmax=4, amax=3, bmax=3, nmax=3)
    elapsed = time.perf_counter() - start
    ok = check.failures == 0 and check.cases == 256 and elapsed < 60
    _report(
        1,
        ok,
        f"brute = slice-sum = closed on {check.cases} polytopes "
        f"({check.failures} failures, {elapsed:.2f}s)",
    )


def test_criterion_2_simplex_closed_form():
    check = verify.check_simplex_closed_form(n_max=4, b_max=6)
    ok = check.failures == 0 and check.cases == 28
    _report(2, ok, f"simplex count C(b+N,N) exact on {check.cases} cases")


def test_criterion_3_surface_closed_form():
    check = verify.check_surface_closed_form(pmax=10)
    ok = check.failures == 0 and check.cases == 1331
    _report(3, ok, f"(a+1+nb/2)(b+1) matches the sum on {check.cases} cases")


def test_criterion_4_untwisted_factorization():
    check = verify.check_untwisted_product(dmax=3, abmax=4)
    ok = check.failures == 0 and check.cases == 75
    _report(4, ok, f"n=0 factorization residual 0 on {check.cases} cases")


def test_criterion_5_blowup_formula_and_decomposition():
    binomial_check = verify.check_blowup_binomial(dmax=3, abmax=4)
    corrected = verify.check_blowup_decomposition_corrected(dmax=3, abmax=4)
    counterexample = blowup_decomposition(FibrationParams(1, 1, 1, 1), corrected=False)
    ok = (
        binomial_check.failures == 0
        and corrected.failures == 0
        and (counterexample.lhs, counterexample.rhs) == (5, 4)
    )
    _report(
        5,
        ok,
        f"n=1 binomial + Pascal decomposition residual 0 on {binomial_check.cases} cases; "
        f"uncorrected variant reproduces lhs 5 vs rhs 4 at d=1,a=1,b=1",
    )


def test_criterion_6_recurrence():
    check = verify.check_recurrence(dmax=4, abmax=3, n0max=3)
    ok = check.failures == 0 and check.cases == 256
    _report(6, ok, f"alternating-difference residual exactly 0 on {check.cases} cases")


def test_criterion_7_volume_and_ehrhart():
    integration = verify.check_volume_integration(dmax=3, amax=3, bmax=3, nmax=3)
    p = FibrationParams(d=1, a=1, b=2, n=1)
    k = 100
    count = count_brute_force(dilate(build_hirzebruch_polytope(p), k)).value
    density_gap = abs(Fraction(count, k**2) - 4) / 4
    ok = integration.failures == 0 and density_gap < Fraction(1, 20)
    _report(
        7,
        ok,
        f"closed volume = slice integral on {integration.cases} cases; "
        f"Ehrhart density gap {density_gap} < 1/20 at k=100",
    )


def test_criterion_8_asymptotics():
    start = time.perf_counter()
    n_list = (10, 100, 1000)
    plus_ok = True
    for d in (1, 2):
        for a in (0, 1):
            for b in (1, 2, 5):
                gaps = [pt.gap for pt in ratio_convergence(d, a, b, n_list)]
                plus_ok &= gaps[0] > gaps[1] > gaps[2] and gaps[2] < Fraction(1, 100)
    minus_gaps = [
        ratio_convergence(1, a, 1, [1000], BernoulliConvention.B_MINUS)[0].gap
        for a in (0, 1)
    ]
    minus_ok = all(gap > 1 for gap in minus_gaps)
    elapsed = time.perf_counter() - start
    ok = plus_ok and minus_ok and elapsed < 10
    _report(
        8,
        ok,
        "B+ gaps strictly decrease and end below 1/100 on 12 families; "
        f"B- gap at d=1,b=1,n=1000 exceeds 1 ({elapsed:.2f}s)",
    )


def test_criterion_9_determinism():
    spec_csv = SweepSpec(d_range=(1, 1), a_range=(0, 2), b_range=(1, 2), n_range=(0, 3))
    spec_json = SweepSpec(
        d_range=(1, 1), a_range=(0, 2), b_range=(1, 2), n_range=(0, 3), fmt="json"
    )
    bytes_ok = all(
        render_sweep(spec) == render_sweep(spec) for spec in (spec_csv, spec_json)
    )
    _report(9, bytes_ok, "sweep re-runs byte-identical")
