"""The full verification suite: every closed form against its brute oracle.

Each check runs an exhaustive grid, comparing independent computation routes
with exact arithmetic (zero tolerance unless a check states its own exact
rational threshold). Two checks are informational: they demonstrate that the
uncorrected blow-up decomposition and the B_1 = -1/2 density series disagree
with the exact counts, as expected, and never affect the overall verdict.
Every check is a parameter grid plus a per-case comparison that returns a
counterexample string or None, tallied into a CheckResult by `_tally`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import starmap
from math import factorial, prod

from . import analysis, counting, sweep
from .analysis import BernoulliConvention
from .combinat import binomial
from .polytope import (
    Box,
    FibrationParams,
    SimplexParams,
    bounding_box,
    build_hirzebruch_polytope,
    build_simplex,
    cell_count,
    dilate,
)
from .quantization import (
    blowup_count_formula,
    blowup_decomposition,
    hirzebruch_surface_closed_form,
    quantization_dimension,
    untwisted_product_formula,
)


class ResourceLimitExceeded(Exception):
    """Raised when a verification run would exceed its scan budget.

    `run_verification` attaches the checks finished so far as `partial`.
    """

    partial: "VerifyReport | None" = None


@dataclass
class CheckResult:
    name: str
    cases: int
    failures: int
    first_counterexample: str | None = None
    informational: bool = False

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "informational": self.informational,
        }


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)
    incomplete: bool = False  # set when a resource limit aborted the run

    @property
    def overall_pass(self) -> bool:
        return not self.incomplete and all(c.passed for c in self.checks if not c.informational)

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "overall_pass": self.overall_pass,
        }


@dataclass
class ScanBudget:
    """Desk-scale guard rails for the brute-force scans inside a verify run."""

    cell_limit: int = 1_000_000
    max_polytopes: int = 100_000

    def charge(self, poly) -> Box:
        """Refuse a scan of more cells than the limit; return the box to scan."""
        box = bounding_box(poly)
        cells = cell_count(box)
        if cells > self.cell_limit:
            raise ResourceLimitExceeded(
                f"polytope scan of {cells} cells exceeds the cell limit {self.cell_limit}"
            )
        return box


def _tally(name: str, counterexamples, informational: bool = False) -> CheckResult:
    """One case per item; a non-None item is a failure, and the first one is kept."""
    result = CheckResult(name=name, cases=0, failures=0, informational=informational)
    for counterexample in counterexamples:
        result.cases += 1
        if counterexample is not None:
            result.failures += 1
            if result.first_counterexample is None:
                result.first_counterexample = counterexample
    return result


def _grid(dmax: int, amax: int, bmax: int, nmax: int, nmin: int = 0) -> list[FibrationParams]:
    return [
        FibrationParams(d=d, a=a, b=b, n=n)
        for d in range(1, dmax + 1)
        for a in range(amax + 1)
        for b in range(bmax + 1)
        for n in range(nmin, nmax + 1)
    ]


def volume_by_slice_integration(p: FibrationParams) -> Fraction:
    """Independent volume oracle: exact term-by-term integration.

    Expand (a + n*(b-t))^d binomially and integrate each (b-t)^k over [0, b],
    then divide by d!. Shares no code with analysis.symplectic_volume.
    """
    total = Fraction(0)
    for k in range(p.d + 1):
        total += (
            binomial(p.d, k)
            * p.a ** (p.d - k)
            * p.n**k
            * Fraction(p.b ** (k + 1), k + 1)
        )
    return total / factorial(p.d)


def check_oracle_grid(
    dmax: int = 3,
    amax: int = 3,
    bmax: int = 3,
    nmax: int = 3,
    budget: ScanBudget | None = None,
) -> CheckResult:
    """Brute-force count == slice-sum count == Newton closed-form dimension."""
    budget = budget or ScanBudget()
    # The size of _grid(dmax, amax, bmax, nmax), taken before it is built, so
    # an oversized grid is refused without its cost in time or memory.
    axes = (range(1, dmax + 1), range(amax + 1), range(bmax + 1), range(nmax + 1))
    size = prod(map(len, axes))
    if size > budget.max_polytopes:
        raise ResourceLimitExceeded(
            f"{size} grid tuples exceed the limit {budget.max_polytopes}"
        )

    def compare(p: FibrationParams) -> str | None:
        poly = build_hirzebruch_polytope(p)
        brute = counting.count_brute_force(poly, budget.charge(poly)).value
        sliced = counting.count_slice_sum(p).value
        closed = quantization_dimension(p).dimension
        agree = brute == sliced == closed
        return None if agree else f"{p}: brute={brute} slice={sliced} closed={closed}"

    return _tally("oracle_grid_equivalence", map(compare, _grid(dmax, amax, bmax, nmax)))


def check_simplex_closed_form(
    n_max: int = 4, b_max: int = 6, budget: ScanBudget | None = None
) -> CheckResult:
    """Brute-force simplex counts match C(b+N, N)."""
    budget = budget or ScanBudget()

    def compare(params: SimplexParams) -> str | None:
        poly = build_simplex(params)
        brute = counting.count_brute_force(poly, budget.charge(poly)).value
        closed = counting.count_simplex_closed_form(params).value
        return None if brute == closed else f"{params}: brute={brute} closed={closed}"

    grid = (SimplexParams(N=N, b=b) for N in range(1, n_max + 1) for b in range(b_max + 1))
    return _tally("projective_space_closed_form", map(compare, grid))


def check_surface_closed_form(pmax: int = 10) -> CheckResult:
    """d = 1 closed form (a+1+n*b/2)(b+1) against the Newton closed form."""

    def compare(p: FibrationParams) -> str | None:
        lhs = quantization_dimension(p).dimension
        rhs = hirzebruch_surface_closed_form(p.a, p.b, p.n)
        return None if lhs == rhs else f"(a={p.a},b={p.b},n={p.n}): {lhs} != {rhs}"

    return _tally("surface_closed_form", map(compare, _grid(1, pmax, pmax, pmax)))


def _identity_grid_check(name: str, n: int, fn, dmax: int = 3, abmax: int = 4) -> CheckResult:
    def compare(p: FibrationParams) -> str | None:
        r = fn(p)
        return None if r.residual == 0 else f"{p}: lhs={r.lhs} rhs={r.rhs} residual={r.residual}"

    return _tally(name, map(compare, _grid(dmax, abmax, abmax, n, nmin=n)))


def check_untwisted_product(dmax: int = 3, abmax: int = 4) -> CheckResult:
    return _identity_grid_check("untwisted_factorization", 0, untwisted_product_formula, dmax, abmax)


def check_blowup_binomial(dmax: int = 3, abmax: int = 4) -> CheckResult:
    return _identity_grid_check("blowup_binomial", 1, blowup_count_formula, dmax, abmax)


def check_blowup_decomposition_corrected(dmax: int = 3, abmax: int = 4) -> CheckResult:
    return _identity_grid_check(
        "blowup_decomposition_corrected",
        1,
        lambda p: blowup_decomposition(p, corrected=True),
        dmax,
        abmax,
    )


def check_blowup_decomposition_uncorrected(dmax: int = 3, abmax: int = 4) -> CheckResult:
    """Informational: the uncorrected variant misses by C(a+d,d) - C(a+d-1,d-1).

    A case "fails" here when the variant does NOT show its predicted residual,
    so zero failures means the documented discrepancy is fully reproduced
    (including the d=1, a=1, b=1 counterexample: lhs 5 against rhs 4).
    """

    def compare(p: FibrationParams) -> str | None:
        residual = blowup_decomposition(p, corrected=False).residual
        predicted = binomial(p.a + p.d, p.d) - binomial(p.a + p.d - 1, p.d - 1)
        return None if residual == predicted else f"{p}: residual={residual} predicted={predicted}"

    grid = _grid(dmax, abmax, abmax, 1, nmin=1)
    return _tally("blowup_decomposition_uncorrected", map(compare, grid), informational=True)


def check_recurrence(dmax: int = 4, abmax: int = 3, n0max: int = 3) -> CheckResult:
    """The (d+1)-st difference of Q in the twist vanishes identically."""

    def compare(p: FibrationParams) -> str | None:
        residual = analysis.recurrence_residual(p.d, p.a, p.b, p.n).residual
        if residual != 0:
            return f"(d={p.d},a={p.a},b={p.b},n0={p.n}): residual={residual}"
        return None

    return _tally("recurrence", map(compare, _grid(dmax, abmax, abmax, n0max)))


def check_volume_integration(dmax: int = 3, amax: int = 3, bmax: int = 3, nmax: int = 3) -> CheckResult:
    """Closed-form volume equals the independent slice-polynomial integral."""

    def compare(p: FibrationParams) -> str | None:
        closed = analysis.symplectic_volume(p)
        integrated = volume_by_slice_integration(p)
        return None if closed == integrated else f"{p}: closed={closed} integral={integrated}"

    return _tally("volume_vs_integration", map(compare, _grid(dmax, amax, bmax, nmax)))


def check_ehrhart_dilation(budget: ScanBudget | None = None) -> CheckResult:
    """count(k*P)/k^dim approximates the volume: k=100 on (1,1,2,1) within 5%."""
    budget = budget or ScanBudget()
    p = FibrationParams(d=1, a=1, b=2, n=1)
    k = 100
    scaled = dilate(build_hirzebruch_polytope(p), k)
    count = counting.count_brute_force(scaled, budget.charge(scaled)).value
    volume = analysis.symplectic_volume(p)
    gap = abs(Fraction(count, k ** (p.d + 1)) - volume) / volume
    ok = gap < Fraction(1, 20)
    return _tally("ehrhart_dilation", [None if ok else f"relative gap {gap} not below 1/20"])


ASYMPTOTIC_FAMILIES = tuple(
    (d, a, b) for d in (1, 2) for a in (0, 1) for b in (1, 2, 5)
)


def check_asymptotic_bplus(n_list: tuple[int, ...] = (10, 100, 1000)) -> CheckResult:
    """B_1 = +1/2 series: gaps strictly decrease and end below 1/100."""
    if len(n_list) < 2 or any(n < 1 for n in n_list) or list(n_list) != sorted(set(n_list)):
        raise ValueError(f"n list must be strictly increasing positive twists, got {n_list}")

    def compare(d: int, a: int, b: int) -> str | None:
        gaps = [pt.gap for pt in analysis.ratio_convergence(d, a, b, n_list)]
        decreasing = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        if decreasing and gaps[-1] < Fraction(1, 100):
            return None
        return f"(d={d},a={a},b={b}): gaps={gaps}"

    return _tally("asymptotic_gap_bplus", starmap(compare, ASYMPTOTIC_FAMILIES))


def check_asymptotic_bminus(n_last: int = 1000) -> CheckResult:
    """Informational: the B_1 = -1/2 series stays more than 1 away at d=1, b=1."""

    def compare(a: int) -> str | None:
        gap = analysis.ratio_convergence(1, a, 1, [n_last], BernoulliConvention.B_MINUS)[0].gap
        return None if gap > 1 else f"(d=1,a={a},b=1,n={n_last}): gap={gap}"

    return _tally("asymptotic_gap_bminus", map(compare, (0, 1)), informational=True)


def check_sweep_determinism() -> CheckResult:
    """Rendering the same sweep twice yields byte-identical output."""

    def compare(fmt: str) -> str | None:
        spec = sweep.SweepSpec(
            d_range=(1, 1), a_range=(0, 2), b_range=(1, 2), n_range=(0, 3), fmt=fmt
        )
        same = sweep.render_sweep(spec) == sweep.render_sweep(spec)
        return None if same else f"non-identical {fmt} bytes"

    return _tally("sweep_determinism", map(compare, ("csv", "json")))


def run_verification(
    dmax: int = 3,
    amax: int = 3,
    bmax: int = 3,
    nmax: int = 3,
    n_list: tuple[int, ...] = (10, 100, 1000),
    budget: ScanBudget | None = None,
) -> VerifyReport:
    """Run every check; raise ResourceLimitExceeded (with the partial report,
    marked incomplete) when a scan would blow the budget."""
    budget = budget or ScanBudget()
    report = VerifyReport()
    steps = [
        lambda: check_oracle_grid(dmax, amax, bmax, nmax, budget=budget),
        lambda: check_simplex_closed_form(budget=budget),
        check_surface_closed_form,
        check_untwisted_product,
        check_blowup_binomial,
        check_blowup_decomposition_corrected,
        check_blowup_decomposition_uncorrected,
        check_recurrence,
        lambda: check_volume_integration(dmax, amax, bmax, nmax),
        lambda: check_ehrhart_dilation(budget=budget),
        lambda: check_asymptotic_bplus(tuple(n_list)),
        check_asymptotic_bminus,
        check_sweep_determinism,
    ]
    for step in steps:
        try:
            report.checks.append(step())
        except ResourceLimitExceeded as exc:
            report.incomplete = True
            exc.partial = report
            raise
    return report
