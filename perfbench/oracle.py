"""Output oracle for the benchmark: exact expected values, sharing no code with hirzquant.

Q(d, a, b, n) is the number of lattice points of the twisted-bundle polytope,
i.e. sum_{i=0}^{b} C(a + d + n*i, d). The oracle never evaluates that sum
term by term at the benchmark's sizes:

* at n = 1 it uses the hockey-stick identity C(a+d+b+1, d+1) - C(a+d, d+1);
* otherwise Q is a polynomial of degree d+1 in b, so it sums the first d+2
  partial sums directly and interpolates them exactly (Lagrange) at b.

Volumes come from integrating the sliced simplices term by term, and Bernoulli
numbers (B_1 = +1/2) from the Akiyama-Tanigawa algorithm. Every checker takes
an op's parameters and its captured result and returns True only on an exact
match; there is no tolerance anywhere.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple


class Result(NamedTuple):
    """What one CLI call produced: exit code, stdout, and the bytes of its output file."""

    code: int
    stdout: str
    file_bytes: bytes | None = None


def q_count(d: int, a: int, b: int, n: int) -> int:
    """Exact Q(d, a, b, n) by the hockey stick (n = 1) or interpolation in b."""
    if n == 1:
        return comb(a + d + b + 1, d + 1) - comb(a + d, d + 1)
    partial, acc = [], 0
    for i in range(d + 2):
        acc += comb(a + d + n * i, d)
        partial.append(acc)
    if b <= d + 1:
        return partial[b]
    total = Fraction(0)
    for j, value in enumerate(partial):
        weight = Fraction(value)
        for m in range(d + 2):
            if m != j:
                weight *= Fraction(b - m, j - m)
        total += weight
    if total.denominator != 1:
        raise ArithmeticError(f"interpolated Q({d},{a},{b},{n}) is not an integer: {total}")
    return total.numerator


def box_cells(d: int, a: int, b: int, n: int) -> int:
    """Cells of the polytope's bounding box: [0, a+n*b]^d x [0, b]."""
    return (a + n * b + 1) ** d * (b + 1)


def volume(d: int, a: int, b: int, n: int) -> Fraction:
    """Polytope volume: integral over t in [0, b] of (a + n*(b-t))^d / d!, expanded."""
    total = Fraction(0)
    for k in range(d + 1):
        total += comb(d, k) * a ** (d - k) * n**k * Fraction(b ** (k + 1), k + 1)
    return total / factorial(d)


def bernoulli_plus(k: int) -> Fraction:
    """B_k with B_1 = +1/2 (Akiyama-Tanigawa)."""
    row = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def density_series(d: int, b: int) -> Fraction:
    """sum_{k=0}^{d} C(d+1, k) B_k / b^k, the large-twist limit of Q/Vol."""
    return sum((comb(d + 1, k) * bernoulli_plus(k) / Fraction(b) ** k for k in range(d + 1)), Fraction(0))


def gap(d: int, a: int, b: int, n: int) -> Fraction:
    """|Q/Vol - density series| at twist n >= 1."""
    return abs(Fraction(q_count(d, a, b, n)) / volume(d, a, b, n) - density_series(d, b))


def _params_json(d: int, a: int, b: int, n: int) -> dict:
    return {"d": d, "a": a, "b": b, "n": n}


def _load(result: Result):
    if result.code != 0:
        return None
    try:
        return json.loads(result.stdout)
    except ValueError:
        return None


def check_quantize_all(d: int, a: int, b: int, n: int, result: Result) -> bool:
    """`quantize --method all`: all three routes print the exact Q and agree."""
    obj = _load(result)
    if not isinstance(obj, dict):
        return False
    q = str(q_count(d, a, b, n))
    return (
        obj.get("params") == _params_json(d, a, b, n)
        and obj.get("counts") == {"BruteForce": q, "SliceSum": q, "ClosedForm": q}
        and obj.get("agree") is True
    )


def check_quantize_closed(d: int, a: int, b: int, n: int, result: Result) -> bool:
    """`quantize --method closed`: the dimension and every base/fiber term are exact."""
    obj = _load(result)
    if not isinstance(obj, dict):
        return False
    fibers = [str(comb(a + d + n * i, d)) for i in range(1, b + 1)]
    return (
        obj.get("params") == _params_json(d, a, b, n)
        and obj.get("dimension") == str(q_count(d, a, b, n))
        and obj.get("base_term") == str(comb(a + d, d))
        and obj.get("fiber_terms") == fibers
    )


def check_quantize_slice(d: int, a: int, b: int, n: int, result: Result) -> bool:
    """`quantize --method slice`: the slice-sum value is the exact Q."""
    obj = _load(result)
    return obj == {"value": str(q_count(d, a, b, n)), "method": "SliceSum"}


ASYMPTOTICS_HEADER = "n,ratio_num,ratio_den,series_num,series_den,gap_num,gap_den"


def check_asymptotics(d: int, a: int, b: int, n_list: tuple[int, ...], result: Result) -> bool:
    """`asymptotics --format csv`: exact ratio, series value and gap for every twist."""
    if result.code != 0:
        return False
    series = density_series(d, b)
    lines = [ASYMPTOTICS_HEADER]
    for n in n_list:
        ratio = Fraction(q_count(d, a, b, n)) / volume(d, a, b, n)
        g = abs(ratio - series)
        lines.append(
            f"{n},{ratio.numerator},{ratio.denominator},{series.numerator},"
            f"{series.denominator},{g.numerator},{g.denominator}"
        )
    return result.stdout == "\n".join(lines) + "\n"


def expected_sweep_csv(d_range, a_range, b_range, n_range) -> bytes:
    """The exact CSV of `sweep --methods closed,slice --format csv` over inclusive ranges."""
    n_max = n_range[1]
    lines = [
        "d,a,b,n,dimension,slice_count,volume_num,volume_den,gap_at_nmax_num,gap_at_nmax_den"
    ]
    for d in range(d_range[0], d_range[1] + 1):
        for a in range(a_range[0], a_range[1] + 1):
            for b in range(b_range[0], b_range[1] + 1):
                # The gap column depends on (d, a, b, n_max) only; it is blank when undefined.
                g = gap(d, a, b, n_max) if b >= 1 and n_max >= 1 else None
                g_cells = "," if g is None else f"{g.numerator},{g.denominator}"
                for n in range(n_range[0], n_range[1] + 1):
                    q = q_count(d, a, b, n)
                    vol = volume(d, a, b, n)
                    lines.append(
                        f"{d},{a},{b},{n},{q},{q},{vol.numerator},{vol.denominator},{g_cells}"
                    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_sweep(d_range, a_range, b_range, n_range, out_path: str, result: Result) -> bool:
    """`sweep ... --format csv --out PATH`: the file holds exactly the expected rows."""
    rows = 1
    for lo, hi in (d_range, a_range, b_range, n_range):
        rows *= hi - lo + 1
    return (
        result.code == 0
        and result.stdout == f"wrote {rows} rows to {out_path} (csv)\n"
        and result.file_bytes == expected_sweep_csv(d_range, a_range, b_range, n_range)
    )


# Case counts of the default `verify` run, derived from its default grids:
# oracle grid and volume grid d<=3, a,b,n<=3 (3*4*4*4); simplex N<=4, b<=6 (4*7);
# surface a,b,n<=10 (11^3); identity grids d<=3, a,b<=4 (3*5*5); recurrence
# d<=4, a,b,n0<=3 (4*4*4*4); asymptotic families d in {1,2}, a in {0,1},
# b in {1,2,5} (12) and the B_1 = -1/2 pair a in {0,1} (2); one Ehrhart
# dilation; the sweep determinism check renders csv and json (2).
VERIFY_CASES = {
    "oracle_grid_equivalence": 192,
    "projective_space_closed_form": 28,
    "surface_closed_form": 1331,
    "untwisted_factorization": 75,
    "blowup_binomial": 75,
    "blowup_decomposition_corrected": 75,
    "blowup_decomposition_uncorrected": 75,
    "recurrence": 256,
    "volume_vs_integration": 192,
    "ehrhart_dilation": 1,
    "asymptotic_gap_bplus": 12,
    "asymptotic_gap_bminus": 2,
    "sweep_determinism": 2,
}
VERIFY_INFORMATIONAL = {"blowup_decomposition_uncorrected", "asymptotic_gap_bminus"}

_VERIFY_LINE = re.compile(r"(PASS|INFO) (\w+): (\d+) cases, (.*)")


def check_verify(result: Result) -> bool:
    """Default `verify`: every listed check is present with its case count, and all pass.

    Checks beyond the listed ones may appear (or the planned-for-removal
    worker_invariance may vanish) as long as each one reports PASS.
    """
    lines = result.stdout.splitlines()
    if result.code != 0 or not lines or lines[-1] != "OVERALL PASS":
        return False
    seen = {}
    for line in lines[:-1]:
        m = _VERIFY_LINE.fullmatch(line)
        if m is None:
            return False
        status, name, cases, tail = m.group(1), m.group(2), int(m.group(3)), m.group(4)
        informational = name in VERIFY_INFORMATIONAL
        if informational != (status == "INFO"):
            return False
        if tail != ("expected discrepancy reproduced" if informational else "0 failures"):
            return False
        seen[name] = cases
    return all(seen.get(name) == cases for name, cases in VERIFY_CASES.items())
