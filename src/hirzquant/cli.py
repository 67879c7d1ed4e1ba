"""Command-line surface: quantize, polytope, volume, verify, sweep, asymptotics.

Exit codes are a stable contract: 0 success, 1 verification/agreement failure,
2 usage error, 3 resource limit, 4 I/O error. All output is exact and
deterministic; big integers print as decimal strings inside JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, counting, sweep, verify
from .analysis import BernoulliConvention
from .polytope import (
    Box,
    FibrationParams,
    HPolytope,
    bounding_box,
    build_hirzebruch_polytope,
    cell_count,
    vertices,
)
from .quantization import quantization_dimension

# Refuse brute-force scans above this many box cells unless --force is given.
BRUTE_CELL_LIMIT = 10**8
# Refuse sweeps of more than this many rows unless --force is given.
SWEEP_ROW_LIMIT = 10**6
# Refuse to list more than this many terms C(a+d+n*i, d) unless --force is given.
TERM_LIMIT = 10**7

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


def run() -> None:
    sys.exit(main())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args, parser)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except verify.ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError as exc:
        # Point stdout at devnull, so the flush at exit has nothing left to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_IO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirzquant",
        description=(
            "Exact lattice-point quantization counts for projective spaces and "
            "twisted projective-line bundles over CP^d."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quantize = sub.add_parser("quantize", help="count the quantization dimension")
    _add_param_flags(quantize)
    quantize.add_argument(
        "--method",
        choices=["closed", "slice", "brute", "all"],
        default="closed",
        help="counting route; 'all' cross-checks the three routes",
    )
    quantize.add_argument(
        "--force", action="store_true", help="allow scans and term lists above their limits"
    )
    quantize.set_defaults(handler=cmd_quantize)

    polytope = sub.add_parser("polytope", help="emit polytope data")
    _add_param_flags(polytope)
    what = polytope.add_mutually_exclusive_group(required=True)
    what.add_argument("--vertices", action="store_true", help="vertex set with degeneracy flag")
    what.add_argument("--inequalities", action="store_true", help="half-space rows")
    what.add_argument("--basis", action="store_true", help="monomial basis exponents, lex order")
    polytope.add_argument("--force", action="store_true", help="allow scans above the cell limit")
    polytope.set_defaults(handler=cmd_polytope)

    volume = sub.add_parser("volume", help="exact symplectic volume")
    _add_param_flags(volume)
    volume.set_defaults(handler=cmd_volume)

    verify_cmd = sub.add_parser("verify", help="run the verification suite")
    verify_cmd.add_argument("--dmax", type=int, default=3, help="oracle grid: max base dimension")
    verify_cmd.add_argument("--amax", type=int, default=3, help="oracle grid: max a")
    verify_cmd.add_argument("--bmax", type=int, default=3, help="oracle grid: max b")
    verify_cmd.add_argument("--nmax", type=int, default=3, help="oracle grid: max twist")
    verify_cmd.add_argument(
        "--n-list", default="10,100,1000", help="increasing twists for the asymptotic check"
    )
    verify_cmd.add_argument(
        "--cell-limit",
        type=int,
        default=1_000_000,
        help="max box cells per brute-force scan (desk-scale guard)",
    )
    verify_cmd.add_argument(
        "--max-polytopes", type=int, default=100_000, help="max grid tuples in the oracle check"
    )
    verify_cmd.add_argument("--json", action="store_true", help="machine-readable report")
    verify_cmd.set_defaults(handler=cmd_verify)

    sweep_cmd = sub.add_parser("sweep", help="write a parameter sweep artifact")
    sweep_cmd.add_argument("--d", default="1:1", help="inclusive range LO:HI (or a single value)")
    sweep_cmd.add_argument("--a", default="0:2", help="inclusive range LO:HI (or a single value)")
    sweep_cmd.add_argument("--b", default="1:2", help="inclusive range LO:HI (or a single value)")
    sweep_cmd.add_argument("--n", default="0:3", help="inclusive range LO:HI (or a single value)")
    sweep_cmd.add_argument(
        "--methods",
        default="closed",
        help="comma list from closed,slice,brute (closed always included)",
    )
    sweep_cmd.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep_cmd.add_argument(
        "--out",
        default=None,
        help="output path (default: sweep.<fmt> in $HIRZQUANT_SWEEP_DIR or the cwd)",
    )
    sweep_cmd.add_argument(
        "--force",
        action="store_true",
        help="allow sweeps, scans and term lists above their limits",
    )
    sweep_cmd.set_defaults(handler=cmd_sweep)

    asymptotics = sub.add_parser("asymptotics", help="ratio-convergence table")
    asymptotics.add_argument("--d", type=int, required=True)
    asymptotics.add_argument("--a", type=int, required=True)
    asymptotics.add_argument("--b", type=int, required=True)
    asymptotics.add_argument("--n-list", default="10,100,1000", help="comma list of twists >= 1")
    asymptotics.add_argument(
        "--convention",
        choices=["bplus", "bminus"],
        default="bplus",
        help="sign convention for the degree-1 Bernoulli number",
    )
    asymptotics.add_argument("--format", choices=["csv", "json"], default="csv")
    asymptotics.set_defaults(handler=cmd_asymptotics)

    return parser


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int, required=True, help="base dimension, >= 1")
    sub.add_argument("--a", type=int, required=True, help="base scale, >= 0")
    sub.add_argument("--b", type=int, required=True, help="fiber scale, >= 0")
    sub.add_argument("--n", type=int, required=True, help="twist, >= 0")


def _params(args, parser) -> FibrationParams:
    try:
        return FibrationParams(d=args.d, a=args.a, b=args.b, n=args.n)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_n_list(text: str, parser) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"malformed twist list {text!r}; expected comma-separated integers")
    if not values or any(n < 1 for n in values) or list(values) != sorted(set(values)):
        parser.error(f"twist list must be strictly increasing positive integers, got {text!r}")
    return values


def _parse_range(text: str, name: str, parser) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        parser.error(f"malformed range for {name}: {text!r}; expected LO:HI")
    return lo, hi


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _print_points(points) -> None:
    """Write json.dumps(list(points), indent=2) and a newline, one point at a time.

    Each point is a tuple of ints, so it is spelled here as the nested list
    json.dumps would write, and no more than one point is held at once.
    """
    opening = "[\n"
    for point in points:
        sys.stdout.write(opening + "  [\n    " + ",\n    ".join(map(str, point)) + "\n  ]")
        opening = ",\n"
    sys.stdout.write("[]\n" if opening == "[\n" else "\n]\n")


def _guard(what: str, size: int, limit: int, force: bool) -> None:
    """Refuse work of `size` above `limit` unless --force; `main` maps the refusal to exit 3."""
    if size > limit and not force:
        raise verify.ResourceLimitExceeded(
            f"{what} exceeds the limit {limit}; re-run with --force to override"
        )


def _guard_cells(poly: HPolytope, force: bool) -> Box:
    """Refuse a scan above BRUTE_CELL_LIMIT unless --force; return the box to scan."""
    box = bounding_box(poly)
    cells = cell_count(box)
    _guard(f"scan of {cells} cells", cells, BRUTE_CELL_LIMIT, force)
    return box


def cmd_quantize(args, parser) -> int:
    p = _params(args, parser)
    if args.method in ("closed", "slice"):
        # The closed route prints every fiber term; the slice route sums them.
        _guard(f"list of {p.b + 1} terms", p.b + 1, TERM_LIMIT, args.force)
    if args.method == "closed":
        _print_json(quantization_dimension(p).to_json())
        return EXIT_OK
    if args.method == "slice":
        _print_json(counting.count_slice_sum(p).to_json())
        return EXIT_OK

    poly = build_hirzebruch_polytope(p)
    box = _guard_cells(poly, args.force)
    if args.method == "brute":
        _print_json(counting.count_brute_force(poly, box).to_json())
        return EXIT_OK

    brute = counting.count_brute_force(poly, box).value
    sliced = counting.count_slice_sum(p).value
    closed = quantization_dimension(p).dimension
    agree = brute == sliced == closed
    _print_json(
        {
            "params": p.to_json(),
            "counts": {
                "BruteForce": str(brute),
                "SliceSum": str(sliced),
                "ClosedForm": str(closed),
            },
            "agree": agree,
        }
    )
    if not agree:
        print(
            f"error: counting routes disagree: brute={brute} slice={sliced} closed={closed}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_polytope(args, parser) -> int:
    p = _params(args, parser)
    poly = build_hirzebruch_polytope(p)
    if args.vertices:
        _print_json(vertices(p).to_json())
        return EXIT_OK
    if args.inequalities:
        _print_json(poly.to_json())
        return EXIT_OK
    box = _guard_cells(poly, args.force)
    _print_points(counting.lattice_points(poly, box))
    return EXIT_OK


def cmd_volume(args, parser) -> int:
    p = _params(args, parser)
    _print_json(analysis.rational_json(analysis.symplectic_volume(p)))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    n_list = _parse_n_list(args.n_list, parser)
    if len(n_list) < 2:
        parser.error(f"the asymptotic check needs at least two twists, got {args.n_list!r}")
    for flag in ("dmax", "amax", "bmax", "nmax", "cell_limit", "max_polytopes"):
        if getattr(args, flag) < (1 if flag == "dmax" else 0):
            parser.error(f"--{flag.replace('_', '-')} out of range")
    budget = verify.ScanBudget(cell_limit=args.cell_limit, max_polytopes=args.max_polytopes)
    try:
        report = verify.run_verification(
            dmax=args.dmax,
            amax=args.amax,
            bmax=args.bmax,
            nmax=args.nmax,
            n_list=n_list,
            budget=budget,
        )
    except verify.ResourceLimitExceeded as exc:
        _emit_report(exc.partial, as_json=args.json)
        print(f"error: resource limit exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    _emit_report(report, as_json=args.json)
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL


def _emit_report(report: verify.VerifyReport, as_json: bool) -> None:
    if as_json:
        _print_json(report.to_json())
        return
    for check in report.checks:
        if check.informational:
            status = "INFO" if check.passed else "INFO(unexpected)"
            tail = "expected discrepancy reproduced" if check.passed else "NOT reproduced"
            line = f"{status} {check.name}: {check.cases} cases, {tail}"
        else:
            status = "PASS" if check.passed else "FAIL"
            line = f"{status} {check.name}: {check.cases} cases, {check.failures} failures"
        if check.first_counterexample:
            line += f" (first: {check.first_counterexample})"
        print(line)
    verdict = "INCOMPLETE" if report.incomplete else "PASS" if report.overall_pass else "FAIL"
    print(f"OVERALL {verdict}")


def cmd_sweep(args, parser) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        spec = sweep.SweepSpec(
            d_range=_parse_range(args.d, "d", parser),
            a_range=_parse_range(args.a, "a", parser),
            b_range=_parse_range(args.b, "b", parser),
            n_range=_parse_range(args.n, "n", parser),
            methods=methods,
            fmt=args.format,
        )
    except ValueError as exc:
        parser.error(str(exc))

    _guard(f"sweep of {len(spec)} rows", len(spec), SWEEP_ROW_LIMIT, args.force)
    if "slice" in spec.methods or spec.fmt == "json":
        # Each row sums (slice) or prints (json fiber_terms) up to b_hi + 1 terms.
        terms = len(spec) * (spec.b_range[1] + 1)
        _guard(f"sweep listing {terms} terms", terms, TERM_LIMIT, args.force)
    if "brute" in spec.methods:
        for p in spec.tuples():
            _guard_cells(build_hirzebruch_polytope(p), args.force)

    out_path = args.out
    if out_path is None:
        out_dir = os.environ.get("HIRZQUANT_SWEEP_DIR", "")
        out_path = os.path.join(out_dir, f"sweep.{spec.fmt}") if out_dir else f"sweep.{spec.fmt}"

    payload = sweep.render_sweep(spec)
    try:
        with open(out_path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(spec)} rows to {out_path} ({spec.fmt})")
    return EXIT_OK


def cmd_asymptotics(args, parser) -> int:
    n_list = _parse_n_list(args.n_list, parser)
    convention = (
        BernoulliConvention.B_PLUS if args.convention == "bplus" else BernoulliConvention.B_MINUS
    )
    try:
        points = analysis.ratio_convergence(args.d, args.a, args.b, n_list, convention)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        _print_json([pt.to_json() for pt in points])
        return EXIT_OK
    print("n,ratio_num,ratio_den,series_num,series_den,gap_num,gap_den")
    for pt in points:
        print(
            f"{pt.n},{pt.ratio.numerator},{pt.ratio.denominator},"
            f"{pt.series_value.numerator},{pt.series_value.denominator},"
            f"{pt.gap.numerator},{pt.gap.denominator}"
        )
    return EXIT_OK


if __name__ == "__main__":
    run()
