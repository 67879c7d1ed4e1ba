"""Tests of the benchmark itself: oracle, input generator, span arithmetic, failure counting.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run as bench  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402
from hirzquant import cli  # noqa: E402
from hirzquant.polytope import FibrationParams, box_cell_count, build_hirzebruch_polytope  # noqa: E402


def term_sum(d, a, b, n):
    return sum(comb(a + d + n * i, d) for i in range(b + 1))


def test_oracle_known_values():
    assert oracle.q_count(1, 1, 1, 1) == 5
    assert [oracle.q_count(*p) for p in workloads.DEFAULT_LADDER] == [1886, 8365, 16796]
    assert [oracle.bernoulli_plus(k) for k in range(5)] == [
        1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30)
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_oracle_matches_the_term_sum(d):
    for a in range(4):
        for b in range(13):
            for n in range(5):
                assert oracle.q_count(d, a, b, n) == term_sum(d, a, b, n), (d, a, b, n)


def test_oracle_volume_matches_the_closed_form():
    for d, a, b, n in [(1, 2, 3, 1), (2, 0, 5, 3), (3, 4, 2, 2)]:
        closed = Fraction((a + n * b) ** (d + 1) - a ** (d + 1), factorial(d + 1) * n)
        assert oracle.volume(d, a, b, n) == closed
    assert oracle.volume(2, 3, 4, 0) == Fraction(9 * 4, 2)


def run_cli(op):
    return bench.run_op(cli.main, op)


def test_checkers_accept_the_real_outputs(tmp_path):
    for name in ("scan_ladder", "closed_large_b", "sweep_grid"):
        for op in workloads.WORKLOADS[name].make_ops(7, str(tmp_path)):
            assert op.check(run_cli(op)), op.argv


def test_checker_accepts_default_verify():
    (op,) = workloads.verify_ops(0, "")
    assert op.check(run_cli(op))


@pytest.mark.parametrize("seed", range(0, 40))
def test_ladder_is_deterministic_and_inside_its_bands(seed):
    chosen = workloads.ladder(seed)
    assert chosen == workloads.ladder(seed)
    for (band, d, lo, hi), p in zip(workloads.LADDER_BANDS, chosen):
        cells = box_cell_count(build_hirzebruch_polytope(FibrationParams(*p)))
        assert p[0] == d
        assert cells == oracle.box_cells(*p)
        assert lo <= cells <= hi
        assert workloads.band_of(cells) == band


def test_default_seed_runs_the_original_ladder():
    assert workloads.ladder(workloads.DEFAULT_SEED) == ((1, 5, 40, 2), (2, 4, 20, 2), (3, 3, 12, 2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_is_deterministic_in_its_seed(name):
    make = workloads.WORKLOADS[name].make_ops
    assert make(11, "/x") == make(11, "/x")
    assert all(op.argv for op in make(11, "/x"))


def tracer_of(*spans):
    tracer = spantrace.Tracer()
    for span in spans:
        tracer.add(*span)
    return tracer


def test_self_time_subtracts_the_union_of_children():
    tracer = tracer_of(
        ("cli", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),  # overlaps "a": the union of both covers 10..50
        ("c", 25, 35, 2),
        ("d", 90, 120, 0),  # runs past its parent: only 90..100 counts
    )
    assert list(spantrace.self_times(tracer)) == [100 - 40 - 10, 20, 20, 10, 30]


def test_layer_metrics_report_every_listed_metric():
    tracer = tracer_of(
        ("cli", 0, 1_000, -1),
        ("kernel", 100, 600, 0, 3_500, 1_750),
        ("polytope.bounding_box", 100, 200, 1),
        ("quantization", 700, 800, 0, 41),
    )
    m = spantrace.layer_metrics(tracer, n_ops=1, untraced_ops_per_s=2.0, traced_ops_per_s=1.0)
    assert list(m) == [name for _, name in spantrace.LAYER_METRICS]
    assert m["kernel.calls"] == 1 and m["kernel.self_s"] == 400e-9
    assert m["kernel.points_per_s.small"] == 1_750 / 400e-9
    assert m["kernel.points_per_box_cell"] == 0.5
    assert m["cli.self_s"] == 400e-9
    assert m["quantization.terms"] == 41
    assert m["trace_overhead_ratio"] == 2.0
    shares = spantrace.layer_shares(tracer)
    assert shares["kernel"] == 0.4 and sum(shares.values()) == pytest.approx(1)


def test_tracing_wraps_every_binding_and_restores_them(tmp_path):
    import hirzquant.quantization as quantization
    import hirzquant.verify as verify

    original = quantization.quantization_dimension
    tracer = spantrace.Tracer()
    patched = spantrace.install(tracer)
    try:
        assert verify.quantization_dimension is not original
        assert cli.quantization_dimension is quantization.quantization_dimension
        ops = workloads.closed_large_b_ops(5, str(tmp_path))
        phase = bench.measure(cli.main, ops, 1e-9)
    finally:
        spantrace.uninstall(patched)
    assert verify.quantization_dimension is original and cli.quantization_dimension is original
    assert bench.count_failures(ops, phase.outputs) == 0
    m = spantrace.layer_metrics(tracer, phase.ops, 1.0, 1.0)
    assert m["kernel.calls"] == 0 and m["quantization.calls"] > 0


def test_a_corrupted_output_counts_as_a_failed_op():
    ops = workloads.scan_ladder_ops(0, "")[:1]

    def corrupt(argv):
        code = cli.main(argv)
        print("trailing garbage")
        return code

    good = bench.measure(cli.main, ops, 1e-9)
    bad = bench.measure(corrupt, ops, 1e-9)
    assert bench.count_failures(ops, good.outputs) == 0
    assert bench.count_failures(ops, bad.outputs) == bad.ops == 1
    assert bench.count_failures(ops, good.outputs + bad.outputs) == 1


def test_sweep_output_must_match_byte_for_byte(tmp_path):
    (op,) = workloads.sweep_grid_ops(2, str(tmp_path))
    result = run_cli(op)
    assert op.check(result)
    changed = result._replace(file_bytes=result.file_bytes.replace(b"\n", b"\r\n", 1))
    outputs = Counter({(0, result): 3, (0, changed): 2})
    assert bench.count_failures([op], outputs) == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 51)]
    assert bench.tail(latencies) == (40.0, 80.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, 200 / 3)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["unit"], m["name"]) for m in spec["per_layer"]] == list(spantrace.LAYER_METRICS)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
