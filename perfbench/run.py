#!/usr/bin/env python3
"""hirzquant benchmark: CLI workloads timed in one process, outputs checked exactly.

Run from the repository root:

    python3 perfbench/run.py --workload scan_ladder --seed 0 --seconds 25 --trace 0

Each op is an in-process call of ``hirzquant.cli.main(argv)`` with stdout
captured; the seed only chooses the argv. The loop repeats the workload's op
cycle whole, single-threaded and closed (the next op starts when the last one
returns), until the ops' wall time reaches ``--seconds``. Every output is
checked against ``oracle.py`` after the loop; an op that exits non-zero or
mismatches counts as failed. Times are scaled to a reference host speed with a
calibration loop run between ops (see REFERENCE_S); raw wall times are printed
next to them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with spans around each layer (see ``spantrace.py``) and
prints the per-layer metrics. The last stdout line is the JSON result; the
lines above it name every metric with its unit, the environment, and (traced)
each layer's share of op time. Spans and a result record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

# The host's speed drifts by up to half over seconds to minutes (other tenants
# share its cores), and every CPU-bound Python loop slows alike. So a fixed
# calibration loop runs next to every op and every set-up, and their times are
# scaled by REFERENCE_S / (calibration time): each reads as it would on a host
# where the calibration loop takes REFERENCE_S. Raw wall times are printed too.
REFERENCE_S = 0.005
# Set-up is sampled this many times per untraced run (once here, the rest in
# fresh interpreters, so the import is cold each time) and reported as the median.
SETUP_SAMPLES = 5
# The tail latency is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on the host right now (collector off)."""
    gc.disable()
    try:
        start = time.perf_counter()
        hits = 0
        for x, y, z in itertools.product(range(40), range(40), range(40)):
            if x + y + 2 * z <= 60:
                hits += 1
        return time.perf_counter() - start
    finally:
        gc.enable()


class SetupError(RuntimeError):
    """The package under test cannot be set up from this checkout."""


def setup(workload: workloads.Workload, seed: int, tmpdir: str):
    """Import the package, generate the inputs and run one warm-up op.

    Returns (seconds taken at reference speed, cli module, ops, warm-up
    result). The warm-up fills the package's caches, such as its Bernoulli
    numbers.
    """
    before = calibrate()
    start = time.perf_counter()
    if not (SRC / "hirzquant" / "cli.py").is_file():
        raise SetupError(f"no hirzquant package under {SRC}")
    sys.path.insert(0, str(SRC))
    from hirzquant import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported hirzquant from {cli.__file__}, not from {SRC}")
    ops = workload.make_ops(seed, tmpdir)
    warm = run_op(cli.main, ops[0])
    elapsed = time.perf_counter() - start
    return elapsed * 2 * REFERENCE_S / (before + calibrate()), cli, ops, warm


def run_op(main, op: workloads.Op) -> oracle.Result:
    """Call the CLI in-process; an exception or exit status becomes the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a failed benchmark
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    file_bytes = None
    if op.out_path is not None and code == 0:
        with open(op.out_path, "rb") as handle:
            file_bytes = handle.read()
    return oracle.Result(code, out.getvalue(), file_bytes)


class Phase:
    """Timings and distinct outputs of one measured loop over whole op cycles.

    `latencies` and `cpu` are scaled to the reference host speed; `raw` holds
    the wall times as measured.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.cpu = 0.0
        # (op index, result) -> how many ops produced it; outputs repeat, so
        # this holds one copy per distinct output and is checked after the loop.
        self.outputs: Counter = Counter()

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)


def measure(main, ops, seconds: float, on_op=None) -> Phase:
    """Repeat the op cycle until the ops' wall time reaches `seconds`."""
    phase = Phase()
    wall = 0.0
    op_id = 0
    before = calibrate()
    while wall < seconds:
        for index, op in enumerate(ops):
            if on_op is not None:
                on_op(op_id)
            c0, t0 = time.process_time(), time.perf_counter()
            result = run_op(main, op)
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - c0
            after = calibrate()
            scale = 2 * REFERENCE_S / (before + after)
            phase.latencies.append(elapsed * scale)
            phase.raw.append(elapsed)
            phase.cpu += cpu * scale
            phase.outputs[(index, result)] += 1
            wall += elapsed
            op_id += 1
            before = after
    return phase


def count_failures(ops, outputs: Counter) -> int:
    """Ops whose output fails its oracle check; each distinct output is checked once."""
    return sum(count for (index, result), count in outputs.items() if not ops[index].check(result))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    # Too few samples for a tail: fall back to the median rather than go below it.
    index = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter running this file with --setup-probe."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload_name,
        "--seed", str(seed),
        "--setup-probe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment(seed: int) -> dict:
    counting = sys.modules["hirzquant.counting"]
    backend = getattr(counting, "active_backend", None)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "backend": backend() if backend is not None else "n/a",
        "HIRZQUANT_PURE": os.environ.get("HIRZQUANT_PURE", "(unset)"),
        "seed": seed,
    }


def end_to_end(phase: Phase, setups: list[float]) -> tuple[dict, list[str]]:
    tail_s, tail_pct = tail(phase.latencies)
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": statistics.median(phase.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "cpu_ms_per_op": phase.cpu / phase.ops * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "ops_per_s": f"{phase.ops} ops; raw {phase.ops / sum(phase.raw):.4g} 1/s",
        "latency_p50_ms": f"raw {statistics.median(phase.raw) * 1e3:.4g} ms",
        "latency_tail_ms": f"p{tail_pct:.1f} of {phase.ops} samples, {TAIL_BEYOND} beyond",
        "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups),
    }
    lines = [
        f"{name} {metrics[name]:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
        for name, unit in END_TO_END
    ]
    return metrics, lines


def run(workload: workloads.Workload, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        setup_s, cli, ops, warm = setup(workload, seed, tmpdir)
        env = environment(seed)
        lines = [f"env {json.dumps(env)}", f"workload {workload.name}"]
        lines += [f"op {' '.join(op.argv)}" for op in ops]
        checks = Counter({(0, warm): 1})
        attempted = 1
        record = {"workload": workload.name, "seconds": seconds, "trace": int(traced), "env": env}
        ok = True

        if not traced:
            phase = measure(cli.main, ops, seconds)
            setups = [setup_s] + [setup_probe(workload.name, seed) for _ in range(SETUP_SAMPLES - 1)]
            metrics, metric_lines = end_to_end(phase, setups)
            units = dict(END_TO_END)
        else:
            plain = measure(cli.main, ops, seconds / 2)
            tracer = spantrace.Tracer()
            patched = spantrace.install(tracer)
            try:
                phase = measure(cli.main, ops, seconds / 2, on_op=lambda i: setattr(tracer, "op", i))
            finally:
                spantrace.uninstall(patched)
            checks.update(plain.outputs)
            attempted += plain.ops
            metrics = spantrace.layer_metrics(tracer, phase.ops, plain.ops_per_s, phase.ops_per_s)
            units = {name: unit for unit, name in spantrace.LAYER_METRICS}
            metric_lines = [f"{name} {metrics[name]:.6g} {unit}" for unit, name in spantrace.LAYER_METRICS]
            shares = spantrace.layer_shares(tracer)
            record["layer_shares"] = shares
            metric_lines += [f"share {name} {value:.4f}" for name, value in shares.items()]
            metric_lines.append(
                "wait: none measured; ops run one at a time on one thread and no layer has a "
                "queue (verify's worker_invariance check joins its threads inside the kernel span)"
            )
            if workload.bypasses_kernel and len(tracer) and metrics["kernel.calls"] != 0:
                metric_lines.append("ERROR: the scan kernel ran on a workload that must bypass it")
                ok = False
            spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv.gz"
            tracer.write(spans_path)
            metric_lines.append(f"spans {len(tracer)} written to {spans_path.relative_to(ROOT)}")

        checks.update(phase.outputs)
        attempted += phase.ops
        failed = count_failures(ops, checks)
        metric_lines.append(f"failed_ops_ratio {failed / attempted:.6g}  ({failed} of {attempted} ops)")
        record["metrics"] = metrics
        record["failed"], record["attempted"] = failed, attempted
        name = f"result-{workload.name}-seed{seed}-trace{int(traced)}.json"
        (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    for line in lines + metric_lines:
        print(line)
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
                seconds, _, _, warm = setup(workload, args.seed, tmpdir)
            if warm.code != 0:
                raise SetupError(f"warm-up op exited with {warm.code}")
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
