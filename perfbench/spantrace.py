"""Spans around hirzquant's layers, recorded from the benchmark's own files.

The traced pass replaces each public function of interest with a wrapper at
every module binding that refers to it (``quantization_dimension`` is bound
in ``quantization``, ``verify``, ``sweep``, ``analysis``, ``cli`` and the
package itself), and puts the originals back afterwards. Nothing under
``src/`` changes. Spans stay in memory, one row each of name, start, end,
parent and op id plus two counters, and are written out when the run ends;
self time is computed from them afterwards as a span's duration minus the
part its children cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

import workloads

# Time spent computing counters (box cells of a scan, say) is kept in spans
# of this name, so that no layer's self time includes it.
COUNTER = "bench.counter"

VERIFY_CHECKS = (
    "oracle_grid",
    "simplex_closed_form",
    "surface_closed_form",
    "untwisted_product",
    "blowup_binomial",
    "blowup_decomposition_corrected",
    "blowup_decomposition_uncorrected",
    "recurrence",
    "volume_integration",
    "ehrhart_dilation",
    "asymptotic_bplus",
    "asymptotic_bminus",
    "sweep_determinism",
    "worker_invariance",
)

# (unit, name) of every per-layer metric, in print order. Counts and times are
# per traced op; rates and ratios are over the whole traced phase. Span times
# are raw wall times; only trace_overhead_ratio compares reference-speed rates.
LAYER_METRICS = (
    ("count/op", "kernel.calls"),
    ("s/op", "kernel.self_s"),
    ("count/op", "kernel.box_cells"),
    ("count/op", "kernel.points"),
    ("1/s", "kernel.box_cells_per_s"),
    ("ratio", "kernel.points_per_box_cell"),
    ("1/s", "kernel.points_per_s.small"),
    ("1/s", "kernel.points_per_s.mid"),
    ("1/s", "kernel.points_per_s.large"),
    ("count/op", "polytope.bounding_box.calls"),
    ("s/op", "polytope.bounding_box.self_s"),
    ("count/op", "quantization.calls"),
    ("count/op", "quantization.terms"),
    ("s/op", "quantization.self_s"),
    ("count/op", "slice.calls"),
    ("count/op", "slice.terms"),
    ("s/op", "slice.self_s"),
    ("s/op", "analysis.ratio_convergence.self_s"),
    ("s/op", "analysis.symplectic_volume.self_s"),
    ("s/op", "analysis.recurrence_residual.self_s"),
    ("s/op", "sweep.render_sweep.self_s"),
    ("count/op", "sweep.rows"),
    ("bytes/op", "sweep.bytes"),
    *(("s/op", f"verify.{name}.s") for name in VERIFY_CHECKS),
    ("s/op", "cli.self_s"),
    ("ratio", "trace_overhead_ratio"),
)


class Tracer:
    """In-memory span recorder: parallel integer columns, one row per span.

    A traced sweep makes about 30k spans per op, so rows are packed into
    arrays rather than kept as objects. `op` tags every new span with the op
    that caused it. `first` and `second` hold the span's counters: box cells
    and points for "kernel", terms for "quantization" and "slice", rows and
    bytes for "sweep.render_sweep".
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.first = array("q")
        self.second = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.active = True

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0)
        self.first.append(0)
        self.second.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, start: int, end: int, parent: int, first: int = 0, second: int = 0) -> int:
        """Append a finished span (for spans built outside a traced call)."""
        index = self.open(self.name_id(name))
        self.stack.pop()
        self.start[index], self.end[index], self.parent[index] = start, end, parent
        self.first[index], self.second[index] = first, second
        return index

    def wrap(self, fn, name: str, count=None, costly: bool = False):
        """A stand-in for `fn` that records one span per call.

        `count(args, kwargs, result)` returns the span's two counters and runs
        after the span has closed. A `costly` one runs with tracing paused,
        inside a COUNTER span, so that the caller's self time excludes it.
        """
        span_id, counter_id = self.name_id(name), self.name_id(COUNTER)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None and not costly:
                self.first[index], self.second[index] = count(args, kwargs, result)
            elif count is not None:
                counting = self.open(counter_id)
                self.active = False
                try:
                    self.first[index], self.second[index] = count(args, kwargs, result)
                finally:
                    self.active = True
                    self.close(counting)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated rows under a header line."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\top\tfirst\tsecond\n")
            names = self.names
            for row in zip(self.name, self.start, self.end, self.parent, self.op_id, self.first, self.second):
                handle.write(f"{names[row[0]]}\t{row[1]}\t{row[2]}\t{row[3]}\t{row[4]}\t{row[5]}\t{row[6]}\n")


def _kernel_count(args, kwargs, result):
    from hirzquant.polytope import box_cell_count

    points = result.value if hasattr(result, "value") else sum(result)
    return box_cell_count(args[0] if args else kwargs["poly"]), points


def _terms_count(args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    return p.b + 1, 0


def _sweep_count(args, kwargs, result):
    # CSV carries a header line; JSON carries one "params" object per row.
    rows = result.count(b'"params"') if result.startswith(b"[") else result.count(b"\n") - 1
    return rows, len(result)


def targets():
    """(module, attribute, span name, counter function, counter is costly) of every traced function."""
    out = [
        ("hirzquant.counting", "count_brute_force", "kernel", _kernel_count, True),
        ("hirzquant.counting", "brute_force_slice_counts", "kernel", _kernel_count, True),
        ("hirzquant.polytope", "bounding_box", "polytope.bounding_box", None, False),
        ("hirzquant.quantization", "quantization_dimension", "quantization", _terms_count, False),
        ("hirzquant.counting", "count_slice_sum", "slice", _terms_count, False),
        ("hirzquant.analysis", "ratio_convergence", "analysis.ratio_convergence", None, False),
        ("hirzquant.analysis", "symplectic_volume", "analysis.symplectic_volume", None, False),
        ("hirzquant.analysis", "recurrence_residual", "analysis.recurrence_residual", None, False),
        ("hirzquant.sweep", "render_sweep", "sweep.render_sweep", _sweep_count, False),
        ("hirzquant.cli", "main", "cli", None, False),
    ]
    out += [("hirzquant.verify", f"check_{name}", f"verify.{name}", None, False) for name in VERIFY_CHECKS]
    return out


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target at every hirzquant module binding; returns what `uninstall` needs."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hirzquant"]
    patched = []
    for module_name, attr, name, count, costly in targets():
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:  # a check removed from the package is reported as zero
            continue
        traced = tracer.wrap(original, name, count, costly)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, traced)
                patched.append((module, key, original))
    return patched


def uninstall(patched) -> None:
    for module, key, original in patched:
        setattr(module, key, original)


def self_times(tracer: Tracer) -> array:
    """Per span: its duration minus the union of its children's intervals, in ns.

    Spans must be in the order they opened, as the Tracer records them, so
    that each parent meets its children in start order.
    """
    start, end, n = tracer.start, tracer.end, len(tracer)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)
    for index, parent in enumerate(tracer.parent):
        if parent >= 0:
            lo, hi = max(start[index], reach[parent]), min(end[index], end[parent])
            if hi > lo:
                covered[parent] += hi - lo
                reach[parent] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def _totals(tracer: Tracer):
    """Per span name: calls, self ns, total ns, and the two counter sums."""
    selfs = self_times(tracer)
    calls, self_ns, total_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    sums = defaultdict(int)
    band_points, band_ns = defaultdict(int), defaultdict(int)
    kernel_id = tracer.name_ids.get("kernel")
    for index, own in enumerate(selfs):
        name_id = tracer.name[index]
        calls[name_id] += 1
        self_ns[name_id] += own
        total_ns[name_id] += tracer.end[index] - tracer.start[index]
        sums[name_id, 0] += tracer.first[index]
        sums[name_id, 1] += tracer.second[index]
        if name_id == kernel_id:
            band = workloads.band_of(tracer.first[index])
            if band is not None:
                band_points[band] += tracer.second[index]
                band_ns[band] += own
    by_name = {}
    for name, name_id in tracer.name_ids.items():
        by_name[name] = (calls[name_id], self_ns[name_id], total_ns[name_id],
                         sums[name_id, 0], sums[name_id, 1])
    return by_name, band_points, band_ns


def layer_metrics(tracer: Tracer, n_ops: int, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Per-layer metrics (see LAYER_METRICS) from a traced phase of `n_ops` whole ops."""
    by_name, band_points, band_ns = _totals(tracer)

    def get(name):
        return by_name.get(name, (0, 0, 0, 0, 0))

    def rate(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    m = {}
    for name, (calls, self_ns, total_ns, first, second) in (
        (name, get(name)) for name in ("kernel", "polytope.bounding_box", "quantization", "slice")
    ):
        m[f"{name}.calls"] = calls / n_ops
        m[f"{name}.self_s"] = self_ns / 1e9 / n_ops
    _, kernel_ns, _, cells, points = get("kernel")
    m["kernel.box_cells"] = cells / n_ops
    m["kernel.points"] = points / n_ops
    m["kernel.box_cells_per_s"] = rate(cells, kernel_ns)
    m["kernel.points_per_box_cell"] = points / cells if cells else 0.0
    for band, _, _, _ in workloads.LADDER_BANDS:
        m[f"kernel.points_per_s.{band}"] = rate(band_points[band], band_ns[band])
    m["quantization.terms"] = get("quantization")[3] / n_ops
    m["slice.terms"] = get("slice")[3] / n_ops
    for name in ("ratio_convergence", "symplectic_volume", "recurrence_residual"):
        m[f"analysis.{name}.self_s"] = get(f"analysis.{name}")[1] / 1e9 / n_ops
    _, sweep_ns, _, rows, size = get("sweep.render_sweep")
    m["sweep.render_sweep.self_s"] = sweep_ns / 1e9 / n_ops
    m["sweep.rows"] = rows / n_ops
    m["sweep.bytes"] = size / n_ops
    for name in VERIFY_CHECKS:
        m[f"verify.{name}.s"] = get(f"verify.{name}")[2] / 1e9 / n_ops
    m["cli.self_s"] = get("cli")[1] / 1e9 / n_ops
    m["trace_overhead_ratio"] = untraced_ops_per_s / traced_ops_per_s
    return {name: m[name] for _, name in LAYER_METRICS}


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of all traced op time (verify checks pooled)."""
    by_layer = defaultdict(int)
    for name, (_, self_ns, _, _, _) in _totals(tracer)[0].items():
        by_layer["verify.checks" if name.startswith("verify.") else name] += self_ns
    total = sum(by_layer.values())
    return {name: ns / total for name, ns in sorted(by_layer.items(), key=lambda kv: -kv[1]) if ns}
