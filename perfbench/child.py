"""What runs inside one fresh child process: set-up, then a closed loop.

One caller, one operation at a time.  The child announces ``ready`` on
its standard output once set-up and one warm-up operation are done (the
parent clocks ``setup_s`` from the spawn to that line), runs its timed
operations, and prints one JSON document with what it measured.

Host seconds are *calibrated*: the box this benchmark was built on
switches between speed states some 20 % apart and stays in one for tens
of seconds, which no amount of repetition inside a run averages out.  A
small fixed reference kernel (interpreter loop, elementwise numpy, BLAS)
is therefore timed between operations, and every operation's wall time
is scaled by ``NOMINAL_REFERENCE_S / reference seconds around it`` --
"seconds on a machine running the reference at its nominal speed".  Raw
wall seconds and the reference readings are reported beside them.

The untraced pass only carries the harness's own explicit spans.  The
traced pass (``--traced 1``) additionally runs the workload's ladder,
then the same number of operations untraced and with the patch points
of :mod:`spans` installed, and derives the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import spans
from spans import END, LAYER, NAME, OP, START, Recorder
from workloads import WORKLOADS, Workload

#: What the reference kernel takes on the box the benchmark was built
#: on, in its slower speed state; only scales the calibrated seconds.
NOMINAL_REFERENCE_S = 0.005
_REF_VECTOR = np.random.default_rng(0).standard_normal(1 << 18).astype(np.float32)
_REF_MATRIX = np.random.default_rng(1).standard_normal((192, 192)).astype(np.float32)


def reference_s() -> float:
    """Median of three timings of the fixed reference kernel.

    A third each of interpreter work, allocating elementwise numpy and
    single-threaded BLAS -- the mix the workloads are made of.
    """
    readings = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        vector = _REF_VECTOR
        for _ in range(8):
            vector = np.sqrt(np.abs(vector) + 1.0)
        for _ in range(4):
            _REF_MATRIX @ _REF_MATRIX
        readings.append(perf_counter() - start)
    return statistics.median(readings)

#: Direct timed calls per ladder rung ("median of at least five").
LADDER_REPEATS = 5
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Patched spans reported as ``<name>.self_s_per_op``.
SELF_S_SPANS = (
    "core.stream_compress",
    "core.aggregate",
    "transport.build_wire_message",
    "transport.endpoint.isend",
    "transport.aggregation",
    "network.kernel",
    "distributed.run_strategy",
    "distributed.trainer_setup",
    "dnn.local_gradient",
    "dnn.apply_gradient",
)
#: Patched spans also reported as ``<name>.calls_per_op``.
CALLS_SPANS = ("core.stream_compress", "transport.build_wire_message")


class OpLoop:
    """Runs operations one at a time and keeps their verdicts and timings."""

    def __init__(self, workload: Workload, rec: Recorder) -> None:
        self.workload = workload
        self.rec = rec
        self.first: Optional[Dict[str, Any]] = None
        self.last: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failures: List[str] = []
        self.kinds: Dict[int, str] = {}
        #: Raw wall seconds of the untraced timed operations.
        self.raw_s: List[float] = []
        #: Every reference reading, in order: one before the first
        #: operation and one after each.
        self.references: List[float] = [reference_s()]
        #: Calibration factor of every operation (ladder repeats too).
        self.scale: Dict[int, float] = {}

    def run_one(self, kind: str) -> Optional[float]:
        """One checked operation; its calibrated host seconds (None if it raised)."""
        op = len(self.kinds)
        self.kinds[op] = kind
        self.attempted += 1
        gc.collect()
        root = len(self.rec.spans)
        try:
            with self.rec.operation(op):
                obs = self.workload.op(self.rec)
            if self.first is None:
                self.first = obs
            gates = self.workload.check(obs, self.first)
        except Exception:
            traceback.print_exc()
            self.failures.append(f"op {op} ({kind}) raised")
            return None
        finally:
            self.references.append(reference_s())
        if gates:
            self.failures.append(f"op {op} ({kind}): " + "; ".join(gates))
        self.last = obs
        span = self.rec.spans[root]
        raw = span[END] - span[START]
        if kind == "untraced":
            self.raw_s.append(raw)
        return raw * self.calibrate([op])

    def calibrate(self, ops: Sequence[int]) -> float:
        """Give ``ops`` the factor of the last two reference readings."""
        factor = NOMINAL_REFERENCE_S * 2 / (self.references[-2] + self.references[-1])
        self.scale.update(dict.fromkeys(ops, factor))
        return factor

    def run(self, kind: str, budget_s: float, ops: Optional[int]) -> List[float]:
        """Operations of ``kind`` until ``ops`` are done or ``budget_s`` is spent.

        Time-bounded runs stop when the next operation would overshoot
        the budget by more than it undershoots (and always do one).
        """
        durations: List[float] = []
        attempts = 0
        start = perf_counter()
        while True:
            took = self.run_one(kind)
            attempts += 1
            if took is not None:
                durations.append(took)
            if ops is not None:
                if attempts >= ops:
                    return durations
            else:
                elapsed = perf_counter() - start
                if elapsed + 0.5 * elapsed / attempts >= budget_s:
                    return durations

    def run_ladder(self) -> None:
        if self.workload.ladder is None:
            return
        self.workload.ladder_setup()
        first = len(self.kinds)
        for op in range(first, first + LADDER_REPEATS):
            self.kinds[op] = "ladder"
            gc.collect()
            with self.rec.operation(op):
                self.workload.ladder(self.rec)
        self.references.append(reference_s())
        self.calibrate(range(first, first + LADDER_REPEATS))


def stage_medians(loop: OpLoop, use: Sequence[str]) -> Dict[str, float]:
    """Median calibrated seconds per operation of every span name, over ops of kinds ``use``."""
    per_op: Dict[str, Dict[int, float]] = {}
    for span in loop.rec.spans:
        op = span[OP]
        if loop.kinds.get(op) in use and op in loop.scale:
            by_op = per_op.setdefault(span[NAME], {})
            by_op[op] = by_op.get(op, 0.0) + (span[END] - span[START]) * loop.scale[op]
    return {name: statistics.median(by_op.values()) for name, by_op in per_op.items()}


def layer_metrics(
    workload: Workload,
    stage_s: Dict[str, float],
    self_s: Dict[str, float],
    calls: Dict[str, float],
    counts: Dict[str, float],
    missing: Sequence[str],
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced child, by final metric name.

    ``self_s``/``calls`` are per-operation means over the traced ops.  A
    patch point that no longer resolves reads as ``None`` (absent); a
    span that simply never ran on this workload reads as 0.
    """
    out: Dict[str, Optional[float]] = dict(counts)
    for span, (metric, amount) in workload.rates.items():
        out[metric] = amount / stage_s[span]
    for metric, (numerator, denominator) in workload.ratios.items():
        out[metric] = stage_s[numerator] / stage_s[denominator]
    for span in workload.host_s:
        out[f"{span}.host_s"] = stage_s[span]
    for span in SELF_S_SPANS:
        out[f"{span}.self_s_per_op"] = None if span in missing else self_s.get(span, 0.0)
    for span in CALLS_SPANS:
        out[f"{span}.calls_per_op"] = None if span in missing else calls.get(span, 0.0)
    if "network.kernel" not in missing and "network.send" not in missing:
        messages = calls.get("network.send", 0.0)
        out["network.kernel.host_us_per_message"] = (
            self_s.get("network.kernel", 0.0) / messages * 1e6 if messages else 0.0
        )
    harness = self_s.get("op", 0.0)
    out["perfbench.self_time_coverage"] = (sum(self_s.values()) - harness) / sum(self_s.values())
    return out


def traced_pass(loop: OpLoop, budget_s: float, ops: Optional[int]) -> Dict[str, Any]:
    """Ladder, then untraced and traced operations; returns the traced report."""
    rec, workload = loop.rec, loop.workload
    start = perf_counter()
    loop.run_ladder()
    remaining = max(budget_s - (perf_counter() - start), 0.0)
    untraced = loop.run("untraced", remaining / 2, ops)
    undo, missing = spans.install(rec)
    try:
        traced = loop.run("traced", 0.0, len(untraced))
        counts = workload.counts(loop.last, rec.kept) if loop.last else {}
    finally:
        spans.uninstall(undo)

    traced_spans = [
        s for s in rec.spans if loop.kinds.get(s[OP]) == "traced" and s[OP] in loop.scale
    ]
    self_s, calls = spans.per_op_means(traced_spans, NAME, loop.scale)
    stage_s = stage_medians(loop, ("ladder", "untraced"))
    per_layer = layer_metrics(workload, stage_s, self_s, calls, counts, missing)
    traced_p50 = statistics.median(traced) if traced else float("nan")
    if untraced:
        per_layer["perfbench.trace_overhead_ratio"] = traced_p50 / statistics.median(untraced)
        per_layer["perfbench.host_op_wall_s_p50"] = statistics.median(loop.raw_s)
    per_layer["perfbench.reference_kernel_s"] = statistics.median(loop.references)

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{workload.name}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "span_fields": list(spans.SPAN_FIELDS),
                "clock": "host perf_counter seconds",
                "missing_patch_points": list(missing),
                "spans": [list(s) for s in traced_spans],
            }
        )
    )
    return {
        "per_layer": per_layer,
        "layer_self_s_per_op": spans.per_op_means(traced_spans, LAYER, loop.scale)[0],
        "traced_host_op_s_p50": traced_p50,
        "traced_ops": len(traced),
        "missing_patch_points": list(missing),
        "trace_file": str(trace_file.relative_to(OUT_DIR.parent.parent)),
        "durations": untraced,
    }


def main(workload_name: str, seed: int, budget_s: float, ops: Optional[int], traced: bool) -> int:
    workload = WORKLOADS[workload_name]()
    workload.setup(seed)
    loop = OpLoop(workload, Recorder())
    loop.run_one("warmup")
    # The parent clocks set-up up to this line and needs the calibration
    # factor of that moment: the reading taken right after the warm-up.
    scale = NOMINAL_REFERENCE_S / loop.references[-1]
    print(json.dumps({"event": "ready", "scale": scale}), flush=True)

    if traced:
        report = traced_pass(loop, budget_s, ops)
    else:
        report = {"durations": loop.run("untraced", budget_s, ops)}
    first = loop.first or {}
    report.update(
        raw_durations=loop.raw_s,
        references=loop.references,
        attempted=loop.attempted,
        failures=loop.failures,
        sim_iter_s=first.get("sim_iter_s"),
        wire_ratio=first.get("wire_ratio"),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report), flush=True)
    return 0
