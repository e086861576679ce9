#!/usr/bin/env python3
"""The repo benchmark: six workloads, two clocks, per-layer ladder and trace.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).

Human form::

    python3 perfbench/run.py --all [--traced] [--seed N] [--runs N] [--ops N] [--out FILE]

runs all six workloads ``--runs`` times, prints every metric by name with
its unit (median and quartiles over the runs), and writes a result file
(with the run manifest) that ``compare.py`` reads.

Every workload runs in fresh child processes, closed loop, one caller,
BLAS pinned to one thread.  See ``README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere (children inherit it): the
# box has two cores, and BLAS threads fighting the harness for them is
# the largest source of run-to-run noise.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Fixed string hashing: set/dict iteration order no longer varies
    # between children, which removes a little timing noise.
    "PYTHONHASHSEED": "0",
}
os.environ.update(THREAD_ENV)

import argparse
import json
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Bumped whenever a workload, a metric definition or the measuring
#: procedure changes; ``compare.py`` refuses to mix versions.
HARNESS_VERSION = 1
#: Fresh children per untraced run: each sets up once (so ``setup_s`` is
#: a median of this many) and measures a share of ``--seconds``.
CHILDREN = 3
#: Simulated-clock metrics: deterministic, so children must agree exactly.
EXACT_METRICS = ("sim_iter_s", "wire_ratio")
#: What a traced run adds to a workload's result.
TRACED_KEYS = (
    "layer_self_s_per_op",
    "traced_host_op_s_p50",
    "traced_ops",
    "missing_patch_points",
    "trace_file",
)


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def warm_page_cache() -> None:
    """Import ``repro`` once in a throw-away child.

    The first child of a run would otherwise pay the cold file reads in
    its ``setup_s``.  Also the place a checkout without the program
    under test fails, before any result is printed.
    """
    done = subprocess.run(
        [sys.executable, "-c", "import repro, workloads"], env=child_env(), cwd=ROOT
    )
    if done.returncode:
        raise SystemExit("perfbench: cannot import the program under test (src/repro)")


def spawn_child(
    workload: str, seed: int, budget_s: float, ops: Optional[int], traced: bool
) -> Dict[str, Any]:
    """One fresh child: returns its report plus the ``setup_s`` we clocked.

    ``setup_s`` runs from the spawn to the child's ``ready`` line
    (imports, fixtures, one warm-up operation), calibrated like the
    operations by the reference reading the child took right after it.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(budget_s), "--trace", str(int(traced)),
    ]  # fmt: skip
    if ops is not None:
        command += ["--ops", str(ops)]
    start = perf_counter()
    with subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            assert proc.stdout is not None
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            # Interrupted or terminated: never leave the child running.
            proc.kill()
            raise
    if proc.returncode or '"ready"' not in ready:
        raise SystemExit(f"perfbench: child of {workload} failed (exit {proc.returncode})")
    report = json.loads(rest.strip().splitlines()[-1])
    report["raw_setup_s"] = setup_s
    report["setup_s"] = setup_s * json.loads(ready)["scale"]
    return report


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median with quartiles, extremes and the sample count."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure(
    spec: Dict[str, Any],
    workload: str,
    seed: int,
    seconds: float,
    ops: Optional[int],
    traced: bool,
) -> Dict[str, Any]:
    """One run of one workload: untraced (end-to-end) or traced (per-layer)."""
    children = 1 if traced else CHILDREN
    reports = [
        spawn_child(workload, seed, seconds / children, ops, traced)
        for _ in range(children)
    ]
    failures = [f for report in reports for f in report["failures"]]
    for name in EXACT_METRICS:
        if len({report[name] for report in reports}) != 1:
            failures.append(f"{name} differs between children of one run")
    attempted = sum(report["attempted"] for report in reports)
    failed = min(len(failures), attempted)
    result: Dict[str, Any] = {
        "workload": workload,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "failures": failures,
    }
    if traced:
        report = reports[0]
        known = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(report["per_layer"]) - known)
        if unknown:
            raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
        result["per_layer"] = {
            m["name"]: report["per_layer"].get(m["name"]) for m in spec["per_layer"]
        }
        for key in TRACED_KEYS:
            result[key] = report[key]
    else:
        durations = [d for report in reports for d in report["durations"]]
        if not durations:
            raise SystemExit(f"perfbench: no operation of {workload} completed")
        result["timed_ops"] = len(durations)
        result["raw_host_op_s_p50"] = statistics.median(
            d for report in reports for d in report["raw_durations"]
        )
        result["reference_kernel_s"] = statistics.median(
            r for report in reports for r in report["references"]
        )
        result["end_to_end"] = {
            "setup_s": statistics.median(report["setup_s"] for report in reports),
            "host_op_s_p50": statistics.median(durations),
            "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in reports),
            "sim_iter_s": reports[0]["sim_iter_s"],
            "wire_ratio": reports[0]["wire_ratio"],
        }
    return result


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def driver_line(spec: Dict[str, Any], result: Dict[str, Any]) -> str:
    """The contract's last line.  An absent per-layer value reads as 0."""
    traced = "per_layer" in result
    values = result["per_layer" if traced else "end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {
                    "value": 0.0 if values[m["name"]] is None else values[m["name"]],
                    "unit": m["unit"],
                }
                for m in spec["per_layer" if traced else "end_to_end"]
            },
        }
    )


def manifest(seed: int, seconds: float, ops: Optional[int], runs: int) -> Dict[str, Any]:
    """Everything needed to tell whether two result files are comparable."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    git_rev = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if probe.returncode == 0:
            git_rev = probe.stdout.strip()
    return {
        "harness_version": HARNESS_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "git_rev": git_rev,
        "seed": seed,
        "seconds": seconds,
        "ops": ops,
        "runs": runs,
        "children_per_run": CHILDREN,
    }


def print_table(result: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"\n== {result['workload']}: attempted {result['attempted']}, "
          f"failed_ops_share {result['failed_ops_share']:.3g}")  # fmt: skip
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for name, m in result["end_to_end"].items():
        print(f"   {name:<52} {m['value']:>14.6g} {m['unit']:<8}"
              f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}")  # fmt: skip
    for name, value in result.get("per_layer", {}).items():
        if value is not None:  # not measured on this workload
            print(f"   {name:<52} {value:>14.6g} {units[name]}")


def run_all(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    """Every workload, ``--runs`` times; medians and quartiles over the runs."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = units_of(spec)
    document: Dict[str, Any] = {
        "manifest": manifest(args.seed, seconds, args.ops, args.runs),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            measure(spec, workload, args.seed, seconds, args.ops, traced=False)
            for _ in range(args.runs)
        ]
        traced = (
            [measure(spec, workload, args.seed, seconds, args.ops, traced=True)]
            if args.traced
            else []
        )
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        result = {
            "workload": workload,
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": attempted,
            "failed": failed,
            "failed_ops_share": failed / attempted,
            "failures": [f for r in runs + traced for f in r["failures"]],
            "timed_ops_per_run": [r["timed_ops"] for r in runs],
            "end_to_end": {
                name: summarize([r["end_to_end"][name] for r in runs], units[name])
                for name in runs[0]["end_to_end"]
            },
        }
        for run in traced:
            result["per_layer"] = run["per_layer"]
            result.update({key: run[key] for key in TRACED_KEYS})
        print_table(result, units)
        document["workloads"][workload] = result
    out = Path(args.out) if args.out else HERE / "out" / f"result_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"\nwrote {out}")
    return 0 if all(r["correct"] for r in document["workloads"].values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run all six workloads")
    parser.add_argument("--traced", action="store_true", help="with --all: add the traced pass")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--ops", type=int, help="fixed operations per child instead of a time budget")
    parser.add_argument("--runs", type=int, default=5, help="with --all: runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: result file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Terminate like an interrupt, so the child of the moment is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.child:
        import child

        return child.main(args.workload, args.seed, args.seconds, args.ops, bool(args.trace))

    spec = load_spec()
    warm_page_cache()
    if args.all:
        return run_all(spec, args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} (or use --all)")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = measure(spec, args.workload, args.seed, seconds, args.ops, bool(args.trace))
    for failure in result["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(driver_line(spec, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
