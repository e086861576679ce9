#!/usr/bin/env python3
"""Compare two result files of ``run.py --all`` against the benchmark's bounds.

    python3 perfbench/compare.py A.json B.json

A is the baseline, B the candidate.  For every workload and end-to-end
metric it prints one row with the verdict:

``ok``          B's median is no worse than A's by more than the bound;
``REGRESSION``  it is worse by more than the bound;
``unresolved``  the run-to-run spread (quartile distance of either side
                over its median) exceeds the bound, so the medians cannot
                tell — unless every run of one side beats every run of
                the other, which resolves it;
``MISMATCH``    a simulated-clock metric (deterministic, same seed)
                differs at all.

Exit status 0 when every row is ``ok``, 1 otherwise, 2 when the files are
not comparable (different seed, op counts, harness version or
environment fingerprint).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from run import EXACT_METRICS, SPEC_FILE

#: Manifest keys that must match for two files to be comparable.
FINGERPRINT = (
    "harness_version",
    "python",
    "numpy",
    "blas",
    "machine",
    "nproc",
    "thread_env",
    "seed",
    "seconds",
    "ops",
    "runs",
    "children_per_run",
)


def incomparable(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Reasons the two manifests cannot be compared (empty = comparable)."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in FINGERPRINT
        if a.get(key) != b.get(key)
    ]


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float, exact: bool
) -> Tuple[str, float]:
    """``(verdict, relative change of B against A, positive = worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    if exact:
        return ("ok" if b["value"] == a["value"] else "MISMATCH"), worse_by
    spread = max((m["q3"] - m["q1"]) / abs(m["value"]) for m in (a, b))
    if spread > bound:
        # Too noisy for the medians to tell -- unless every run of one
        # side beats every run of the other.
        low, high = (b, a) if better == "lower" else (a, b)
        if low["max"] < high["min"]:
            return "ok", worse_by
        if high["max"] < low["min"]:
            return "REGRESSION", worse_by
        return "unresolved", worse_by
    return ("REGRESSION" if worse_by > bound else "ok"), worse_by


def compare(
    doc_a: Dict[str, Any], doc_b: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Table rows and whether every row is ``ok``."""
    rows = []
    all_ok = True
    for workload, result_a in doc_a["workloads"].items():
        result_b = doc_b["workloads"].get(workload)
        if result_b is None:
            rows.append(f"{workload:<20} missing from B")
            all_ok = False
            continue
        for side, result in (("A", result_a), ("B", result_b)):
            if not result["correct"]:
                rows.append(f"{workload:<20} {side} has failed operations")
                all_ok = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = result_a["end_to_end"][name], result_b["end_to_end"][name]
            status, worse_by = verdict(
                a, b, metric["better"], metric["bound"], name in EXACT_METRICS
            )
            all_ok = all_ok and status == "ok"
            rows.append(
                f"{workload:<20} {name:<14} {a['value']:>12.6g} -> {b['value']:>12.6g} "
                f"{a['unit']:<6} {worse_by:+8.2%} worse (bound {metric['bound']:.0%})  {status}"
            )
    return rows, all_ok


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in args)
    reasons = incomparable(doc_a["manifest"], doc_b["manifest"])
    if reasons:
        print("refusing to compare: the runs differ in")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    rows, all_ok = compare(doc_a, doc_b, json.loads(SPEC_FILE.read_text()))
    print(f"A = {args[0]} ({doc_a['manifest']['git_rev']})")
    print(f"B = {args[1]} ({doc_b['manifest']['git_rev']})")
    print("\n".join(rows))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
