"""Count the event kernel's work in each ``exchange_packet`` scenario.

Runs the scenarios of the ``exchange_packet`` benchmark workload
(``perfbench/workloads.py``, imported, not changed) and its Table II
part once each, counting what the untraced kernel does: the stage
requests trains make themselves (``Link._stage``), ``Simulation.schedule``
calls, ``_Train`` objects built, express plans started, re-plans (a
live run taken into a new plan), runs turned back into trains and
plans given up.  Each scenario runs a
second time with every plan refused, the per-train kernel; the planned
share is the share of its stage requests the first run did not make.
The counts are deterministic, so they show the planner's reach without
the host clock.

Usage: PYTHONPATH=src python tools/count_kernel_work.py [--seed S ...]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

from repro.network import Link, Simulation, simulator
from repro.perfmodel import simulated_breakdown

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

COLUMNS = (
    "requests/train", "requests", "planned", "schedule", "trains",
    "plans", "re-plans", "dissolved", "given up",
)


@contextmanager
def counting(counts: Counter, per_train: bool) -> Iterator[None]:
    """Count the kernel's calls into ``counts``; ``per_train`` refuses
    every plan."""
    patched: List[tuple] = []

    def wrap(owner: Any, name: str, count: Callable[..., None]) -> None:
        original = getattr(owner, name)

        def counted(*args: Any) -> Any:
            result = original(*args)
            count(result, *args)
            return result

        patched.append((owner, name, original))
        setattr(owner, name, counted)

    def plan(started: bool, run: Any) -> None:
        counts["plans" if started else "given up"] += 1

    wrap(Link, "_stage", lambda *_: counts.update(["requests"]))
    wrap(Simulation, "schedule", lambda *_: counts.update(["schedule"]))
    wrap(simulator._Train, "__init__", lambda *_: counts.update(["trains"]))
    wrap(simulator._Run, "start", plan)
    wrap(simulator._Run, "settle", lambda *_: counts.update(["settled"]))
    wrap(simulator._Run, "dissolve", lambda *_: counts.update(["dissolved"]))
    if per_train:
        patched.append((simulator._Run, "start", simulator._Run.start))
        simulator._Run.start = lambda run: False  # type: ignore[method-assign]
    try:
        yield
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def measure(run: Callable[[], Any]) -> Dict[str, float]:
    """One scenario's counts, with the per-train kernel's requests."""
    counts: Counter = Counter()
    with counting(counts, per_train=False):
        run()
    reference: Counter = Counter()
    with counting(reference, per_train=True):
        run()
    requests = reference["requests"]
    return {
        "requests/train": requests,
        "requests": counts["requests"],
        "planned": 1 - counts["requests"] / requests if requests else 1.0,
        "schedule": counts["schedule"],
        "trains": counts["trains"],
        "plans": counts["plans"],
        "re-plans": counts["settled"] - counts["dissolved"],
        "dissolved": counts["dissolved"],
        "given up": counts["given up"],
    }


def table(seed: int) -> Dict[str, Dict[str, float]]:
    """Every scenario of one ``exchange_packet`` op under ``seed``."""
    workload = workloads.ExchangePacket()
    workload.setup(seed)
    iterations = workload.TABLE2_ITERATIONS
    runs = dict(workload.scenarios)
    runs["table2_hdc"] = lambda: simulated_breakdown("HDC", iterations=iterations)
    rows = {name: measure(run) for name, run in runs.items()}
    op = {column: sum(row[column] for row in rows.values()) for column in COLUMNS}
    op["planned"] = 1 - op["requests"] / op["requests/train"]
    rows["op"] = op
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", default=None)
    seeds = parser.parse_args(argv).seed or [0]
    for seed in seeds:
        print(f"exchange_packet, seed {seed}")
        print(f"{'scenario':<22}" + "".join(f"{c:>15}" for c in COLUMNS))
        for name, row in table(seed).items():
            cells = [
                f"{row[c]:>15.3f}" if c == "planned" else f"{row[c]:>15,.0f}"
                for c in COLUMNS
            ]
            print(f"{name:<22}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
