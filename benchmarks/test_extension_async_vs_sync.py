"""Extension bench: asynchronous parameter server vs the synchronous pair.

Sec. IX positions INCEPTIONN against HogWild!/DistBelief/SSP-style
asynchrony.  This bench puts them on the same simulated cluster with
straggling workers (jittered compute) and reports wall-clock, accuracy
and observed staleness.
"""

import numpy as np
import pytest

from conftest import print_header, print_row, run_once
from repro.distributed import ComputeProfile, Scenario

ITERS = 25
JITTER = 0.8
PROFILE = ComputeProfile(forward_s=2e-3, backward_s=6e-3, update_s=1e-3)


def _run(algorithm, **options):
    return Scenario(
        strategy=algorithm,
        iterations=ITERS,
        train_size=600,
        test_size=150,
        batch_size=16,
        options=options,
        lr=0.01,
        compute=PROFILE,
    ).run()


def _staleness(run):
    return run.extras.get("staleness")


@pytest.fixture(scope="module")
def runs():
    return {
        "sync WA": _run("wa"),
        "sync INC (ring)": _run("ring"),
        "async PS": _run(
            "async_ps", compute_jitter=JITTER, max_staleness=None
        ),
        "async PS (SSP s=2)": _run(
            "async_ps", compute_jitter=JITTER, max_staleness=2
        ),
    }


def test_async_vs_sync(benchmark, runs):
    results = run_once(benchmark, lambda: runs)
    print_header("Extension: async parameter server vs synchronous systems")
    print_row("system", "top-1", "sim time (s)", "staleness")
    for name, run in results.items():
        samples = _staleness(run)
        staleness = f"{np.mean(samples):.2f}" if samples else "-"
        print_row(
            name,
            f"{run.final_top1:.3f}",
            f"{run.virtual_time_s:.3f}",
            staleness,
        )


def test_everyone_learns(runs):
    for name, run in runs.items():
        assert run.final_top1 > 0.5, name


def test_async_tolerates_stragglers(runs):
    # The synchronous WA pays for the slowest worker every iteration;
    # async does not.
    assert runs["async PS"].virtual_time_s <= runs["sync WA"].virtual_time_s * 1.2


def test_ssp_bound_respected(runs):
    ssp = runs["async PS (SSP s=2)"]
    # Server-observed staleness can exceed the progress gap slightly
    # (messages in flight), but must stay in the same regime.
    assert max(_staleness(ssp)) <= 2 + 4  # bound + workers in flight


def test_ring_still_wins_on_throughput(runs):
    # INCEPTIONN's answer to asynchrony: make the synchronous exchange
    # cheap instead of hiding it — the ring beats async here because
    # its communication is balanced, not serialized at a server.
    assert (
        runs["sync INC (ring)"].virtual_time_s
        < runs["async PS"].virtual_time_s * 1.5
    )
