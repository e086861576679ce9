"""Fig 12: training time of WA / WA+C / INC / INC+C (same iterations).

Paper findings reproduced here:
* INC alone trains 31-52% faster than WA (no compression anywhere);
* WA+C only compresses the gradient leg (~30% less communication);
* INC+C compresses both legs of every hop: 2.2-3.1x overall speedup.

Paper-scale rows use the calibrated estimator; a functional end-to-end
HDC run cross-checks the ordering with *real* training.
"""

import pytest

from conftest import print_header, print_row, run_once
from repro.distributed import Scenario
from repro.perfmodel import CONFIGURATIONS, compute_profile_for, fig12_estimates

MODELS = ("AlexNet", "HDC", "ResNet-50", "VGG-16")

#: Fig 12's reported reduction of total training time INC vs WA.
PAPER_INC_REDUCTION = {
    "AlexNet": 0.52, "HDC": 0.38, "ResNet-50": 0.49, "VGG-16": 0.31,
}


@pytest.fixture(scope="module")
def estimates():
    return {m: fig12_estimates(m) for m in MODELS}


def test_fig12_paper_scale(benchmark, estimates):
    results = run_once(benchmark, lambda: estimates)
    print_header("Fig 12: normalized training time (same iterations)")
    print_row("model", *CONFIGURATIONS, "paper INC+C")
    paper_incc = {"AlexNet": 1 / 3.1, "HDC": 1 / 2.7, "ResNet-50": 1 / 3.0,
                  "VGG-16": 1 / 2.2}
    for model in MODELS:
        est = results[model]
        base = est["WA"].iteration_s
        print_row(
            model,
            *[f"{est[c].iteration_s / base:.2f}" for c in CONFIGURATIONS],
            f"~{paper_incc[model]:.2f}",
        )
    for model in MODELS:
        est = results[model]
        base = est["WA"].iteration_s
        # Ordering: WA > WA+C > INC > INC+C for comm-bound models.
        assert est["WA+C"].iteration_s < base
        assert est["INC"].iteration_s < est["WA+C"].iteration_s
        assert est["INC+C"].iteration_s < est["INC"].iteration_s


@pytest.mark.parametrize("model", MODELS)
def test_fig12_inc_reduction_band(estimates, model):
    est = estimates[model]
    reduction = 1 - est["INC"].iteration_s / est["WA"].iteration_s
    # Paper: 31-52% shorter without compression; allow a generous band.
    assert PAPER_INC_REDUCTION[model] - 0.25 < reduction < PAPER_INC_REDUCTION[model] + 0.25


@pytest.mark.parametrize("model", ["AlexNet", "ResNet-50"])
def test_fig12_full_system_speedup_band(estimates, model):
    est = estimates[model]
    speedup = est["WA"].iteration_s / est["INC+C"].iteration_s
    assert 2.0 < speedup < 4.5  # paper: 2.2-3.1x


def test_fig12_functional_cross_check(benchmark):
    """Real HDC training through the simulated cluster: same ordering."""

    def run():
        times = {}
        profile = compute_profile_for("HDC")
        for conf in CONFIGURATIONS:
            result = Scenario(
                strategy="wa" if conf.startswith("WA") else "ring",
                iterations=8,
                codec="inceptionn" if conf.endswith("+C") else None,
                train_size=400,
                test_size=100,
                batch_size=25,
                compute=profile,
            ).run()
            times[conf] = result.virtual_time_s
        return times

    times = run_once(benchmark, run)
    print_header("Fig 12 (functional cross-check, real HDC training)")
    base = times["WA"]
    print_row("config", *CONFIGURATIONS)
    print_row("norm time", *[f"{times[c] / base:.2f}" for c in CONFIGURATIONS])
    assert times["INC"] < times["WA"]
    assert times["INC+C"] < times["INC"]
    assert times["WA+C"] <= times["WA"]
