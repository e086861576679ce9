"""Pin the ported strategy plugins against the pre-refactor behavior.

The pins below were recorded by ``tools/record_strategy_pins.py``
against the four hand-rolled spawn loops (``_spawn_ring_processes``,
``_spawn_wa_processes``, the hierarchy driver, and the async-PS server
loop) immediately before they were ported to the
:class:`~repro.distributed.strategy.GradientStrategy` registry; the
``stale_async`` pins were recorded immediately before the two parameter
servers were merged into one server loop.  Each pin has two halves:

* *exact* — message count, application bytes, raw-run wire bytes and
  virtual time (1e-9 relative): the schedule, which no environment may
  change;
* *numerical* — compressed-run wire bytes, weights sum and final loss,
  to stated tolerances: these follow the float32 summation order of the
  numpy/BLAS build in ``repro.dnn``.

Bit-exactness of the weights is asserted where it is a property of this
code rather than of the environment: two runs in one process.
"""

import sys
from pathlib import Path

import pytest

from repro.distributed import available_strategies

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from record_strategy_pins import final_loss, run_scenario  # noqa: E402

#: Recorded pre-refactor, see module docstring.  Keys: strategy_mode.
PINS = {
    "ring_raw": {
        "weights_sum": -1491.3309326171875,
        "final_loss": 0.8216704726219177,
        "virtual_time_s": 0.053903606338462334,
        "messages": 192,
        "nbytes": 220609920,
        "wire_payload_nbytes": 220609920,
    },
    "wa_raw": {
        "weights_sum": -1491.3310546875,
        "final_loss": 0.8216705471277237,
        "virtual_time_s": 0.1736119620307764,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "hierarchy_raw": {
        "weights_sum": -1491.3309326171875,
        "final_loss": 0.8216704279184341,
        "virtual_time_s": 0.1004916777846152,
        "messages": 112,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "async_ps_raw": {
        "weights_sum": -9196.6044921875,
        "final_loss": 2.5914053916931152,
        "virtual_time_s": 0.13737569378999248,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "stale_async_raw": {
        "weights_sum": -9196.60546875,
        "final_loss": 2.591405153274536,
        "virtual_time_s": 0.13737569378999248,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "ring_compressed": {
        "weights_sum": -1418.3507080078125,
        "final_loss": 0.8528502881526947,
        "virtual_time_s": 0.026107006738461662,
        "messages": 192,
        "nbytes": 220609920,
        "wire_payload_nbytes": 55155164,
    },
    "wa_compressed": {
        "weights_sum": -1426.0521240234375,
        "final_loss": 0.8319570273160934,
        "virtual_time_s": 0.1481036878557699,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 179340869,
    },
    "hierarchy_compressed": {
        "weights_sum": -1429.7930908203125,
        "final_loss": 0.8403845131397247,
        "virtual_time_s": 0.04479967638461622,
        "messages": 112,
        "nbytes": 294146560,
        "wire_payload_nbytes": 72354633,
    },
    "async_ps_compressed": {
        "weights_sum": -8890.3623046875,
        "final_loss": 2.540337562561035,
        "virtual_time_s": 0.12808025970249073,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 177244335,
    },
    "stale_async_compressed": {
        "weights_sum": -8891.0205078125,
        "final_loss": 2.541330337524414,
        "virtual_time_s": 0.12808025970249073,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 177243401,
    },
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_ported_strategy_matches_pre_refactor_pin(key):
    strategy, _, mode = key.rpartition("_")
    result = run_scenario(strategy, compressed=(mode == "compressed"))
    pin = PINS[key]
    summary = result.transfers
    assert summary is not None

    # Exact half: the schedule.  Message count, application bytes and
    # virtual time do not depend on float summation order.
    assert summary.messages == pin["messages"]
    assert summary.nbytes == pin["nbytes"]
    assert result.virtual_time_s == pytest.approx(
        pin["virtual_time_s"], rel=1e-9
    )

    # Numerical half: BLAS/numpy summation order moves float32 sums by
    # ~1 ULP, and a compressed run amplifies that whenever the ULP
    # crosses a codec tag boundary.  Measured against these pins on
    # Python 3.11.7 / numpy 2.4.6: compressed wire bytes <= 1.3e-4 rel
    # (raw runs exact), weights_sum <= 0.66 abs (2.2e-4 rel),
    # final_loss <= 2.4e-3 abs.
    if mode == "raw":
        assert summary.wire_payload_nbytes == pin["wire_payload_nbytes"]
    else:
        assert summary.wire_payload_nbytes == pytest.approx(
            pin["wire_payload_nbytes"], rel=1e-3
        )
    assert float(result.final_weights.sum()) == pytest.approx(
        pin["weights_sum"], rel=1e-3
    )
    assert final_loss(strategy, result) == pytest.approx(
        pin["final_loss"], abs=5e-3
    )


def test_replay_in_one_process_is_bit_identical():
    # What ``repro sanitize`` relies on: same environment, same seeds,
    # same bits — including through the lossy codec.
    first, second = (
        run_scenario("ring", compressed=True).final_weights.tobytes()
        for _ in range(2)
    )
    assert first == second


def test_registry_lists_all_builtin_strategies():
    names = available_strategies()
    assert len(names) >= 6
    for expected in (
        "async_ps",
        "hierarchy",
        "local_sgd",
        "ring",
        "stale_async",
        "wa",
    ):
        assert expected in names
