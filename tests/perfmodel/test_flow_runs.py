"""The run-stepped ring flow evaluator against the per-node oracle.

``flowsim.flow_ring_exchange`` steps runs of consecutive blocks whose
whole state is equal (one block size: one run, its chain in Python
floats); :mod:`.reference_flow` keeps the evaluator it replaced, one
array entry per node.  Each run executes the float operations the
per-node arrays did, in the same order, so every simulated value must
be *identical* — compared through ``float.hex``, never a tolerance — on
even and uneven blocks, link- and engine-bound wires, padded
multi-train messages and across iterations (where the block frame
turns by two diagonals).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import inceptionn_profile
from repro.dnn.models import PAPER_MODELS
from repro.perfmodel import exchange, flowsim, simulate_ring_exchange
from repro.perfmodel.calibration import compute_profile_for

from . import reference_flow

RESNET50_NBYTES = PAPER_MODELS["ResNet-50"].nbytes
#: Fixed so the pinned run counts do not move with the codec.
RATIO = 3.9


def _evaluate(evaluator, workers, nbytes, compress=False, hdc=False, **options):
    """``simulate_ring_exchange(fidelity="flow")`` through ``evaluator``."""
    if compress:
        options.update(stream=inceptionn_profile(), gradient_ratio=RATIO)
    if hdc:
        options.update(profile=compute_profile_for("HDC"))
    production = exchange._FLOW["ring"]
    exchange._FLOW["ring"] = evaluator
    try:
        result = simulate_ring_exchange(workers, nbytes, fidelity="flow", **options)
    finally:
        exchange._FLOW["ring"] = production
    return (
        result.total_s.hex(),
        result.phases.gradient_sum,
        result.phases.update,
        result.sent_nbytes,
        result.wire_payload_nbytes,
        result.link_payload_nbytes,
    )


def _assert_matches_oracle(workers, nbytes, **options):
    runs = _evaluate(flowsim.flow_ring_exchange, workers, nbytes, **options)
    nodes = _evaluate(reference_flow.flow_ring_exchange, workers, nbytes, **options)
    assert runs == nodes


UNEVEN_100 = 4 * (100 * 4000 + 50)
CASES = [
    # workers, nbytes, options
    (2, 4, {}),
    (2, 4 * 3, dict(iterations=3)),
    (3, 4 * 2, {}),  # fewer values than workers: an empty block
    (3, 4384, dict(train_packets=1, compress=True)),
    (5, 2_000_000, dict(iterations=2, compress=True)),
    (31, RESNET50_NBYTES, dict(compress=True)),
    (31, RESNET50_NBYTES, dict(bandwidth_bps=1e9)),
    (100, RESNET50_NBYTES, dict(compress=True, iterations=2, hdc=True)),
    (100, UNEVEN_100, dict(train_packets=4, bandwidth_bps=1e9)),
    (100, UNEVEN_100, dict(train_packets=1, compress=True, iterations=3, hdc=True)),
    (256, RESNET50_NBYTES, dict(compress=True)),
    (256, RESNET50_NBYTES, dict(compress=True, bandwidth_bps=1e9)),
    (300, 4 * (300 * 7 + 299), dict(train_packets=8, iterations=3, hdc=True)),
    (1000, RESNET50_NBYTES, dict(compress=True, train_packets=8)),
    # One block size, four trains a message, through the float chain.
    (8, 4 * 8 * 5000, dict(train_packets=4, iterations=3, hdc=True, compress=True)),
]


@pytest.mark.parametrize("workers, nbytes, options", CASES)
def test_table_matches_the_per_node_oracle(workers, nbytes, options):
    _assert_matches_oracle(workers, nbytes, **options)


@settings(max_examples=100, deadline=None)
@given(
    workers=st.integers(2, 300),
    values_per_block=st.integers(0, 3000),
    # Half the rings divide evenly (one block size, the float chain);
    # a remainder leaves the first blocks one value longer.
    uneven=st.booleans(),
    remainder=st.integers(1, 299),
    train_packets=st.sampled_from([1, 4, 8, 4400]),
    bandwidth_bps=st.sampled_from([1e9, 10e9]),
    compress=st.booleans(),
    iterations=st.integers(1, 3),
    hdc=st.booleans(),
)
def test_any_ring_matches_the_per_node_oracle(
    workers, values_per_block, uneven, remainder, train_packets, bandwidth_bps,
    compress, iterations, hdc,
):
    values = workers * values_per_block + uneven * (remainder % workers)
    _assert_matches_oracle(
        workers,
        4 * max(values, 1),
        train_packets=train_packets,
        bandwidth_bps=bandwidth_bps,
        compress=compress,
        iterations=iterations,
        hdc=hdc,
    )


@st.composite
def _partitions(draw):
    """``(n, first, state, class_start)``: runs over ``n`` blocks that never
    straddle a size class, few distinct floats so that equal neighbours occur."""
    n = draw(st.integers(2, 12))
    class_start = np.zeros(n, dtype=bool)
    class_start[[0, draw(st.integers(0, n - 1))]] = True
    inner = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    first = np.flatnonzero(class_start | np.array(inner))
    runs = first.size
    row = st.lists(st.sampled_from([0.0, 1.0]), min_size=runs, max_size=runs)
    state = np.array([draw(row) for _ in range(3)])
    return n, first, state, class_start


def _per_block(first, state, n):
    """The run table spelled out, one column per block."""
    return np.repeat(state, np.diff(np.append(first, n)), axis=1)


def _assert_partition(first, class_start):
    assert first[0] == 0 and (np.diff(first) > 0).all()
    assert set(np.flatnonzero(class_start)) <= set(first.tolist())


@given(_partitions())
def test_shift_runs_is_the_per_block_shift(partition):
    n, first, state, class_start = partition
    blocks = _per_block(first, state, n)
    blocks[1:] = np.roll(blocks[1:], -1, axis=1)  # free-at of block j + 1
    starts, shifted = flowsim._shift_runs(first, state, n, class_start)
    _assert_partition(starts, class_start)
    assert (_per_block(starts, shifted, n) == blocks).all()
    # Fully coalesced: what is left differs in state or in size class.
    same = (shifted[:, 1:] == shifted[:, :-1]).all(axis=0)
    assert class_start[starts[1:]][same].all()


@given(_partitions())
def test_turn_runs_is_the_per_block_rotation(partition):
    n, first, state, class_start = partition
    starts, turned = flowsim._turn_runs(first, state, n, class_start)
    _assert_partition(starts, class_start)
    blocks = np.roll(_per_block(first, state, n), -2, axis=1)
    assert (_per_block(starts, turned, n) == blocks).all()


SECONDS = st.floats(0.0, 1e-2)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_float_chain_is_deliver_on_one_row(data):
    # Any chain of own-resource stages, busy links and engines included,
    # with trailing padding trains; compared through ``float.hex``.
    trains = data.draw(st.integers(1, 300), label="trains")
    active = data.draw(st.integers(0, trains), label="active trains")
    chain = data.draw(st.integers(1, 5), label="stages")
    table = flowsim.Trains(
        data.draw(hnp.arrays(np.float64, (chain, 2, 1, trains), elements=SECONDS)),
        np.arange(trains)[None, :] < active,
    )
    stages = [
        flowsim.Stage(
            np.array([data.draw(SECONDS)]), slice(None),
            data.draw(SECONDS), data.draw(SECONDS),
        )
        for _ in range(chain)
    ]
    t_send = data.draw(SECONDS)
    free = [float(stage.free[0]) for stage in stages]
    landed = flowsim._deliver_floats(table, stages)(t_send, free)
    expected = flowsim.deliver(np.array([t_send]), table, stages)
    assert landed.hex() == float(expected[0]).hex()
    assert [f.hex() for f in free] == [float(s.free[0]).hex() for s in stages]


@pytest.mark.parametrize("workers", [1024, 16_384])
def test_uniform_ring_never_calls_deliver(workers, deliver_widths):
    # ResNet-50's 25 690 112 values divide by both rings: one block size,
    # so one run for the ring's whole life, stepped in Python floats.
    result = simulate_ring_exchange(
        workers, RESNET50_NBYTES, stream=inceptionn_profile(),
        gradient_ratio=RATIO, iterations=2, fidelity="flow",
    )
    assert deliver_widths == []
    assert result.total_s > 0.0


def test_engine_bound_uneven_ring_stays_a_handful_of_runs(deliver_widths):
    # 10 GbE, INCEPTIONN: the NIC engines bind and the two block sizes
    # give two runs plus each one's last block at this width.  It is not
    # a bound: 100 MB at 65 536 workers reaches a mean 32.8, max 62.
    _assert_matches_oracle(1000, RESNET50_NBYTES, compress=True)
    assert len(deliver_widths) == 2 * 1000 - 2
    assert max(deliver_widths) <= 8


def test_link_bound_jam_grows_runs_and_still_matches(deliver_widths):
    # The case that forbids *assuming* symmetry: at 1 GbE the lagging
    # large-block diagonal holds the TX engine the next small block
    # needs, and a staggered jam spreads one block a step.
    _assert_matches_oracle(1000, RESNET50_NBYTES, compress=True, bandwidth_bps=1e9)
    assert max(deliver_widths) > 100
