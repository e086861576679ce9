"""One schedule, one account: ``run_strategy`` against the exchange simulator.

On a raw stream over the star, the functional driver and the size-only
simulator run the same event schedule — the same primitives, once on
arrays and once on a ``SizedPayload``.  Both spend every compute second
through ``ClusterComm.spend``, so the virtual time, every Table II row
and the transfer totals agree bit for bit — including the ring's sums
over uneven blocks (4 workers split HDC's 1 149 010 values
2 x 287 753 + 2 x 287 752).
"""

import pytest

from repro.distributed import (
    GroupLayout,
    get_strategy,
    hierarchical_exchange,
    run_strategy,
)
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.obs import CAT_RING, Tracer
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange
from repro.perfmodel.calibration import compute_profile_for
from repro.transport import ClusterComm, ClusterConfig, SizedPayload

WORKERS = 4
ITERATIONS = 3
TRAIN_PACKETS = 44
PROFILE = compute_profile_for("HDC")
SIMULATORS = {"ring": simulate_ring_exchange, "wa": simulate_wa_exchange}


def _hex_phases(phases):
    return {name: seconds.hex() for name, seconds in phases.as_dict().items()}


def _train(algorithm, tracer=None, options=None):
    service_nodes = get_strategy(algorithm).extra_nodes
    return run_strategy(
        algorithm,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=WORKERS,
        iterations=ITERATIONS,
        batch_size=16,
        cluster=ClusterConfig(
            num_nodes=WORKERS + service_nodes, train_packets=TRAIN_PACKETS
        ),
        profile=PROFILE,
        tracer=tracer,
        options=options,
    )


def _simulate(algorithm, tracer=None):
    return SIMULATORS[algorithm](
        WORKERS,
        build_hdc(seed=0).nbytes,
        iterations=ITERATIONS,
        profile=PROFILE,
        train_packets=TRAIN_PACKETS,
        tracer=tracer,
    )


@pytest.mark.parametrize("algorithm", sorted(SIMULATORS))
def test_driver_and_simulator_keep_one_account(algorithm):
    nbytes = build_hdc(seed=0).nbytes
    assert nbytes // 4 == 1_149_010  # uneven blocks on 4 workers
    trained = _train(algorithm)
    simulated = _simulate(algorithm)
    assert trained.virtual_time_s.hex() == simulated.total_s.hex()
    assert _hex_phases(trained.phases) == _hex_phases(simulated.phases)
    sent = trained.transfers
    assert (sent.nbytes, sent.wire_payload_nbytes, sent.link_payload_nbytes) == (
        simulated.sent_nbytes,
        simulated.wire_payload_nbytes,
        simulated.link_payload_nbytes,
    )


def test_driver_and_simulator_trace_the_same_ring_steps():
    trained, simulated = Tracer(), Tracer()
    _train("ring", tracer=trained)
    _simulate("ring", tracer=simulated)
    steps = list(trained.events_in(CAT_RING, "ring.step"))
    assert len(steps) == WORKERS * (2 * WORKERS - 2) * ITERATIONS
    assert steps == list(simulated.events_in(CAT_RING, "ring.step"))


def test_hierarchy_times_the_same_on_sizes():
    # The hierarchy's primitive on a size-only gradient, in a hand loop
    # without the trainer, times the same as training; simulate_exchange
    # runs the driver itself on sizes (tests/perfmodel/
    # test_exchange_strategies.py).
    trained = _train("hierarchy", options={"group_size": 2})
    comm = ClusterComm(
        ClusterConfig(num_nodes=WORKERS, train_packets=TRAIN_PACKETS), compute=PROFILE
    )
    layout = GroupLayout.even(WORKERS, 2)
    gradient = SizedPayload(build_hdc(seed=0).nbytes)

    def node(i):
        for _ in range(ITERATIONS):
            yield from comm.spend_local(i, i == 0)
            yield from hierarchical_exchange(comm, i, gradient, layout)
            yield from comm.spend("update", PROFILE.update_s, i, i == 0)

    total_s = comm.run([comm.sim.process(node(i)) for i in range(WORKERS)])
    assert trained.virtual_time_s.hex() == total_s.hex()
    assert _hex_phases(trained.phases) == _hex_phases(comm.ledger.close(total_s))
    assert trained.transfers == comm.transfers
