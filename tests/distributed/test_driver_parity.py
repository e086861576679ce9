"""One schedule, one account: ``run_strategy`` against the exchange simulator.

On a raw stream over the star, the functional driver and the size-only
simulator run the same event schedule.  Both spend every compute second
through ``ClusterComm.spend``, so the virtual time and every Table II row
agree bit for bit — including the ring's sums over uneven blocks (4
workers split HDC's 1 149 010 values 2 x 287 753 + 2 x 287 752).
"""

import pytest

from repro.distributed import get_strategy, run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange
from repro.perfmodel.calibration import compute_profile_for
from repro.transport import ClusterConfig

WORKERS = 4
ITERATIONS = 3
TRAIN_PACKETS = 44
PROFILE = compute_profile_for("HDC")
SIMULATORS = {"ring": simulate_ring_exchange, "wa": simulate_wa_exchange}


def _hex_phases(phases):
    return {name: seconds.hex() for name, seconds in phases.as_dict().items()}


@pytest.mark.parametrize("algorithm", sorted(SIMULATORS))
def test_driver_and_simulator_keep_one_account(algorithm):
    nbytes = build_hdc(seed=0).nbytes
    assert nbytes // 4 == 1_149_010  # uneven blocks on 4 workers
    service_nodes = get_strategy(algorithm).extra_nodes
    trained = run_strategy(
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
    )
    simulated = SIMULATORS[algorithm](
        WORKERS,
        nbytes,
        iterations=ITERATIONS,
        profile=PROFILE,
        include_local_compute=True,
        train_packets=TRAIN_PACKETS,
    )
    assert trained.virtual_time_s.hex() == simulated.total_s.hex()
    assert _hex_phases(trained.phases) == _hex_phases(simulated.phases)
