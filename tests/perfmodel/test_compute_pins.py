"""Table II, Fig 12 and exchange compute values pinned bit for bit.

Each row was recorded through ``float.hex`` before a run's compute
profile became a property of its cluster, when ``simulate_exchange``
still dropped forward/backward/copy time unless asked to spend it.  Do
not edit a row to make a change pass; a row that moves is a change in
what the simulated compute rows or the exchange they surround compute.

The exchange grid runs a calibrated HDC profile over two iterations of
four workers on 250 003 float32 values, raw and at a fixed INCEPTIONN
ratio, for every strategy the packet kernel drives here and for the two
the flow evaluator models.  The exchange-only rows pass the same profile
with its forward/backward/copy time zeroed.
"""

from dataclasses import replace

import pytest

from repro.core import inceptionn_profile
from repro.obs import PHASE_NAMES
from repro.perfmodel import estimate_iteration_time, simulated_breakdown
from repro.perfmodel.calibration import compute_profile_for
from repro.perfmodel.exchange import simulate_exchange

#: ``{model: {phase: hex}}`` of ``simulated_breakdown(model, iterations=2)``.
BREAKDOWN = {
    'HDC': {
        'forward': '0x1.a36e2eb1c432dp-10',
        'backward': '0x1.6f0068db8bac8p-10',
        'gpu_copy': '0x0.0p+0',
        'gradient_sum': '0x1.d7dbf487fcb91p-10',
        'communicate': '0x1.bbf2c45f1356ap-6',
        'update': '0x1.d7dbf487fcb92p-10',
    },
    'AlexNet': {
        'forward': '0x1.0068db8bac711p-4',
        'backward': '0x1.4c2f837b4a233p-2',
        'gpu_copy': '0x1.d14e3bcd35a85p-4',
        'gradient_sum': '0x1.6e2eb1c432ca5p-3',
        'communicate': '0x1.499899d5aebf9p+1',
        'update': '0x1.17f62b6ae7d56p-2',
    },
    'VGG-16': {
        'forward': '0x1.4a3d70a3d70a4p-1',
        'backward': '0x1.6c63f141205bcp+1',
        'gpu_copy': '0x1.ef34d6a161e4fp-3',
        'gradient_sum': '0x1.9758e219652bep-2',
        'communicate': '0x1.73020afe282b2p+2',
        'update': '0x1.3851eb851eb85p-1',
    },
    'ResNet-50': {
        'forward': '0x1.aee631f8a0903p-5',
        'backward': '0x1.8ef34d6a161e5p-4',
        'gpu_copy': '0x1.6f0068db8bac8p-5',
        'gradient_sum': '0x1.2d77318fc5048p-4',
        'communicate': '0x1.12b7356c53f28p+0',
        'update': '0x1.fbe76c8b43958p-6',
    },
}

#: ``{configuration: (iteration_s hex, computation_s hex)}`` for AlexNet.
ESTIMATES = {
    'WA': ('0x1.a7152d3433759p+0', '0x1.e7d566cf41f20p-2'),
    'WA+C': ('0x1.67dd1d8588b93p+0', '0x1.e7d566cf41f20p-2'),
    'INC': ('0x1.6d447843cd4fdp-1', '0x1.a32ca57a786c1p-2'),
    'INC+C': ('0x1.0e6ab69d418c4p-1', '0x1.a32ca57a786c1p-2'),
}

NBYTES = 4 * (5 * 50_000 + 3)
PROFILE = compute_profile_for("HDC")
EXCHANGE_ONLY = replace(PROFILE, forward_s=0.0, backward_s=0.0, gpu_copy_s=0.0)
STREAMS = {"raw": (None, None), "inceptionn": (inceptionn_profile(), 3.9)}
OPTIONS = {"hierarchy": {"group_size": 2}}

#: algorithm, fidelity, stream, total_s hex, phase hexes in Table II order.
EXCHANGES = [
    ('ring', 'packet', 'raw', '0x1.edd70ff6fd7f1p-8', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.6800fba8826abp-13',
        '0x1.5008ca28cc8b4p-9',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('ring', 'packet', 'inceptionn', '0x1.8bd19c38a28c5p-8', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.6800fba8826abp-13',
        '0x1.17fbc5582d4b8p-10',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('wa', 'packet', 'raw', '0x1.037fb1c332cf8p-6', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.68011b1d92b7fp-11',
        '0x1.53360051e2e07p-7',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('wa', 'packet', 'inceptionn', '0x1.b4492b335f7e1p-7', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.68011b1d92b7fp-11',
        '0x1.007fc7fedcbf8p-7',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('hierarchy', 'packet', 'raw', '0x1.49ef27ac95957p-7', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.e000fba8826aap-13',
        '0x1.4a4ba47693f17p-8',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('hierarchy', 'packet', 'inceptionn', '0x1.ce3b3f77a05c1p-8', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.e000fba8826aap-13',
        '0x1.0951292a12454p-9',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('async_ps', 'packet', 'raw', '0x1.760fd7638589dp-7', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.e001797cc39ffp-13',
        '0x1.a28cfff5d1d08p-8',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('async_ps', 'packet', 'inceptionn', '0x1.6159a13904b54p-7', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.e001797cc39ffp-13',
        '0x1.792093a0d0276p-8',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('ring', 'flow', 'raw', '0x1.edd70ff6fd7f1p-8', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.6800fba8826abp-13',
        '0x1.5008ca28cc8b4p-9',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('ring', 'flow', 'inceptionn', '0x1.8bd19c38a28c5p-8', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.6800fba8826abp-13',
        '0x1.17fbc5582d4b8p-10',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('wa', 'flow', 'raw', '0x1.037fb1c332cf8p-6', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.68011b1d92b7fp-11',
        '0x1.53360051e2e07p-7',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('wa', 'flow', 'inceptionn', '0x1.b4492b335f7dfp-7', (
        '0x1.a36e2eb1c432dp-10',
        '0x1.6f0068db8bac8p-10',
        '0x0.0p+0',
        '0x1.68011b1d92b7fp-11',
        '0x1.007fc7fedcbf6p-7',
        '0x1.d7dbf487fcb92p-10',
    )),
]

#: The same grid's exchange-only calls: algorithm, stream, total_s hex, phases.
EXCHANGE_ONLY_ROWS = [
    ('ring', 'raw', '0x1.293b6a13a9871p-8', (
        '0x0.0p+0',
        '0x0.0p+0',
        '0x0.0p+0',
        '0x1.6800fba8826abp-13',
        '0x1.5008ca28cc8aep-9',
        '0x1.d7dbf487fcb92p-10',
    )),
    ('wa', 'inceptionn', '0x1.51fb5841b5822p-7', (
        '0x0.0p+0',
        '0x0.0p+0',
        '0x0.0p+0',
        '0x1.68011b1d92b7fp-11',
        '0x1.007fc7fedcbf8p-7',
        '0x1.d7dbf487fcb92p-10',
    )),
]


def _hex_phases(phases):
    return tuple(getattr(phases, name).hex() for name in PHASE_NAMES)


@pytest.mark.parametrize("model", sorted(BREAKDOWN))
def test_table2_breakdown_matches_the_record(model):
    phases = simulated_breakdown(model, iterations=2)
    assert dict(zip(PHASE_NAMES, _hex_phases(phases))) == BREAKDOWN[model]


@pytest.mark.parametrize("configuration", sorted(ESTIMATES))
def test_fig12_estimate_matches_the_record(configuration):
    estimate = estimate_iteration_time("AlexNet", configuration)
    assert (
        estimate.iteration_s.hex(),
        estimate.computation_s.hex(),
    ) == ESTIMATES[configuration]


def _exchange(algorithm, stream, profile, fidelity="packet"):
    codec, ratio = STREAMS[stream]
    return simulate_exchange(
        algorithm,
        4,
        NBYTES,
        iterations=2,
        profile=profile,
        stream=codec,
        gradient_ratio=ratio,
        fidelity=fidelity,
        options=OPTIONS.get(algorithm),
    )


@pytest.mark.parametrize("algorithm, fidelity, stream, total_hex, phases", EXCHANGES)
def test_exchange_with_compute_matches_the_record(
    algorithm, fidelity, stream, total_hex, phases
):
    result = _exchange(algorithm, stream, PROFILE, fidelity)
    assert result.total_s.hex() == total_hex
    assert _hex_phases(result.phases) == phases


@pytest.mark.parametrize("algorithm, stream, total_hex, phases", EXCHANGE_ONLY_ROWS)
def test_exchange_only_profile_matches_the_record(algorithm, stream, total_hex, phases):
    result = _exchange(algorithm, stream, EXCHANGE_ONLY)
    assert result.total_s.hex() == total_hex
    assert _hex_phases(result.phases) == phases
