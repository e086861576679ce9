"""The benchmark of record must keep seeing the program it measures.

``perfbench/`` measures ``repro`` from outside: ``spans.install`` wraps
public entry points and only *warns* when one is gone (its per-layer
metrics then read as null), and ``perfbench/tests`` is not part of
tier-1.  So a rename or deletion under ``src/`` could blind the
benchmark without failing anything; these checks fail instead.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
HARNESS_MODULES = ("checks", "spans", "workloads")


@pytest.fixture
def harness(monkeypatch):
    """Import harness modules the way ``perfbench/run.py``'s children do."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    yield importlib.import_module
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_every_patch_point_resolves(harness):
    spans = harness("spans")
    for name, _layer, module_name, path in spans.PATCH_POINTS:
        _owner, _attr, original = spans._resolve(module_name, path)
        assert callable(original), f"{name}: {module_name}:{path}"


def test_workloads_match_the_benchmark_contract(harness):
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = {entry["name"] for entry in contract["workloads"]}
    assert set(harness("workloads").WORKLOADS) == declared


def test_wire_datapath_operation_passes_its_own_gates(harness):
    # The op reads a dozen public names directly (EngineStats.elapsed_s,
    # compressor.total_cycles, counters.tx_payload_bytes_out, ...) that
    # PATCH_POINTS does not list; run it once so a rename fails here.
    workload = harness("workloads").WireDatapath()
    workload.setup(0)
    obs = workload.op(harness("spans").Recorder())
    assert workload.check(obs, obs) == []
    assert workload.counts(obs, {})["hardware.nic.tx_compressed_share"] == 1.0


def test_exchange_flow_operation_passes_its_own_gates(harness):
    # Set-up runs the packet kernel once at 32 workers and the op every
    # flow scenario, so a change that breaks flow/packet parity or a
    # name the sweep reads fails here and not only in the benchmark.
    workload = harness("workloads").ExchangeFlow()
    workload.setup(0)
    obs = workload.op(harness("spans").Recorder())
    assert workload.check(obs, obs) == []
