"""Per-operation correctness gates.

Every function takes one operation's observation (and, where a gate is
about determinism, the first operation's) and returns the list of gates
that failed — empty means the operation counts as correct.  An operation
with any failed gate, or one that raised, counts towards ``failed``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List

import numpy as np

#: Flow fidelity must match the packet kernel this closely (relative).
FLOW_REL_TOL = 1e-9


def weights_digest(weights: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(weights).tobytes()).hexdigest()


def check_train(obs: Dict[str, Any], first: Dict[str, Any]) -> List[str]:
    """A training run repeats the first one bit for bit; losses are finite."""
    failed = []
    result, reference = obs["result"], first["result"]
    if result.virtual_time_s != reference.virtual_time_s:
        failed.append("virtual_time_s differs from the first op")
    if result.transfers.wire_payload_nbytes != reference.transfers.wire_payload_nbytes:
        failed.append("wire_payload_nbytes differs from the first op")
    obs["weights_sha256"] = weights_digest(result.final_weights)
    if obs["weights_sha256"] != first["weights_sha256"]:
        failed.append("final weights differ from the first op")
    if not all(math.isfinite(loss) for loss in result.losses):
        failed.append("non-finite loss")
    return failed


def check_wire_datapath(obs: Dict[str, Any], first: Dict[str, Any]) -> List[str]:
    """Software codec, bulk engines and per-packet NIC agree byte for byte."""
    failed = []
    if not obs["max_abs_err"] <= obs["bound"]:
        failed.append("codec error exceeds the bound")
    if obs["engine_stream"] != obs["software_stream"]:
        failed.append("engine stream != CompressedGradients.to_bytes()")
    if obs["engine_restored"] != obs["software_restored"]:
        failed.append("engine-restored bytes != software round trip")
    if obs["nic_restored"] != obs["software_restored"][: len(obs["nic_restored"])]:
        failed.append("NIC-restored bytes != software round trip")
    if obs["sim_iter_s"] != first["sim_iter_s"]:
        failed.append("simulated time differs from the first op")
    return failed


def check_exchange_packet(obs: Dict[str, Any], first: Dict[str, Any]) -> List[str]:
    """Byte conservation, priority beats FIFO, the switch site sheds link bytes."""
    failed = []
    results = obs["results"]
    for name, result in results.items():
        if result.link_payload_nbytes < result.wire_payload_nbytes:
            failed.append(f"{name}: link payload < wire payload")
    if not results["ring_fattree_priority"].total_s < results["ring_fattree_fifo"].total_s:
        failed.append("priority total_s is not below FIFO total_s")
    if not results["wa_fattree_switch"].link_payload_nbytes < obs["endpoint_link_payload_nbytes"]:
        failed.append("switch-site link bytes are not below the endpoint site's")
    if obs["sim_iter_s"] != first["sim_iter_s"]:
        failed.append("simulated time differs from the first op")
    return failed


def check_exchange_flow(obs: Dict[str, Any], first: Dict[str, Any]) -> List[str]:
    """The flow evaluator matches the packet kernel where both can run."""
    failed = []
    if not obs["rel_err_vs_packet_w32"] <= FLOW_REL_TOL:
        failed.append("flow vs packet at w32 differs by more than 1e-9")
    if obs["sim_iter_s"] != first["sim_iter_s"]:
        failed.append("simulated time differs from the first op")
    return failed
