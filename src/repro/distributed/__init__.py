"""Distributed training: pluggable gradient strategies over one driver.

Importing this package registers every built-in
:class:`~repro.distributed.strategy.GradientStrategy` plugin — the
INCEPTIONN ring, the worker-aggregator baseline, the asynchronous and
bounded-staleness parameter servers, the hierarchical rings, and
LocalSGD — in :data:`~repro.distributed.strategy.STRATEGIES`.
"""

from repro.obs import ZERO_COMPUTE, ComputeProfile

from .strategy import (
    DistributedRunResult,
    GradientStrategy,
    NodeContext,
    STRATEGIES,
    Scenario,
    StrategyRun,
    StrategyUpdate,
    available_strategies,
    get_strategy,
    register_strategy,
    run_strategy,
)
from .cluster import RingStrategy, WorkerAggregatorStrategy
from .parameter_server import AsyncPSStrategy, StaleAsyncStrategy
from .hierarchy import GroupLayout, HierarchyStrategy, hierarchical_exchange
from .local_sgd import LocalSGDStrategy
from .node import partition_blocks, spawn_key
from .ring import ring_exchange
from .worker_aggregator import aggregator_exchange, worker_exchange

__all__ = [
    "GradientStrategy",
    "NodeContext",
    "STRATEGIES",
    "StrategyRun",
    "StrategyUpdate",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "run_strategy",
    "Scenario",
    "DistributedRunResult",
    "RingStrategy",
    "WorkerAggregatorStrategy",
    "AsyncPSStrategy",
    "GroupLayout",
    "HierarchyStrategy",
    "hierarchical_exchange",
    "LocalSGDStrategy",
    "StaleAsyncStrategy",
    "ComputeProfile",
    "ZERO_COMPUTE",
    "partition_blocks",
    "spawn_key",
    "ring_exchange",
    "aggregator_exchange",
    "worker_exchange",
]
