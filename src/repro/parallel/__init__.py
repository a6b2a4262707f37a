"""Sharded parallel simulation executor (see ARCHITECTURE.md).

Partitions a built network into RP/region-anchored shards, runs each
shard on its own event loop, and synchronizes cross-shard traffic with
conservative lookahead windows — deterministic by construction: serial
and sharded runs produce bit-identical delivery digests.
"""

from repro.parallel.digest import DeliveryLog, canonical_digest, delivery_digest
from repro.parallel.executor import ShardedExecutor
from repro.parallel.partition import ShardPlan, partition_by_anchors
from repro.parallel.scale import ScaleSpec, run_scale

__all__ = [
    "DeliveryLog",
    "ScaleSpec",
    "ShardPlan",
    "ShardedExecutor",
    "canonical_digest",
    "delivery_digest",
    "partition_by_anchors",
    "run_scale",
]
