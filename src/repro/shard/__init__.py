"""Sharded scale-out: a partitioned engine cluster with routed and
scatter-gather query execution.

* :class:`ShardedCluster` — N independent PRIMA engines behind the
  shared :class:`~repro.engine.Engine` facade;
* :class:`ShardRouter` — key → shard placement (stable hash or ranges),
  surrogate → shard by residue arithmetic;
* :class:`Coordinator` / :class:`ClusterPrepared` — the cluster's
  execution layer: routed single-shard lookups, ordered cross-shard
  k-way merge gather with global TopK bound pushdown, DDL fan-out.
"""

from repro.shard.cluster import ClusterAccess, ClusterAtoms, ShardedCluster
from repro.shard.coordinator import ClusterPrepared, Coordinator
from repro.shard.router import ShardRouter, stable_hash

__all__ = [
    "ClusterAccess",
    "ClusterAtoms",
    "ClusterPrepared",
    "Coordinator",
    "ShardRouter",
    "ShardedCluster",
    "stable_hash",
]
