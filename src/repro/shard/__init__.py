"""Sharded scale-out: a partitioned engine cluster with routed and
scatter-gather query execution.

* :class:`ShardedCluster` — N independent PRIMA engines behind the
  shared :class:`~repro.engine.Engine` facade;
* :class:`ShardRouter` — key → shard placement (stable hash or ranges),
  surrogate → shard by residue arithmetic;
* :class:`Coordinator` — the cluster's ``data``: plans a SELECT once on
  shard 0 and lowers the bound plan into a ``Route`` to the key's owner
  or a ``Gather`` over every shard (operators of
  :mod:`repro.data.operators`, with global TopK bound pushdown); fans
  DDL out and routes DML.
"""

from repro.shard.cluster import ClusterAccess, ClusterAtoms, ShardedCluster
from repro.shard.coordinator import Coordinator
from repro.shard.router import ShardRouter, stable_hash

__all__ = [
    "ClusterAccess",
    "ClusterAtoms",
    "Coordinator",
    "ShardRouter",
    "ShardedCluster",
    "stable_hash",
]
