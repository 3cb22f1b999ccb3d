"""A sharded PRIMA cluster: N independent engines, one database surface.

:class:`ShardedCluster` stacks the scale-out configuration of section 4:
instead of one engine owning all atoms, N :class:`~repro.db.Prima`
instances each own a *partition* of every atom type — each with its own
buffer, locks, catalog, statistics, and snapshot store — and a
:class:`~repro.shard.coordinator.Coordinator` plans MQL once and runs
it across them as ``Route``/``Gather`` operators.  The cluster is an
:class:`~repro.engine.Engine` like ``Prima`` — the facade is
inherited, not re-typed — so examples, benchmarks, and
the whole serving layer (``SessionManager``, the daemon,
``repro.connect``) run over a cluster unchanged; this module holds only
what a cluster adds (placement and service channels).  Its shard
engines share its engine mutex: scatter-gather runs on one thread.

Sharding invariants:

* surrogate spaces are disjoint by construction — shard *i* generates
  numbers in the residue class ``i+1 (mod N)``, so any surrogate's
  owner is ``(number - 1) % N`` with no lookup state;
* keyed atoms place by router decision (hash or declared ranges), and
  the *same* router answers key lookups — placement and routing cannot
  drift apart;
* catalogs move in lockstep because every DDL/LDL statement fans out to
  all shards before it is acknowledged.

Each shard also gets a modelled *service channel*
(:class:`~repro.obs.network.NetworkStats`, billed when a shard's
``Route`` closes with the encoded bytes it delivered): the
per-channel communication times report the work each shard performed,
and their maximum is the cluster's makespan — the quantity the scaling
benchmark gates on, independent of the GIL.
"""

from __future__ import annotations

from typing import Any

from repro.db import Prima
from repro.engine import Engine
from repro.errors import PrimaError
from repro.mad.types import Surrogate
from repro.obs.network import NetworkModel, NetworkStats
from repro.shard.coordinator import Coordinator
from repro.shard.router import ShardRouter
from repro.util.stats import Counters


class ClusterAtoms:
    """The cluster's atom manager: surrogate residue → owning shard."""

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster

    def _owner(self, surrogate: Surrogate):
        index = self._cluster.router.shard_of_surrogate(surrogate)
        return self._cluster.engines[index].access.atoms

    def exists(self, surrogate: Surrogate) -> bool:
        return self._owner(surrogate).exists(surrogate)

    def get(self, surrogate: Surrogate, attrs: list[str] | None = None,
            **kwargs: Any) -> dict[str, Any]:
        return self._owner(surrogate).get(surrogate, attrs, **kwargs)

    def get_or_none(self, surrogate: Surrogate) -> dict[str, Any] | None:
        return self._owner(surrogate).get_or_none(surrogate)

    def modify(self, surrogate: Surrogate,
               values: dict[str, Any]) -> None:
        self._owner(surrogate).modify(surrogate, values)

    def delete(self, surrogate: Surrogate) -> None:
        self._owner(surrogate).delete(surrogate)

    def restore_atom(self, surrogate: Surrogate,
                     values: dict[str, Any]) -> None:
        self._owner(surrogate).restore_atom(surrogate, values)

    def find_by_key(self, type_name: str, key: Any) -> Surrogate | None:
        """Key lookup: ask the routed owner first, fall back to a
        cluster-wide probe (unrouted legacy placements)."""
        cluster = self._cluster
        routed = cluster.router.shard_of_key(type_name, key)
        found = cluster.engines[routed].access.atoms.find_by_key(
            type_name, key)
        if found is not None:
            return found
        for index, engine in enumerate(cluster.engines):
            if index == routed:
                continue
            found = engine.access.atoms.find_by_key(type_name, key)
            if found is not None:
                return found
        return None

    def atoms_of_type(self, type_name: str):
        for engine in self._cluster.engines:
            yield from engine.access.atoms.atoms_of_type(type_name)

    def count(self, type_name: str) -> int:
        return sum(engine.access.atoms.count(type_name)
                   for engine in self._cluster.engines)


class ClusterAccess:
    """The cluster's access-system facade: routes by key or surrogate.

    Presents the slice of :class:`~repro.access.system.AccessSystem`
    the layers above speak (direct atom access, deferred propagation,
    the shared counters); every call lands on exactly the shard owning
    the addressed atom.
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster
        #: Cluster-level counters (routing decisions, gather work); the
        #: per-shard engines keep their own under ``engine.access``.
        self.counters = Counters()
        self.atoms = ClusterAtoms(cluster)

    @property
    def schema(self):
        return self._cluster.engines[0].schema

    def insert(self, type_name: str,
               values: dict[str, Any] | None = None) -> Surrogate:
        shard = self._cluster.place_insert(type_name, values or {})
        return self._cluster.engines[shard].access.insert(type_name, values)

    def get(self, surrogate: Surrogate,
            attrs: list[str] | None = None) -> dict[str, Any]:
        return self.atoms.get(surrogate, attrs)

    def modify(self, surrogate: Surrogate,
               values: dict[str, Any]) -> None:
        self.atoms.modify(surrogate, values)

    def delete(self, surrogate: Surrogate) -> None:
        self.atoms.delete(surrogate)

    def propagate_deferred(self, limit: int | None = None) -> int:
        return sum(engine.access.propagate_deferred(limit)
                   for engine in self._cluster.engines)


class ShardedCluster(Engine):
    """N partitioned PRIMA engines behind one coordinator.

    ``ranges`` declares range placement per atom type (default: stable
    hash); ``model`` prices the per-shard service channels.
    """

    def __init__(self, shards: int = 4, *,
                 ranges: dict[str, Any] | None = None,
                 router: ShardRouter | None = None,
                 model: NetworkModel | None = None,
                 buffer_capacity: int = 256 * 8192) -> None:
        super().__init__()
        self.router = router or ShardRouter(shards, ranges=ranges)
        if self.router.shards != shards:
            raise PrimaError(
                f"router is built for {self.router.shards} shard(s), "
                f"cluster has {shards}"
            )
        self.engines: list[Prima] = []
        for index in range(shards):
            engine = Prima(buffer_capacity=buffer_capacity)
            # Strided surrogate generation must be in place before the
            # first insert: disjoint residue classes are what make the
            # owner recoverable arithmetically.
            engine.access.atoms.surrogates.start = index + 1
            engine.access.atoms.surrogates.stride = shards
            self.engines.append(engine)
        self.access = ClusterAccess(self)
        self.data = Coordinator(self)
        self.service_model = model or NetworkModel()
        #: One modelled service channel per shard: each gathered result
        #: bills one message + its molecule payload to its shard.
        self.channels = [NetworkStats() for _ in range(shards)]
        self._unrouted = 0

    # -- cluster plumbing ----------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self.router.shards

    @property
    def schema(self):
        return self.engines[0].schema

    @property
    def catalog(self):
        return self.engines[0].catalog

    def place_insert(self, type_name: str, values: dict[str, Any]) -> int:
        """The one placement decision, for direct-atom and MQL inserts
        alike: the router places by key, atoms without a routable key
        go round-robin."""
        keys = self.schema.atom_type(type_name).keys
        shard = self.router.shard_for_insert(keys, type_name, values)
        if shard is not None:
            self.access.counters.bump("routed_inserts")
            return shard
        self.access.counters.bump("unrouted_inserts")
        shard = self._unrouted % self.shard_count
        self._unrouted += 1
        return shard

    def bill_shard(self, index: int, nbytes: int) -> None:
        """Account one gathered result against a shard's channel."""
        self.channels[index].account(self.service_model, nbytes)

    def service_report(self) -> dict[str, Any]:
        """Per-shard service-channel accounting plus the makespan.

        ``makespan_ms`` — the slowest channel's modelled communication
        time — is the cluster's parallel completion time: balanced
        shards divide the work, so doubling the shard count should
        roughly halve it (the scale-out quantity that
        ``test_four_shards_divide_the_modelled_makespan`` in
        ``tests/test_sharding.py`` gates)."""
        per_shard = [stats.snapshot() for stats in self.channels]
        makespan = max((entry["comm_time_ms"] for entry in per_shard),
                       default=0.0)
        total = sum(entry["comm_time_ms"] for entry in per_shard)
        return {
            "shards": self.shard_count,
            "per_shard": per_shard,
            "total_service_ms": round(total, 3),
            "makespan_ms": round(makespan, 3),
        }

    # -- fan-out: LDL and optimizer meta-data -------------------------------

    def execute_ldl(self, ldl: str) -> list[str]:
        """Execute an LDL script on every shard (catalog lockstep)."""
        with self.mutex:
            for engine in self.engines:
                output = engine.execute_ldl(ldl)
        self.access.counters.bump("ddl_fanouts")
        return output

    def analyze(self, type_name: str | None = None) -> int:
        """Collect optimizer statistics on every shard (each sees only
        its partition — selectivities stay locally accurate)."""
        with self.mutex:
            return sum(engine.analyze(type_name) for engine in self.engines)

    def advise_ranges(self, type_name: str | None = None
                      ) -> dict[str, tuple]:
        """Derive range split points from collected statistics.

        For every keyed atom type without declared ranges (one type when
        ``type_name`` is given), merge the per-shard min/max of the
        first key attribute and ask the router for evenly spaced split
        points over that domain; adopt whatever qualifies.  Returns the
        ``{type: points}`` mapping actually adopted.

        Adoption over *existing* data is marked mixed-placement on the
        router: new inserts follow the derived ranges, but key-lookup
        queries keep scattering for the type (old atoms sit where the
        hash put them, and the direct-access key probe falls back to
        every shard) — correctness never depends on a rebalance this
        engine does not perform.
        """
        with self.mutex:
            self.analyze(type_name)
            names = ([type_name] if type_name is not None
                     else list(self.schema.atom_type_names()))
            adopted: dict[str, tuple] = {}
            for name in names:
                atom_type = self.schema.atom_type(name)
                if not atom_type.keys or \
                        self.router.range_points(name) is not None:
                    continue
                key_attr = atom_type.keys[0]
                lo = hi = None
                populated = 0
                for engine in self.engines:
                    stats = engine.data.statistics.type_statistics(name)
                    column = (stats.attributes.get(key_attr)
                              if stats is not None else None)
                    if column is None or column.minimum is None:
                        continue
                    populated += stats.cardinality
                    try:
                        if lo is None or column.minimum < lo:
                            lo = column.minimum
                        if hi is None or column.maximum > hi:
                            hi = column.maximum
                    except TypeError:
                        lo = hi = None   # mixed-type domain: stay hashed
                        break
                points = ShardRouter.derive_split_points(
                    lo, hi, self.shard_count)
                if points is None:
                    continue
                self.router.adopt_ranges(name, points, mixed=populated > 0)
                adopted[name] = points
                self.access.counters.bump("router_ranges_advised")
            return adopted

    # -- accounting -----------------------------------------------------------

    def _layer_report(self) -> dict[str, Any]:
        """Per-shard reports summed, plus the service channels."""
        report: dict[str, Any] = {}
        for engine in self.engines:
            for key, value in engine.io_report().items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                report[key] = report.get(key, 0) + value
        service = self.service_report()
        report["shards"] = service["shards"]
        report["shard_service_ms"] = [entry["comm_time_ms"]
                                      for entry in service["per_shard"]]
        report["shard_makespan_ms"] = service["makespan_ms"]
        return report

    def _reset_layers(self) -> None:
        for engine in self.engines:
            engine.reset_accounting()
        for stats in self.channels:
            stats.reset()

    # -- maintenance ----------------------------------------------------------

    def commit(self) -> None:
        with self.mutex:
            for engine in self.engines:
                engine.commit()

    def verify_integrity(self) -> list:
        violations = []
        for engine in self.engines:
            violations.extend(engine.verify_integrity())
        return violations

    def __repr__(self) -> str:
        return f"ShardedCluster({self.shard_count} shards, {self.router!r})"
