"""The access system facade (Fig. 3.1: "storage structures -> atom-oriented").

Bundles the atom manager with factory methods for the four tuning
structures, so the LDL executor and the data system program against one
object.
"""

from __future__ import annotations

from repro.access.access_path import AccessPath
from repro.access.atoms import AtomManager
from repro.access.cluster import AtomCluster
from repro.access.partition import Partition
from repro.access.sort_order import SortOrder
from repro.mad.molecule import StructureNode
from repro.mad.schema import Schema
from repro.storage.system import StorageSystem
from repro.util.stats import Counters


class AccessSystem:
    """Atom operations plus tuning-structure management."""

    def __init__(self, storage: StorageSystem, schema: Schema,
                 counters: Counters | None = None) -> None:
        self.storage = storage
        self.schema = schema
        self.counters = counters if counters is not None else Counters()
        self.atoms = AtomManager(storage, schema, counters=self.counters)

    # Convenience delegates -----------------------------------------------------

    def insert(self, type_name, values=None):
        """Insert an atom (see :meth:`AtomManager.insert`)."""
        return self.atoms.insert(type_name, values)

    def get(self, surrogate, attrs=None):
        """Read an atom (see :meth:`AtomManager.get`)."""
        return self.atoms.get(surrogate, attrs)

    def modify(self, surrogate, values):
        """Modify an atom (see :meth:`AtomManager.modify`)."""
        return self.atoms.modify(surrogate, values)

    def delete(self, surrogate):
        """Delete an atom (see :meth:`AtomManager.delete`)."""
        return self.atoms.delete(surrogate)

    # Tuning-structure factories (driven by the LDL executor) ----------------------

    def create_access_path(self, name: str, type_name: str,
                           attrs: list[str],
                           method: str = "btree") -> AccessPath:
        """CREATE ACCESS PATH — B*-tree or grid file over given attributes."""
        atom_type = self.schema.atom_type(type_name)
        path = AccessPath(name, atom_type, attrs, method=method)
        self.atoms.add_structure(path)
        return path

    def create_sort_order(self, name: str, type_name: str,
                          sort_attrs: list[str]) -> SortOrder:
        """CREATE SORT ORDER — redundant sorted record list."""
        atom_type = self.schema.atom_type(type_name)
        order = SortOrder(name, atom_type, sort_attrs,
                          self.storage, self.atoms)
        self.atoms.add_structure(order)
        return order

    def create_partition(self, name: str, type_name: str,
                         attrs: list[str]) -> Partition:
        """CREATE PARTITION — separate storage of an attribute combination."""
        atom_type = self.schema.atom_type(type_name)
        partition = Partition(name, atom_type, attrs,
                              self.storage, self.atoms)
        self.atoms.add_structure(partition)
        return partition

    def create_cluster(self, name: str,
                       structure: StructureNode) -> AtomCluster:
        """CREATE ATOM CLUSTER — materialised molecules on page sequences."""
        self.schema.atom_type(structure.atom_type)
        cluster = AtomCluster(name, structure, self.atoms, self.storage)
        self.atoms.add_structure(cluster)
        return cluster

    def drop_structure(self, name: str) -> None:
        """DROP — remove any tuning structure by name."""
        self.atoms.drop_structure(name)

    # Deferred update control -----------------------------------------------------------

    def propagate_deferred(self, limit: int | None = None) -> int:
        """Propagate pending deferred updates (all by default)."""
        return self.atoms.deferred.propagate(limit)
