"""Shard routing: molecule types → engine instances.

The router owns the one decision every cluster operation starts with:
*which shard holds (or will hold) this atom*.  Two placement schemes are
supported per atom type:

* **hash** (the default): the root-key value hashes into ``0..N-1`` with
  a *stable* hash (CRC32 over the rendered value — never Python's
  randomised ``hash()``, which would scatter differently per process
  and break persisted clusters);
* **range**: explicit split points partition an ordered key domain,
  shard ``i`` holding keys below the ``i``-th split point (the classic
  Wisconsin-style range declustering).

Atoms addressed by surrogate need no placement metadata at all: shard
``i`` of an N-engine cluster generates surrogate numbers in the residue
class ``i+1 (mod N)`` (see
:class:`repro.access.address.SurrogateGenerator`), so the owner is
recoverable arithmetically as ``(number - 1) % N``.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Any, Sequence

from repro.errors import PrimaError
from repro.mad.types import Surrogate


def stable_hash(value: Any) -> int:
    """A process-stable non-negative hash of one routing-key value.

    Integers route by value (so contiguous keys spread round-robin —
    the balanced case for generated workloads); everything else routes
    by CRC32 of its ``repr``.  Deterministic across processes, runs,
    and Python versions, unlike the built-in randomised string hash.
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return value if value >= 0 else -value
    return zlib.crc32(repr(value).encode("utf-8"))


class ShardRouter:
    """Maps atom types to shards by root-key hash or declared ranges."""

    def __init__(self, shards: int,
                 ranges: "dict[str, Sequence[Any]] | None" = None) -> None:
        if shards < 1:
            raise PrimaError("a cluster needs at least one shard")
        self.shards = shards
        self._ranges: dict[str, tuple[Any, ...]] = {}
        #: Types whose ranges were adopted over pre-existing hash-placed
        #: data: inserts follow the ranges, but key-lookup queries must
        #: keep scattering (old atoms sit where the hash put them).
        self._mixed: set[str] = set()
        for atom_type, points in (ranges or {}).items():
            self.adopt_ranges(atom_type, points)

    def adopt_ranges(self, atom_type: str, points: Sequence[Any],
                     mixed: bool = False) -> None:
        """Declare (or replace) the range split points of one type.

        ``mixed=True`` records that atoms of the type already exist
        under the previous (hash) placement: new inserts follow the
        ranges, while :meth:`routable` turns False so key-lookup
        queries scatter — the direct-access probe additionally falls
        back to every shard on a routed miss, keeping both eras of
        placement findable.
        """
        points = tuple(points)
        if len(points) != self.shards - 1:
            raise PrimaError(
                f"range routing for {atom_type!r} needs exactly "
                f"{self.shards - 1} split point(s) for {self.shards} "
                f"shard(s), got {len(points)}"
            )
        if list(points) != sorted(points):
            raise PrimaError(
                f"range routing for {atom_type!r}: split points must "
                f"be ascending"
            )
        self._ranges[atom_type] = points
        if mixed:
            self._mixed.add(atom_type)
        else:
            self._mixed.discard(atom_type)

    def range_points(self, atom_type: str) -> "tuple[Any, ...] | None":
        """The declared split points of a type (None when hash-placed)."""
        return self._ranges.get(atom_type)

    def routable(self, atom_type: str) -> bool:
        """Whether a bound key lookup may execute on a single shard.

        False only for mixed-placement types (ranges adopted after
        hash-placed data existed) — their old atoms are not where the
        ranges say, so a single-shard lookup could silently miss.
        """
        return atom_type not in self._mixed

    @staticmethod
    def derive_split_points(minimum: Any, maximum: Any,
                            shards: int) -> "tuple[Any, ...] | None":
        """Even split points over an observed numeric key domain.

        ``shards - 1`` points spaced evenly between the observed minimum
        and maximum (ints round to ints); ``None`` when the domain is
        non-numeric, degenerate, or too narrow to yield strictly
        ascending points — the caller keeps hash placement then.
        """
        if shards < 2:
            return None
        if isinstance(minimum, bool) or isinstance(maximum, bool):
            return None
        if not isinstance(minimum, (int, float)) or \
                not isinstance(maximum, (int, float)):
            return None
        if not maximum > minimum:
            return None
        span = maximum - minimum
        points: list[Any] = []
        integral = isinstance(minimum, int) and isinstance(maximum, int)
        for i in range(1, shards):
            point = minimum + span * i / shards
            points.append(round(point) if integral else point)
        if any(b <= a for a, b in zip(points, points[1:])):
            return None   # domain too narrow for distinct ascending cuts
        return tuple(points)

    def scheme(self, atom_type: str) -> str:
        """``'range'`` or ``'hash'`` — how this type's keys place."""
        return "range" if atom_type in self._ranges else "hash"

    def shard_of_key(self, atom_type: str, key: Any) -> int:
        """The shard owning the atom of ``atom_type`` with this key.

        ``key`` is the KEYS_ARE value — a scalar or the tuple of key
        attribute values in declaration order (a 1-tuple is unwrapped,
        matching how key lookups render a single-attribute key).
        """
        if isinstance(key, tuple) and len(key) == 1:
            key = key[0]
        points = self._ranges.get(atom_type)
        if points is not None:
            probe = key[0] if isinstance(key, tuple) else key
            return bisect_right(points, probe)
        if isinstance(key, tuple):
            code = 0
            for part in key:
                code = (code * 1000003) ^ stable_hash(part)
            return code % self.shards
        return stable_hash(key) % self.shards

    def shard_of_surrogate(self, surrogate: Surrogate) -> int:
        """The shard that generated this surrogate (residue recovery)."""
        return (surrogate.number - 1) % self.shards

    def shard_for_insert(self, keys: Sequence[str], atom_type: str,
                         values: dict[str, Any]) -> int | None:
        """Where a new atom with these attribute values must live.

        ``None`` when the type has no key or the key attributes are not
        all present — the caller falls back to its unrouted placement
        (and key lookups for such atoms cannot be routed either, so
        placement and lookup stay consistent by construction).
        """
        if not keys:
            return None
        key = tuple(values.get(attr) for attr in keys)
        if any(part is None for part in key):
            return None
        return self.shard_of_key(atom_type, key)

    def __repr__(self) -> str:
        ranged = ", ".join(sorted(self._ranges)) or "-"
        return f"ShardRouter({self.shards} shards, ranged: {ranged})"
