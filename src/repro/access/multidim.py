"""Multi-dimensional access paths (paper, 3.2).

PRIMA offers multi-dimensional access path structures over n keys, where
start/stop conditions and directions may be specified *individually for
every key* involved in a scan — the data system determines the selection
path through the n-dimensional space.

The structure implemented is a grid file: every dimension carries a scale
of split points partitioning the space into cells; each cell holds a bucket
of entries.  When a bucket overflows, the cell is split along one dimension
(round-robin) at the median of the resident values.  Box queries visit only
cells intersecting the query box; the per-key direction ordering is applied
to the qualifying entries.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import AccessError
from repro.access.btree import make_key
from repro.mad.types import Surrogate


@dataclass(frozen=True)
class KeyCondition:
    """Start/stop condition and direction for one key of a scan."""

    start: Any = None
    stop: Any = None
    include_start: bool = True
    include_stop: bool = True
    descending: bool = False


class GridFile:
    """An n-dimensional grid file over (key tuple, surrogate) entries."""

    def __init__(self, dims: int, bucket_capacity: int = 32) -> None:
        if dims < 1:
            raise AccessError("grid file needs at least one dimension")
        if bucket_capacity < 2:
            raise AccessError("bucket capacity must be at least 2")
        self.dims = dims
        self.bucket_capacity = bucket_capacity
        #: Per-dimension sorted split points.
        self._scales: list[list[Any]] = [[] for _ in range(dims)]
        #: cell coordinates -> entries in that cell.
        self._cells: dict[tuple[int, ...], list[tuple[tuple, Surrogate]]] = {}
        #: Every (key, surrogate) entry, for the duplicate test in O(1).
        self._entries: set[tuple[tuple, Surrogate]] = set()
        self._size = 0
        self._next_split_dim = 0

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    # -- coordinates -----------------------------------------------------------------

    def _coord(self, key: tuple) -> tuple[int, ...]:
        return tuple(
            bisect_right(self._scales[d], self._rankable(key[d]))
            for d in range(self.dims)
        )

    @staticmethod
    def _rankable(value: Any) -> Any:
        # None sorts below everything; normalise via a rank pair.
        if value is None:
            return (0, 0)
        if isinstance(value, bool):
            return (1, int(value))
        if isinstance(value, (int, float)):
            return (2, value)
        if isinstance(value, str):
            return (3, value)
        if isinstance(value, Surrogate):
            return (4, (value.atom_type, value.number))
        raise AccessError(f"value {value!r} cannot be used as a grid key")

    def _check_key(self, key_values: Any) -> tuple:
        key = make_key(key_values).values
        if len(key) != self.dims:
            raise AccessError(
                f"grid file has {self.dims} dimensions, key {key} has "
                f"{len(key)}"
            )
        return key

    # -- updates ---------------------------------------------------------------------

    def insert(self, key_values: Any, surrogate: Surrogate) -> None:
        """Add an entry; duplicate (key, surrogate) pairs are rejected."""
        key = self._check_key(key_values)
        entry = (key, surrogate)
        if entry in self._entries:
            raise AccessError(f"duplicate grid entry {entry}")
        coord = self._coord(key)
        bucket = self._cells.setdefault(coord, [])
        bucket.append(entry)
        self._entries.add(entry)
        self._size += 1
        if len(bucket) > self.bucket_capacity and (
                len(bucket) == self.bucket_capacity + 1
                or self._new_key(key, bucket[0][0])):
            self._split(coord)

    def _new_key(self, key: tuple, held: tuple) -> bool:
        """Does ``key`` differ from ``held`` in some dimension's rank?

        A bucket that was already over capacity failed to split, and a
        split fails only when every entry has the same key in every
        dimension (a bucket holding two values in one dimension always
        has a median inside its cell).  Cuts through it cannot separate
        equal keys, so it stays unsplittable until an entry with a new
        key arrives: only then is a split worth trying again.
        """
        rankable = self._rankable
        return any(rankable(mine) != rankable(theirs)
                   for mine, theirs in zip(key, held))

    def delete(self, key_values: Any, surrogate: Surrogate) -> None:
        """Remove an entry; raises when absent."""
        key = self._check_key(key_values)
        entry = (key, surrogate)
        if entry not in self._entries:
            raise AccessError(f"grid entry {entry} not found")
        coord = self._coord(key)
        bucket = self._cells[coord]
        bucket.remove(entry)
        self._entries.remove(entry)
        self._size -= 1
        if not bucket:
            del self._cells[coord]

    def _split(self, coord: tuple[int, ...]) -> None:
        bucket = self._cells[coord]
        # Pick a dimension (round-robin) where the bucket actually spreads
        # and whose median is a *new* boundary (duplicate split points
        # would create empty stripes and corrupt the directory remap).
        dim = median = None
        for attempt in range(self.dims):
            candidate = (self._next_split_dim + attempt) % self.dims
            scale = self._scales[candidate]
            distinct = sorted({self._rankable(entry[0][candidate])
                               for entry in bucket})
            if len(distinct) < 2:
                continue
            # Candidate split values, middle-out (skip the minimum: a
            # boundary below every entry would not split the bucket).
            values = distinct[1:]
            order = sorted(range(len(values)),
                           key=lambda i: abs(i - len(values) // 2))
            for index in order:
                value = values[index]
                pos = bisect_right(scale, value)
                if pos > 0 and scale[pos - 1] == value:
                    continue   # already a boundary
                dim, median = candidate, value
                break
            if dim is not None:
                break
        if dim is None:
            return  # nothing splittable; the bucket stays oversized
        self._next_split_dim = (dim + 1) % self.dims

        position = bisect_right(self._scales[dim], median)
        self._scales[dim].insert(position, median)
        # The new boundary cuts through the whole hyperplane: every cell
        # whose interval in ``dim`` contained the boundary (index ==
        # position) straddles it and is redistributed; cells above shift
        # by one; cells below are untouched.
        old_cells = self._cells
        self._cells = {}
        for cell_coord, cell_bucket in old_cells.items():
            if cell_coord[dim] > position:
                shifted = list(cell_coord)
                shifted[dim] += 1
                self._cells[tuple(shifted)] = cell_bucket
            elif cell_coord[dim] == position:
                for key, surrogate in cell_bucket:
                    self._cells.setdefault(self._coord(key), []) \
                        .append((key, surrogate))
            else:
                self._cells[cell_coord] = cell_bucket

    # -- queries ---------------------------------------------------------------------

    def box(self, conditions: list[KeyCondition]) -> Iterator[tuple[tuple, Surrogate]]:
        """Entries within the box, ordered per-key by each direction.

        ``conditions[d]`` gives the start/stop condition and the traversal
        direction for dimension ``d``; results are ordered lexicographically
        with each key position ordered in its own direction.
        """
        if len(conditions) != self.dims:
            raise AccessError(
                f"need exactly {self.dims} key conditions, got {len(conditions)}"
            )
        matches = [
            (key, surrogate)
            for key, surrogate in self._candidates(conditions)
            if self._qualifies(key, conditions)
        ]

        def sort_key(entry: tuple[tuple, Surrogate]) -> tuple:
            parts = []
            for d, cond in enumerate(conditions):
                rank, value = self._rankable(entry[0][d])
                if cond.descending:
                    rank = -rank
                    value = _Descending(value)
                parts.append((rank, value))
            parts.append((entry[1].atom_type, entry[1].number))
            return tuple(parts)

        yield from sorted(matches, key=sort_key)

    def all_entries(self) -> Iterator[tuple[tuple, Surrogate]]:
        """Every entry, ordered ascending in all dimensions."""
        yield from self.box([KeyCondition() for _ in range(self.dims)])

    def _candidates(self, conditions: list[KeyCondition]) -> Iterator[tuple[tuple, Surrogate]]:
        ranges: list[range] = []
        for d, cond in enumerate(conditions):
            scale = self._scales[d]
            lo = 0
            hi = len(scale)
            if cond.start is not None:
                lo = bisect_right(scale, self._rankable(cond.start))
                # entries equal to a split point sit in the cell above it;
                # keep the cell below too when the bound is inclusive.
                lo = max(0, lo - 1)
            if cond.stop is not None:
                hi = bisect_right(scale, self._rankable(cond.stop))
            ranges.append(range(lo, hi + 1))
        for coord, bucket in self._cells.items():
            if all(coord[d] in ranges[d] for d in range(self.dims)):
                yield from bucket

    def _qualifies(self, key: tuple, conditions: list[KeyCondition]) -> bool:
        for d, cond in enumerate(conditions):
            ranked = self._rankable(key[d])
            if cond.start is not None:
                start = self._rankable(cond.start)
                if ranked < start or (ranked == start and not cond.include_start):
                    return False
            if cond.stop is not None:
                stop = self._rankable(cond.stop)
                if stop < ranked or (ranked == stop and not cond.include_stop):
                    return False
        return True

    # -- invariants (property tests) -----------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural inconsistency."""
        total = 0
        for coord, bucket in self._cells.items():
            assert bucket, "empty bucket retained in directory"
            for key, _ in bucket:
                assert self._coord(key) == coord, "entry in wrong cell"
            total += len(bucket)
        assert total == self._size, "size drift"
        for scale in self._scales:
            assert scale == sorted(scale), "unsorted scale"


class _Descending:
    """Inverts the comparison order of a wrapped value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.value == other.value
