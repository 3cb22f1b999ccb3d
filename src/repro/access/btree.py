"""B*-tree access paths (paper, 3.2).

Access paths map attribute values to surrogates.  Linear orders based on
B*-trees allow sequential NEXT/PRIOR traversal and range scans with start
and stop conditions; value orders come for free.

The variant implemented is a B+-tree with doubly linked leaves (the form
"B*-tree" commonly denoted in the German DBMS literature of the time).
Index nodes are memory-resident — the reproduction treats the index as
cached, while the *records* the entries point to live in buffered pages;
all I/O-shape claims are about record access, not index node access.

Keys are tuples of attribute values; duplicate keys are supported by
keeping the referencing surrogate in the entry ordering, which also makes
deletes exact.  ``None`` sorts before every other value (missing attribute
values are indexed lowest).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import AccessError
from repro.mad.types import Surrogate

#: Rank tags giving a total order across the value types that may appear in
#: one key position (None < bool < numbers < strings < surrogates).
_RANKS = {type(None): 0, bool: 1, int: 2, float: 2, str: 3, Surrogate: 4}


def _rank(value: Any) -> int:
    try:
        return _RANKS[type(value)]
    except KeyError:
        raise AccessError(f"value {value!r} cannot be used as a key") from None


class Key:
    """A comparable wrapper over a tuple of attribute values."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Any, ...]) -> None:
        self.values = values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Key) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __lt__(self, other: "Key") -> bool:
        for mine, theirs in zip(self.values, other.values):
            if mine == theirs:
                continue
            # make_key validated both ranks, so the probes cannot miss.
            my_rank, their_rank = _RANKS[type(mine)], _RANKS[type(theirs)]
            if my_rank != their_rank:
                return my_rank < their_rank
            if isinstance(mine, Surrogate):
                return (mine.atom_type, mine.number) < \
                    (theirs.atom_type, theirs.number)
            return mine < theirs
        return len(self.values) < len(other.values)

    def __le__(self, other: "Key") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return f"Key{self.values}"


def make_key(values: Any) -> Key:
    """Build a key from a scalar or a sequence of scalars.

    Every element is validated to belong to the orderable value universe,
    so unusable keys fail at insert time, not during a later comparison.
    """
    if isinstance(values, Key):
        return values
    if isinstance(values, tuple):
        parts = values
    elif isinstance(values, list):
        parts = tuple(values)
    else:
        parts = (values,)
    for part in parts:
        if type(part) not in _RANKS:
            _rank(part)   # raises the AccessError
    return Key(parts)


class _Node:
    __slots__ = ("leaf", "keys", "children", "entries", "next", "prev", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: list[tuple[Key, Surrogate]] = []   # leaf: composite keys
        self.children: list["_Node"] = []             # inner: fan-out
        self.entries: list[tuple[Key, Surrogate]] = []  # alias of keys (leaf)
        self.next: "_Node | None" = None
        self.prev: "_Node | None" = None
        self.parent: "_Node | None" = None


def _composite_lt(a: tuple[Key, Surrogate], b: tuple[Key, Surrogate]) -> bool:
    if a[0] != b[0]:
        return a[0] < b[0]
    return (a[1].atom_type, a[1].number) < (b[1].atom_type, b[1].number)


def _bisect(entries: list[tuple[Key, Surrogate]],
            item: tuple[Key, Surrogate], right: bool = False) -> int:
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if right:
            if _composite_lt(item, entries[mid]):
                hi = mid
            else:
                lo = mid + 1
        else:
            if _composite_lt(entries[mid], item):
                lo = mid + 1
            else:
                hi = mid
    return lo


class BStarTree:
    """The access path: ordered map from keys to surrogates."""

    def __init__(self, order: int = 32) -> None:
        if order < 4:
            raise AccessError("B*-tree order must be at least 4")
        self.order = order
        self._root = _Node(leaf=True)
        self._size = 0

    # -- inspection -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        node, levels = self._root, 1
        while not node.leaf:
            node = node.children[0]
            levels += 1
        return levels

    def _leftmost(self) -> _Node:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        return node

    def _rightmost(self) -> _Node:
        node = self._root
        while not node.leaf:
            node = node.children[-1]
        return node

    # -- point operations -----------------------------------------------------------

    def insert(self, key_values: Any, surrogate: Surrogate) -> None:
        """Add an entry; duplicate (key, surrogate) pairs are rejected."""
        item = (make_key(key_values), surrogate)
        leaf = self._find_leaf(item)
        pos = _bisect(leaf.keys, item)
        if pos < len(leaf.keys) and leaf.keys[pos] == item:
            raise AccessError(f"duplicate index entry {item}")
        leaf.keys.insert(pos, item)
        self._size += 1
        if len(leaf.keys) > self.order:
            self._split(leaf)

    def delete(self, key_values: Any, surrogate: Surrogate) -> None:
        """Remove an entry; raises when it is absent."""
        item = (make_key(key_values), surrogate)
        leaf = self._find_leaf(item)
        pos = _bisect(leaf.keys, item)
        if pos >= len(leaf.keys) or leaf.keys[pos] != item:
            raise AccessError(f"index entry {item} not found")
        leaf.keys.pop(pos)
        self._size -= 1
        self._rebalance(leaf)

    def search(self, key_values: Any) -> list[Surrogate]:
        """All surrogates stored under exactly this key."""
        key = make_key(key_values)
        out = [s for k, s in self.range(start=key, stop=key,
                                        include_start=True, include_stop=True)]
        return out

    def contains(self, key_values: Any, surrogate: Surrogate) -> bool:
        item = (make_key(key_values), surrogate)
        leaf = self._find_leaf(item)
        pos = _bisect(leaf.keys, item)
        return pos < len(leaf.keys) and leaf.keys[pos] == item

    # -- range scans -------------------------------------------------------------------

    def range(self, start: Any = None, stop: Any = None,
              include_start: bool = True, include_stop: bool = True,
              reverse: bool = False) -> Iterator[tuple[Key, Surrogate]]:
        """Entries with start ≤ key ≤ stop in key order (or reversed).

        ``None`` bounds are open; inclusivity flags realise the start/stop
        conditions of the access-path scan.

        A reverse scan delivers *keys* in descending order but keeps the
        surrogate tie-break **ascending** within each run of equal keys:
        equal-key entries arrive in insertion order either way, which is
        exactly what a stable sort with a reversed key produces — so an
        index-backed descending scan and the explicit Sort operator agree
        on ties.
        """
        start_key = None if start is None else make_key(start)
        stop_key = None if stop is None else make_key(stop)

        def in_range(key: Key) -> bool:
            if start_key is not None:
                if key < start_key or (key == start_key and not include_start):
                    return False
            if stop_key is not None:
                if stop_key < key or (key == stop_key and not include_stop):
                    return False
            return True

        if not reverse:
            if start_key is None:
                node, pos = self._leftmost(), 0
            else:
                probe = (start_key, Surrogate("", -(2 ** 62)))
                node = self._find_leaf(probe)
                pos = _bisect(node.keys, probe)
            while node is not None:
                while pos < len(node.keys):
                    key, surrogate = node.keys[pos]
                    if stop_key is not None and stop_key < key:
                        return
                    if in_range(key):
                        yield key, surrogate
                    pos += 1
                node = node.next
                pos = 0
        else:
            def walk_backward() -> Iterator[tuple[Key, Surrogate]]:
                if stop_key is None:
                    node = self._rightmost()
                    pos = len(node.keys) - 1
                else:
                    probe = (stop_key, Surrogate("￿", 2 ** 62))
                    node = self._find_leaf(probe)
                    pos = _bisect(node.keys, probe, right=True) - 1
                while node is not None:
                    while pos >= 0:
                        key, surrogate = node.keys[pos]
                        if start_key is not None and key < start_key:
                            return
                        if in_range(key):
                            yield key, surrogate
                        pos -= 1
                    node = node.prev
                    pos = len(node.keys) - 1 if node is not None else -1

            # Re-establish the ascending surrogate tie-break: the backward
            # walk visits a run of equal keys in descending surrogate
            # order, so buffer each run and emit it reversed.
            run: list[tuple[Key, Surrogate]] = []
            for key, surrogate in walk_backward():
                if run and run[-1][0] != key:
                    yield from reversed(run)
                    run.clear()
                run.append((key, surrogate))
            yield from reversed(run)

    def items(self) -> Iterator[tuple[Key, Surrogate]]:
        """All entries in key order."""
        return self.range()

    # -- structural invariants (used by property tests) ------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when any B-tree invariant is violated."""
        min_fill = self.order // 2

        def visit(node: _Node, depth: int, leaf_depths: list[int]) -> None:
            if node is not self._root:
                count = len(node.keys) if node.leaf else len(node.children)
                assert count >= (min_fill if node.leaf else 2), \
                    "underfull node"
            if node.leaf:
                leaf_depths.append(depth)
                for a, b in zip(node.keys, node.keys[1:]):
                    assert _composite_lt(a, b), "unsorted leaf"
            else:
                assert len(node.keys) == len(node.children) - 1, \
                    "inner key/child mismatch"
                for child in node.children:
                    assert child.parent is node, "broken parent link"
                    visit(child, depth + 1, leaf_depths)

        leaf_depths: list[int] = []
        visit(self._root, 0, leaf_depths)
        assert len(set(leaf_depths)) <= 1, "leaves at different depths"
        assert self._size == sum(1 for _ in self.items()), "size drift"

    # -- internals ----------------------------------------------------------------------

    def _find_leaf(self, item: tuple[Key, Surrogate]) -> _Node:
        node = self._root
        while not node.leaf:
            pos = _bisect(node.keys, item, right=True)
            node = node.children[pos]
        return node

    def _split(self, node: _Node) -> None:
        mid = len(node.keys) // 2 if node.leaf else len(node.children) // 2
        right = _Node(leaf=node.leaf)
        if node.leaf:
            right.keys = node.keys[mid:]
            node.keys = node.keys[:mid]
            separator = right.keys[0]
            right.next = node.next
            if right.next is not None:
                right.next.prev = right
            node.next = right
            right.prev = node
        else:
            separator = node.keys[mid - 1]
            right.keys = node.keys[mid:]
            right.children = node.children[mid:]
            node.keys = node.keys[:mid - 1]
            node.children = node.children[:mid]
            for child in right.children:
                child.parent = right

        parent = node.parent
        if parent is None:
            new_root = _Node(leaf=False)
            new_root.keys = [separator]
            new_root.children = [node, right]
            node.parent = new_root
            right.parent = new_root
            self._root = new_root
            return
        pos = parent.children.index(node)
        parent.children.insert(pos + 1, right)
        parent.keys.insert(pos, separator)
        right.parent = parent
        if len(parent.children) > self.order:
            self._split(parent)

    def _rebalance(self, node: _Node) -> None:
        min_fill = self.order // 2
        if node is self._root:
            if not node.leaf and len(node.children) == 1:
                self._root = node.children[0]
                self._root.parent = None
            return
        count = len(node.keys) if node.leaf else len(node.children)
        if count >= (min_fill if node.leaf else 2):
            return
        parent = node.parent
        assert parent is not None
        pos = parent.children.index(node)

        # Try borrowing from the left or right sibling.
        if pos > 0:
            left = parent.children[pos - 1]
            if (len(left.keys) if left.leaf else len(left.children)) > \
                    (min_fill if left.leaf else 2):
                self._borrow(parent, pos - 1, from_left=True)
                return
        if pos + 1 < len(parent.children):
            right = parent.children[pos + 1]
            if (len(right.keys) if right.leaf else len(right.children)) > \
                    (min_fill if right.leaf else 2):
                self._borrow(parent, pos, from_left=False)
                return

        # Merge with a sibling.
        if pos > 0:
            self._merge(parent, pos - 1)
        else:
            self._merge(parent, pos)
        self._rebalance(parent)

    def _borrow(self, parent: _Node, sep_index: int, from_left: bool) -> None:
        left = parent.children[sep_index]
        right = parent.children[sep_index + 1]
        if left.leaf:
            if from_left:
                moved = left.keys.pop()
                right.keys.insert(0, moved)
            else:
                moved = right.keys.pop(0)
                left.keys.append(moved)
            parent.keys[sep_index] = right.keys[0]
        else:
            if from_left:
                moved_child = left.children.pop()
                moved_key = left.keys.pop()
                right.children.insert(0, moved_child)
                right.keys.insert(0, parent.keys[sep_index])
                parent.keys[sep_index] = moved_key
                moved_child.parent = right
            else:
                moved_child = right.children.pop(0)
                moved_key = right.keys.pop(0)
                left.children.append(moved_child)
                left.keys.append(parent.keys[sep_index])
                parent.keys[sep_index] = moved_key
                moved_child.parent = left

    def _merge(self, parent: _Node, sep_index: int) -> None:
        left = parent.children[sep_index]
        right = parent.children[sep_index + 1]
        if left.leaf:
            left.keys.extend(right.keys)
            left.next = right.next
            if right.next is not None:
                right.next.prev = left
        else:
            left.keys.append(parent.keys[sep_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
            for child in right.children:
                child.parent = left
        parent.keys.pop(sep_index)
        parent.children.pop(sep_index + 1)
