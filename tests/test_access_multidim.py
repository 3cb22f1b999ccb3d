"""Unit and property tests: the grid file (multi-dimensional access)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.multidim import GridFile, KeyCondition
from repro.errors import AccessError
from repro.mad.types import Surrogate


def s(n: int) -> Surrogate:
    return Surrogate("t", n)


class TestBasics:
    def test_insert_and_size(self):
        grid = GridFile(dims=2, bucket_capacity=4)
        grid.insert((1, 2), s(1))
        assert len(grid) == 1

    def test_dims_validated(self):
        grid = GridFile(dims=2)
        with pytest.raises(AccessError):
            grid.insert((1,), s(1))
        with pytest.raises(AccessError):
            GridFile(dims=0)

    def test_duplicate_rejected(self):
        grid = GridFile(dims=1)
        grid.insert((1,), s(1))
        with pytest.raises(AccessError):
            grid.insert((1,), s(1))

    def test_delete(self):
        grid = GridFile(dims=1)
        grid.insert((1,), s(1))
        grid.delete((1,), s(1))
        assert len(grid) == 0
        with pytest.raises(AccessError):
            grid.delete((1,), s(1))

    def test_splitting_creates_cells(self):
        grid = GridFile(dims=2, bucket_capacity=4)
        for i in range(40):
            grid.insert((i % 10, i // 10), s(i))
        assert grid.cell_count > 1
        grid.check_invariants()

    def test_equal_keys_do_not_split_forever(self):
        grid = GridFile(dims=1, bucket_capacity=2)
        for i in range(10):
            grid.insert((5,), s(i))
        grid.check_invariants()
        assert len(grid) == 10


class TestDuplicateKeys:
    """An over-capacity bucket of one repeated key cannot split; an
    insert into it is O(1), not a re-split over the whole bucket."""

    @staticmethod
    def _rankable_calls_per_insert(rows: int, monkeypatch) -> float:
        calls = 0
        rankable = GridFile._rankable

        def counting(value):
            nonlocal calls
            calls += 1
            return rankable(value)

        monkeypatch.setattr(GridFile, "_rankable", staticmethod(counting))
        grid = GridFile(dims=2)
        for i in range(rows):
            grid.insert((7, "same"), s(i + 1))
        monkeypatch.undo()
        grid.check_invariants()
        assert grid.cell_count == 1
        return calls / rows

    def test_rankable_calls_per_insert_do_not_grow(self, monkeypatch):
        small = self._rankable_calls_per_insert(1_000, monkeypatch)
        large = self._rankable_calls_per_insert(4_000, monkeypatch)
        assert large <= small * 1.2

    def test_new_key_splits_a_stuck_bucket(self):
        grid = GridFile(dims=1, bucket_capacity=4)
        for i in range(10):
            grid.insert((5,), s(i))
        assert grid.cell_count == 1
        grid.insert((9,), s(10))
        assert grid.cell_count == 2
        grid.check_invariants()

    def test_duplicate_rejected_in_a_stuck_bucket(self):
        grid = GridFile(dims=1, bucket_capacity=2)
        for i in range(5):
            grid.insert((5,), s(i))
        with pytest.raises(AccessError):
            grid.insert((5,), s(3))
        grid.delete((5,), s(3))
        grid.insert((5,), s(3))
        assert len(grid) == 5


class TestBoxQueries:
    @pytest.fixture
    def grid(self):
        grid = GridFile(dims=2, bucket_capacity=4)
        n = 0
        for x in range(6):
            for y in range(6):
                grid.insert((x, y), s(n))
                n += 1
        return grid

    def test_full_box(self, grid):
        assert len(list(grid.all_entries())) == 36

    def test_bounded_box(self, grid):
        conditions = [KeyCondition(start=1, stop=3),
                      KeyCondition(start=2, stop=4)]
        got = {key for key, _ in grid.box(conditions)}
        want = {(x, y) for x in range(1, 4) for y in range(2, 5)}
        assert got == want

    def test_exclusive_bounds(self, grid):
        conditions = [KeyCondition(start=1, stop=3, include_start=False,
                                   include_stop=False),
                      KeyCondition()]
        xs = {key[0] for key, _ in grid.box(conditions)}
        assert xs == {2}

    def test_per_key_directions(self, grid):
        conditions = [KeyCondition(start=0, stop=1, descending=True),
                      KeyCondition(start=0, stop=1)]
        got = [key for key, _ in grid.box(conditions)]
        assert got == [(1, 0), (1, 1), (0, 0), (0, 1)]

    def test_condition_count_checked(self, grid):
        with pytest.raises(AccessError):
            list(grid.box([KeyCondition()]))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 15), st.integers(0, 15)),
               min_size=1, max_size=120),
       st.integers(0, 15), st.integers(0, 15),
       st.integers(0, 15), st.integers(0, 15))
def test_grid_box_matches_filter(points, x0, x1, y0, y1):
    """Property: box queries equal brute-force filtering."""
    grid = GridFile(dims=2, bucket_capacity=3)
    for index, point in enumerate(sorted(points)):
        grid.insert(point, s(index))
    grid.check_invariants()
    x0, x1 = min(x0, x1), max(x0, x1)
    y0, y1 = min(y0, y1), max(y0, y1)
    conditions = [KeyCondition(start=x0, stop=x1),
                  KeyCondition(start=y0, stop=y1)]
    got = {key for key, _ in grid.box(conditions)}
    want = {(x, y) for x, y in points if x0 <= x <= x1 and y0 <= y <= y1}
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 8),
                          st.integers(0, 8)), max_size=150))
def test_grid_insert_delete_consistent(ops):
    """Property: membership matches an oracle set under random ops."""
    grid = GridFile(dims=2, bucket_capacity=3)
    oracle: set[tuple[int, int]] = set()
    for insert, x, y in ops:
        point = (x, y)
        if insert or not oracle:
            if point not in oracle:
                grid.insert(point, s(x * 100 + y))
                oracle.add(point)
        else:
            victim = sorted(oracle)[0]
            grid.delete(victim, s(victim[0] * 100 + victim[1]))
            oracle.discard(victim)
    grid.check_invariants()
    got = {key for key, _ in grid.all_entries()}
    assert got == oracle
