"""Differential test: a sharded cluster answers every query as one engine.

Queries come from a small fixed grammar over one ``city`` table —
ORDER BY over ``pop``/``grp`` (either direction, always ending in the
unique ``name`` so the order is total), LIMIT/OFFSET windows, WHERE on
``pop``/``grp``, a full or partial projection — with the values written
as literals or bound as ``?`` parameters.  ``Prima`` is the oracle;
``ShardedCluster`` with 1, 2 and 4 shards must agree with it, with and
without an access path on ``pop`` (plus ANALYZE), along four read paths:
``engine.execute``, the same result drained again after ``reopen()``,
``engine.prepare(...).execute`` and a ``repro.connect`` cursor fetching
three molecules per message.

Ordered results must match row for row.  Unordered results compare as
multisets; under an unordered LIMIT/OFFSET window the engines may keep
different rows, so there the window's size is checked and its rows must
come from the unwindowed answer.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import Prima, ShardedCluster
from repro.mad.types import Surrogate

DDL = ("CREATE ATOM_TYPE city (city_id: IDENTIFIER, name: CHAR_VAR, "
       "pop: INTEGER, grp: INTEGER) KEYS_ARE (name)")
N_CITIES = 40


def _build(engine, indexed: bool):
    engine.execute(DDL)
    for i in range(N_CITIES):
        # pop repeats (ties for the ORDER BY prefix), grp cycles.
        engine.execute(f"INSERT city (name = 'c{i:02d}', "
                       f"pop = {(i * 37) % 17}, grp = {i % 5})")
    if indexed:
        engine.execute_ldl("CREATE ACCESS PATH city_pop ON city (pop)")
        engine.analyze()
    return engine


@pytest.fixture(scope="module")
def engines():
    built = {}
    for indexed in (False, True):
        built[("prima", indexed)] = _build(Prima(), indexed)
        for shards in (1, 2, 4):
            built[(shards, indexed)] = _build(ShardedCluster(shards=shards),
                                              indexed)
    yield built
    for engine in built.values():
        engine.close()


# ---------------------------------------------------------------------------
# The query grammar
# ---------------------------------------------------------------------------

_prefixes = st.sampled_from([(), ("pop",), ("grp",), ("pop", "grp"),
                             ("grp", "pop")])


@st.composite
def queries(draw):
    ordered = draw(st.booleans())
    order = []
    if ordered:
        for attr in draw(_prefixes) + ("name",):
            order.append((attr, draw(st.booleans())))
    return {
        "order": order,
        "limit": draw(st.sampled_from([None, 0, 1, 5, 40])),
        "offset": draw(st.sampled_from([0, 3])),
        "pop": draw(st.sampled_from([None, 4, 9])),
        "grp": draw(st.sampled_from([None, 0, 3])),
        "items": draw(st.sampled_from([None, ("name", "pop"),
                                       ("name", "grp")])),
        "bound": draw(st.booleans()),
    }


def render(query: dict) -> tuple[str, tuple]:
    """The MQL text and its positional arguments (empty when every
    value is written as a literal)."""
    args: list = []

    def value(v):
        if query["bound"]:
            args.append(v)
            return "?"
        return str(v)

    projection = "ALL" if query["items"] is None \
        else ", ".join(query["items"])
    text = f"SELECT {projection} FROM city"
    terms = []
    if query["pop"] is not None:
        terms.append(f"pop > {value(query['pop'])}")
    if query["grp"] is not None:
        terms.append(f"grp = {value(query['grp'])}")
    if terms:
        text += " WHERE " + " AND ".join(terms)
    if query["order"]:
        text += " ORDER BY " + ", ".join(
            f"{attr} {'DESC' if desc else 'ASC'}"
            for attr, desc in query["order"])
    if query["limit"] is not None:
        text += f" LIMIT {value(query['limit'])}"
        if query["offset"]:
            text += f" OFFSET {value(query['offset'])}"
    return text, tuple(args)


def rows(result) -> list[tuple]:
    """Surrogate-free rows: cluster and oracle number atoms differently."""
    return [tuple(sorted((k, v) for k, v in m.atom.items()
                         if not isinstance(v, Surrogate)))
            for m in result]


def run(engine, path: str, text: str, args: tuple) -> list[tuple]:
    if path in ("execute", "reopened"):
        result = engine.execute(text, *args)
        if path == "reopened":
            rows(result)
            result.reopen()
    elif path == "prepared":
        result = engine.prepare(text).execute(*args)
    else:
        with repro.connect(engine) as conn:
            return rows(conn.query(text, fetch_size=3, args=args))
    try:
        return rows(result)
    finally:
        result.close()


def check(query: dict, got: list[tuple], want: list[tuple],
          everything: list[tuple]) -> None:
    if query["order"]:
        assert got == want
    elif query["limit"] is None:
        assert Counter(got) == Counter(want)
    else:
        assert len(got) == len(want)
        assert not Counter(got) - Counter(everything)


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------

PATHS = ("execute", "reopened", "prepared", "connect")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(query=queries())
# An empty window over an order the access path serves: the gather must
# not look for a boundary among zero candidates.
@example(query={"order": [("pop", True), ("name", False)], "limit": 0,
                "offset": 0, "pop": None, "grp": None, "items": None,
                "bound": False})
def test_cluster_matches_single_engine(engines, query):
    text, args = render(query)
    unwindowed, unwindowed_args = render(
        {**query, "limit": None, "offset": 0})
    for indexed in (False, True):
        oracle = engines[("prima", indexed)]
        want = run(oracle, "execute", text, args)
        everything = run(oracle, "execute", unwindowed, unwindowed_args)
        for shards in (1, 2, 4):
            cluster = engines[(shards, indexed)]
            for path in PATHS:
                got = run(cluster, path, text, args)
                check(query, got, want, everything)


def test_grammar_covers_windows_and_both_value_forms():
    """The fixed points of the grammar render as expected MQL."""
    text, args = render({"order": [("pop", True), ("name", False)],
                         "limit": 5, "offset": 3, "pop": 4, "grp": 0,
                         "items": ("name", "pop"), "bound": True})
    assert text == ("SELECT name, pop FROM city WHERE pop > ? AND grp = ? "
                    "ORDER BY pop DESC, name ASC LIMIT ? OFFSET ?")
    assert args == (4, 0, 5, 3)
    literal, none = render({"order": [], "limit": None, "offset": 0,
                            "pop": None, "grp": None, "items": None,
                            "bound": False})
    assert (literal, none) == ("SELECT ALL FROM city", ())
