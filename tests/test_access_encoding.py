"""Unit tests: binary record encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.encoding import decode_atom, encode_atom, encoded_size
from repro.errors import AccessError
from repro.mad.types import Surrogate


class TestRoundTrip:
    CASES = [
        {},
        {"i": 42},
        {"i": -(2 ** 40)},
        {"f": 3.25},
        {"s": "héllo wörld"},
        {"b_true": True, "b_false": False},
        {"none": None},
        {"bytes": b"\x00\xff" * 10},
        {"ref": Surrogate("edge", 17)},
        {"list": [1, 2.5, "three", None]},
        {"set": [Surrogate("point", 1), Surrogate("point", 2)]},
        {"record": {"x_coord": 1.0, "y_coord": 2.0, "z_coord": 3.0}},
        {"nested": {"a": [{"b": [1, [2, 3]]}]}},
        {"many": {f"attr{i}": i for i in range(50)}},
    ]

    @pytest.mark.parametrize("values", CASES,
                             ids=[str(i) for i in range(len(CASES))])
    def test_roundtrip(self, values):
        assert decode_atom(encode_atom(values)) == values

    def test_surrogate_type_preserved(self):
        out = decode_atom(encode_atom({"ref": Surrogate("a_type", 9)}))
        assert isinstance(out["ref"], Surrogate)
        assert out["ref"].atom_type == "a_type"
        assert out["ref"].number == 9

    def test_bool_not_confused_with_int(self):
        out = decode_atom(encode_atom({"b": True, "i": 1}))
        assert out["b"] is True
        assert out["i"] == 1
        assert not isinstance(out["i"], bool)

    def test_attribute_order_preserved(self):
        values = {"z": 1, "a": 2, "m": 3}
        assert list(decode_atom(encode_atom(values))) == ["z", "a", "m"]


class TestErrors:
    def test_unencodable_value(self):
        with pytest.raises(AccessError):
            encode_atom({"x": object()})

    def test_non_string_record_key(self):
        with pytest.raises(AccessError):
            encode_atom({"x": {1: "bad"}})

    def test_corrupt_tag(self):
        with pytest.raises(AccessError):
            decode_atom(b"\xff\x00\x00")

    def test_empty_payload(self):
        with pytest.raises(AccessError):
            decode_atom(b"")

    def test_trailing_garbage(self):
        payload = encode_atom({"a": 1}) + b"junk"
        with pytest.raises(AccessError):
            decode_atom(payload)


class TestSize:
    def test_encoded_size_matches(self):
        values = {"a": 1, "b": "text"}
        assert encoded_size(values) == len(encode_atom(values))

    def test_partition_smaller_than_full_atom(self):
        full = {"a": 1, "big": "x" * 500, "more": list(range(50))}
        part = {"a": 1}
        assert encoded_size(part) < encoded_size(full) / 10

    def test_edge_integers_fit(self):
        for number in (2 ** 63 - 1, -(2 ** 63)):
            values = {"n": number, "ref": Surrogate("t", number)}
            assert decode_atom(encode_atom(values)) == values
            assert encoded_size(values) == len(encode_atom(values))

    @pytest.mark.parametrize("values", [
        {"n": 2 ** 63}, {"n": -(2 ** 63) - 1}, {"n": [1, 2 ** 64]},
        {"ref": Surrogate("t", 2 ** 63)}, {"ref": Surrogate("t", 1.5)},
        {"ref": Surrogate("t" * 65536, 1)}, {"s": "\ud800"},
    ], ids=["int", "negative", "nested", "surrogate", "non-int",
            "long-name", "lone-surrogate"])
    def test_out_of_range_raises_access_error_in_both(self, values):
        with pytest.raises(AccessError):
            encode_atom(values)
        with pytest.raises(AccessError):
            encoded_size(values)


_I64_EDGES = [2 ** 63 - 1, -(2 ** 63), 2 ** 63, -(2 ** 63) - 1, 2 ** 64]

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.sampled_from(_I64_EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["héllo", "Ω", "線", "\U0001f600", "\ud800"]),
    st.binary(max_size=16),
    st.binary(max_size=16).map(bytearray),
    st.builds(Surrogate, st.one_of(st.text(max_size=6),
                                   st.sampled_from(["pöint", "面", "\ud800"])),
              st.one_of(st.integers(min_value=-(2 ** 64),
                                    max_value=2 ** 64),
                        st.sampled_from(_I64_EDGES), st.floats())),
    st.builds(object),
    st.frozensets(st.integers(), max_size=2),
    st.complex_numbers(allow_nan=False),
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(),
                                  st.none()),
                        children, max_size=3),
    ),
    max_leaves=16,
)
# encode_atom itself accepts any encodable name at the top level.
_atoms = st.dictionaries(st.one_of(st.text(max_size=8), st.integers()),
                         _values, max_size=6)


@settings(max_examples=400, deadline=None)
@given(_atoms)
def test_encoded_size_is_the_encoded_length(values):
    """``encoded_size`` agrees with ``len(encode_atom(...))`` on every
    atom, or both raise AccessError (never ``struct.error``)."""
    try:
        expected = len(encode_atom(values))
    except AccessError:
        with pytest.raises(AccessError):
            encoded_size(values)
    else:
        assert encoded_size(values) == expected
