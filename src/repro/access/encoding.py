"""Binary encoding of atoms into physical records.

Physical records are *byte strings of variable length* (paper, 3.2).  The
encoding is self-describing (tag + payload per value) so that partitions —
records holding only an attribute subset — and cluster records can be
decoded without consulting the schema.  An encoded atom is a small
dictionary image::

    u8  tag ATOM
    u16 attribute count
    per attribute: name (STR), value (tagged)

All integers little-endian; strings UTF-8 with u32 length prefixes.
INTEGERs are signed 64-bit: a wider value raises :class:`AccessError`
(``IntegerType.validate`` rejects it before it gets here).

:func:`encoded_size` is the length of :func:`encode_atom`'s output,
computed by walking the value without building any bytes — billing a
wire reply sizes every atom it ships, so it must not encode them.
:func:`molecules_size` is the one byte notion of shipped molecules: the
serving protocol bills its batches and a shard its gathered results
with it.
:func:`decode_atom` optionally *interns* surrogates: given a pool, every
occurrence of one logical address decodes to the same object.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

from repro.errors import AccessError, SchemaError
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3
_TAG_BOOL_TRUE = 4
_TAG_BOOL_FALSE = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_DICT = 8
_TAG_SURROGATE = 9
_TAG_ATOM = 10

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U16_MAX = 0xFFFF


# Out-of-range values raise AccessError, never struct.error.  The write
# path finds them by catching the packing error (a ``try`` costs nothing
# until it fires; a check per value would cost a fifth of an encode);
# ``encoded_size`` finds the same ones by checking.

def _not_i64(what: str, number: Any) -> AccessError:
    return AccessError(f"{what} {number!r} is not a signed 64-bit integer")


def _not_utf8(text: str) -> AccessError:
    return AccessError(f"string {text!r} is not encodable as UTF-8")


def _too_many_attributes(values: dict[str, Any]) -> AccessError:
    return AccessError(f"an atom holds at most {_U16_MAX} attributes, "
                       f"got {len(values)}")


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise _not_utf8(text) from None


def _surrogate_name(value: Surrogate) -> bytes:
    """The UTF-8 type name of a surrogate, after checking that the
    surrogate fits its encoding (u16 name length, i64 number)."""
    name = value.atom_type
    if not isinstance(name, str):
        raise AccessError(f"surrogate type name {name!r} is not a string")
    raw = _utf8(name)
    if len(raw) > _U16_MAX:
        raise AccessError(f"surrogate type name of {len(raw)} bytes is "
                          f"longer than {_U16_MAX}")
    try:
        _I64.pack(value.number)
    except struct.error:
        raise _not_i64("surrogate number", value.number) from None
    return raw


def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif isinstance(value, bool):
        out.append(_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE)
    elif isinstance(value, int):
        try:
            packed = _I64.pack(value)
        except struct.error:
            raise _not_i64("INTEGER value", value) from None
        out.append(_TAG_INT)
        out += packed
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError:
            raise _not_utf8(value) from None
        out.append(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, Surrogate):
        raw = _surrogate_name(value)
        out.append(_TAG_SURROGATE)
        out += _U16.pack(len(raw))
        out += raw
        out += _I64.pack(value.number)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _U32.pack(len(value))
        for key in value:
            if not isinstance(key, str):
                raise AccessError(f"record field name must be str, got {key!r}")
            _encode_value(key, out)
            _encode_value(value[key], out)
    else:
        raise AccessError(f"value {value!r} of type {type(value).__name__} "
                          f"is not encodable")


def _value_size(value: Any) -> int:
    """``_encode_value``'s output length, branch for branch, raising
    where it raises."""
    if type(value) is Surrogate:
        # The common leaf first (reference sets are lists of these).
        name, number = value.atom_type, value.number
        if (type(name) is str and name.isascii() and len(name) <= _U16_MAX
                and type(number) is int and _I64_MIN <= number <= _I64_MAX):
            return 11 + len(name)
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        if not _I64_MIN <= value <= _I64_MAX:
            raise _not_i64("INTEGER value", value)
        return 9
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        return 5 + (len(value) if value.isascii() else len(_utf8(value)))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, Surrogate):
        return 11 + len(_surrogate_name(value))
    if isinstance(value, (list, tuple)):
        size = 5
        for item in value:
            size += _value_size(item)
        return size
    if isinstance(value, dict):
        size = 5
        for key in value:
            if not isinstance(key, str):
                raise AccessError(f"record field name must be str, got {key!r}")
            size += _value_size(key) + _value_size(value[key])
        return size
    raise AccessError(f"value {value!r} of type {type(value).__name__} "
                      f"is not encodable")


def _decode_value(data: bytes, pos: int,
                  pool: dict[bytes, Surrogate]) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_BOOL_TRUE:
        return True, pos
    if tag == _TAG_BOOL_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_STR:
        length = _U32.unpack_from(data, pos)[0]
        pos += 4
        return data[pos:pos + length].decode("utf-8"), pos + length
    if tag == _TAG_BYTES:
        length = _U32.unpack_from(data, pos)[0]
        pos += 4
        return bytes(data[pos:pos + length]), pos + length
    if tag == _TAG_SURROGATE:
        # The encoded surrogate (name length, name, number) is the
        # pool's key: a hit skips decoding the name and the dataclass.
        end = pos + 10 + _U16.unpack_from(data, pos)[0]
        key = data[pos:end]
        surrogate = pool.get(key)
        if surrogate is None:
            surrogate = pool[key] = Surrogate(
                data[pos + 2:end - 8].decode("utf-8"),
                _I64.unpack_from(data, end - 8)[0])
        return surrogate, end
    if tag == _TAG_LIST:
        count = _U32.unpack_from(data, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, pool)
            items.append(item)
        return items, pos
    if tag == _TAG_DICT:
        count = _U32.unpack_from(data, pos)[0]
        pos += 4
        record: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos, pool)
            value, pos = _decode_value(data, pos, pool)
            record[key] = value
        return record, pos
    raise AccessError(f"corrupt record: unknown value tag {tag} at byte {pos - 1}")


def encode_atom(values: dict[str, Any]) -> bytes:
    """Encode an attribute-value dict into a physical-record byte string."""
    try:
        count = _U16.pack(len(values))
    except struct.error:
        raise _too_many_attributes(values) from None
    out = bytearray()
    out.append(_TAG_ATOM)
    out += count
    for name, value in values.items():
        _encode_value(name, out)
        _encode_value(value, out)
    return bytes(out)


def decode_atom(data: bytes,
                pool: dict[bytes, Surrogate] | None = None) -> dict[str, Any]:
    """Decode a physical record back into an attribute-value dict.

    Equal surrogates decode to one object: within the record, and across
    every record decoded with the same ``pool`` (a caller-owned dict the
    decoder fills)."""
    if not data or data[0] != _TAG_ATOM:
        raise AccessError("corrupt record: missing atom tag")
    if pool is None:
        pool = {}
    count = _U16.unpack_from(data, 1)[0]
    pos = 3
    values: dict[str, Any] = {}
    for _ in range(count):
        name, pos = _decode_value(data, pos, pool)
        value, pos = _decode_value(data, pos, pool)
        values[name] = value
    if pos != len(data):
        raise AccessError(
            f"corrupt record: {len(data) - pos} trailing bytes"
        )
    return values


def encoded_size(values: dict[str, Any]) -> int:
    """``len(encode_atom(values))``, computed without encoding; raises
    :class:`AccessError` exactly where :func:`encode_atom` does."""
    if len(values) > _U16_MAX:
        raise _too_many_attributes(values)
    size = 3
    for name, value in values.items():
        size += _value_size(name) + _value_size(value)
    return size


def molecules_size(molecules: Iterable[Molecule]) -> int:
    """Encoded size of every atom *occurrence* in ``molecules`` — an atom
    shared by several molecules (or reached over several paths) counts
    each time it ships.

    Each distinct atom is sized once: occurrences are keyed by their
    surrogate, and a size is reused only for a dict ``==`` to the one
    that was sized (a qualified projection can give one surrogate
    different dicts in one batch).  The surrogate fixes the atom type,
    hence every attribute's type, so ``==`` dicts encode alike.  Atoms
    without a surrogate are sized afresh.  Nothing is encoded."""
    total = 0
    sized: dict[Surrogate, tuple[dict[str, Any], int]] = {}
    pending = list(molecules)
    while pending:
        molecule = pending.pop()
        atom = molecule.atom
        try:
            key = molecule.surrogate
        except SchemaError:          # a hand-built atom without identifier
            key = None
        known = sized.get(key)
        if known is not None and (known[0] is atom or known[0] == atom):
            total += known[1]
        else:
            size = encoded_size(atom)
            if key is not None and known is None:
                sized[key] = (atom, size)
            total += size
        for components in molecule.components.values():
            pending.extend(components)
    return total
