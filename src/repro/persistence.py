"""Database checkpointing: save/load a PRIMA instance to a file.

The original prototype persisted through the INCAS file manager; the
reproduction's disk lives in memory, so durability is explicit
*checkpointing*: ``save(db, path)`` writes a file and returns its size,
``load(path)`` returns a new :class:`~repro.db.Prima`.  A checkpoint holds
what the database *is*, its MAD schema and its atoms.  Access paths, sort
orders, partitions and atom clusters are redundant structures that LDL
defines and the access system maintains (paper, 3.2): the file holds their
LDL, and :func:`load` rebuilds them from the atoms.

Format version 3 (integers little-endian): the magic bytes, a ``u32``
version, the ``u32`` CRC-32 of the body, then five sections, each a
``u32`` length and its bytes:

1. the configuration: buffer capacity, policy, the partitioned flag and
   the :class:`~repro.storage.disk.DiskGeometry` fields;
2. the DDL of :meth:`~repro.engine.Engine.dump_ddl`;
3. the LDL of :meth:`~repro.engine.Engine.dump_ldl`;
4. per atom type, its name and its records in scan order, written with
   :func:`~repro.access.encoding.encode_atom`;
5. each type's next surrogate number and the types ANALYZE covered.

Sections 1 and 5 use the atoms' value codec too.  :func:`load` checks the
CRC first, then builds an engine, runs the DDL, restores each atom under
its own surrogate in the saved order (unordered SELECTs answer in the same
order), sets the generators, runs the LDL and ANALYZE, and commits.  It
runs no code from the file; a malformed file raises :class:`PrimaError`
naming it.  Versions 1 and 2 held a serialised engine and are refused.

Counters, metrics, the slow log, tracing, the plan cache, the decode memo,
the snapshot epoch and serving managers are runtime state: a loaded engine
starts them fresh.  It answers every query as the saved one did, though
its page layout may differ, and re-saves to the same bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict
from pathlib import Path

from repro.access.encoding import decode_atom, encode_atom
from repro.db import Prima
from repro.errors import PrimaError
from repro.mad.types import Surrogate
from repro.storage.buffer import PartitionedBufferManager
from repro.storage.disk import DiskGeometry

#: File magic, then the format version and the body's CRC-32.
_MAGIC = b"PRIMA-REPRO\x00"
_VERSION = 3
_U32 = struct.Struct("<I")

#: What a crafted body can raise while it is parsed and replayed.
_MALFORMED = (PrimaError, ValueError, TypeError, KeyError, IndexError,
              AttributeError, RecursionError, struct.error)


def _framed(chunk: bytes) -> bytes:
    return _U32.pack(len(chunk)) + chunk


def _split(data: bytes) -> list[bytes]:
    """The length-prefixed chunks ``data`` is a concatenation of."""
    chunks = []
    pos = 0
    while pos < len(data):
        (length,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        if pos + length > len(data):
            raise PrimaError("a section runs past the end of the file")
        chunks.append(data[pos:pos + length])
        pos += length
    return chunks


def _sections(db: Prima) -> list[bytes]:
    buffer = db.storage.buffer
    partitioned = isinstance(buffer, PartitionedBufferManager)
    config = {
        "buffer_capacity": buffer.capacity_bytes,
        "policy": "modified-lru" if partitioned else buffer.policy.name,
        "partitioned_buffer": partitioned,
        "geometry": asdict(db.storage.disk.geometry),
    }
    atoms = db.access.atoms
    types = [_framed(name.encode()) + _framed(b"".join(
        _framed(encode_atom(values))
        for _surrogate, values in atoms.atoms_of_type(name)))
        for name in db.schema.atom_type_names()]
    state = {"next": atoms.surrogates.next_numbers(),
             "analyzed": [name for name in db.schema.atom_type_names()
                          if db.data.statistics.type_statistics(name)]}
    return [encode_atom(config), db.dump_ddl().encode(),
            db.dump_ldl().encode(), b"".join(types), encode_atom(state)]


def save(db: Prima, path: str | Path) -> int:
    """Checkpoint ``db`` to ``path``; returns the bytes written.

    Deferred updates are propagated and dirty pages flushed first, and
    the engine mutex is held while the sections are written, so no
    concurrent writer tears the image.
    """
    with db.mutex:
        db.commit()
        body = b"".join(_framed(section) for section in _sections(db))
    image = _MAGIC + _U32.pack(_VERSION) + _U32.pack(zlib.crc32(body)) + body
    Path(path).write_bytes(image)
    return len(image)


def _restore(body: bytes) -> Prima:
    config, ddl, ldl, types, state = _split(body)
    config = decode_atom(config)
    config["geometry"] = DiskGeometry(**config["geometry"])
    db = Prima(**config)
    db.execute_script(ddl.decode())
    atoms = db.access.atoms
    chunks = _split(types)
    for name, records in zip(chunks[::2], chunks[1::2], strict=True):
        atom_type = db.schema.atom_type(name.decode())
        for record in _split(records):
            values = decode_atom(record)
            atoms.restore_atom(values[atom_type.identifier_attr], values)
    state = decode_atom(state)
    for name, number in state["next"].items():
        atoms.surrogates.note_existing(Surrogate(name, number - 1))
    db.execute_ldl(ldl.decode())
    for name in state["analyzed"]:
        db.analyze(name)
    db.commit()
    atoms.forget_decodes()
    db.reset_accounting()
    return db


def load(path: str | Path) -> Prima:
    """Restore a PRIMA instance checkpointed by :func:`save`."""
    source = Path(path)
    try:
        image = source.read_bytes()
    except FileNotFoundError:
        raise PrimaError(f"no database file at {source}") from None
    if not image.startswith(_MAGIC):
        raise PrimaError(f"{source} is not a PRIMA database file")
    at = len(_MAGIC)
    version = int.from_bytes(image[at:at + 4], "little")
    if version != _VERSION:
        raise PrimaError(
            f"{source} has format version {version}; this build reads "
            f"version {_VERSION}"
        )
    body = image[at + 8:]
    if image[at + 4:at + 8] != _U32.pack(zlib.crc32(body)):
        raise PrimaError(f"{source} is truncated or damaged: its CRC-32 "
                         f"does not match")
    try:
        return _restore(body)
    except _MALFORMED as exc:
        raise PrimaError(f"{source} holds a malformed checkpoint: {exc}") \
            from exc
