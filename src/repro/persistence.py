"""Database checkpointing: save/load a PRIMA instance to a file.

The original prototype persisted through the INCAS file manager; the
reproduction's simulated disk lives in memory, so durability is provided as
explicit *checkpointing*: :func:`save` serialises the complete instance —
disk blocks, buffer, catalogs, addressing structures, tuning structures —
and :func:`load` restores it bit-identically.  The file carries a magic
header and a format version so foreign files fail fast.  The format is
version 2: pages carry a CRC-based checksum and page/record ids pickle as
named tuples.  A version-1 file is refused, not converted.

Checkpointing sits one layer above the engine, so it is these two
functions, not methods of :class:`~repro.db.Prima`.  A checkpoint holds
data, not serving state: session managers attached to the instance are
left out, and a loaded instance starts unserved.

    >>> from repro import Prima
    >>> from repro.persistence import save, load
    >>> db = Prima()
    >>> _ = db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, n: INTEGER)")
    >>> _ = db.execute("INSERT a (n = 7)")
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "db.prima")
    >>> save(db, path)
    >>> len(load(path).query("SELECT ALL FROM a"))
    1
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.db import Prima
from repro.errors import PrimaError

#: File magic + format version.
_MAGIC = b"PRIMA-REPRO\x00"
_VERSION = 2


def save(db: Prima, path: str | Path) -> int:
    """Checkpoint ``db`` to ``path``; returns the bytes written.

    Dirty buffered pages are flushed and deferred updates propagated
    first, so the stored image is a clean commit point.  The engine
    mutex is held throughout, so no concurrent writer tears the image.
    Serving managers attached to ``db`` are not saved.
    """
    with db.mutex:
        db.commit()
        payload = pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL)
    target = Path(path)
    with open(target, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_VERSION.to_bytes(4, "little"))
        handle.write(payload)
    return len(_MAGIC) + 4 + len(payload)


def load(path: str | Path) -> Prima:
    """Restore a PRIMA instance checkpointed by :func:`save`."""
    source = Path(path)
    if not source.exists():
        raise PrimaError(f"no database file at {source}")
    with open(source, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise PrimaError(f"{source} is not a PRIMA database file")
        version = int.from_bytes(handle.read(4), "little")
        if version != _VERSION:
            raise PrimaError(
                f"{source} has format version {version}; this build reads "
                f"version {_VERSION}"
            )
        db = pickle.load(handle)
    if not isinstance(db, Prima):
        raise PrimaError(f"{source} does not contain a PRIMA instance")
    return db
