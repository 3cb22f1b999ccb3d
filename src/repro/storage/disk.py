"""Simulated disk and file manager.

The original PRIMA ran on the file manager of the INCAS operating system
[Ne87], which supported exactly five block sizes and a *cluster mechanism*
enabling optimal transfer of whole page sequences, e.g. by chained I/O.

This module substitutes that hardware/OS substrate with a byte-accurate,
deterministic simulation:

* blocks are real ``bytes`` buffers, organised into named files, each file
  having one fixed block size;
* every transfer is accounted (block and byte counters) and charged against
  a simple service-time model (seek + rotational latency + transfer time);
* *chained I/O* reads a run of consecutive blocks paying the positioning
  cost only once, which is precisely the benefit the paper attributes to
  the file manager's cluster mechanism.

The cost model's absolute numbers are loosely calibrated to a late-1980s
disk (they only matter relatively).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.constants import check_page_size
from repro.util.stats import Counters


@dataclass(frozen=True)
class DiskGeometry:
    """Service-time parameters of the simulated device (milliseconds)."""

    #: Average positioning (seek) time paid when access is not sequential.
    seek_ms: float = 16.0
    #: Average rotational latency paid per positioning.
    rotation_ms: float = 8.3
    #: Transfer rate in bytes per millisecond (~1.25 MB/s, ESDI class).
    transfer_bytes_per_ms: float = 1250.0
    #: Fixed software/controller overhead charged once per I/O *request*
    #: (a chained request moves many blocks but pays this only once —
    #: the benefit of the file manager's cluster mechanism beyond pure
    #: contiguity).
    request_overhead_ms: float = 2.0

    def transfer_ms(self, nbytes: int) -> float:
        """Pure transfer time for ``nbytes`` bytes."""
        return nbytes / self.transfer_bytes_per_ms

    def access_ms(self, nbytes: int, sequential: bool) -> float:
        """Full service time for one request of ``nbytes`` bytes."""
        positioning = 0.0 if sequential else self.seek_ms + self.rotation_ms
        return positioning + self.transfer_ms(nbytes)


class DiskFile:
    """One file of fixed block size on the simulated disk."""

    __slots__ = ("name", "block_size", "_blocks")

    def __init__(self, name: str, block_size: int) -> None:
        self.name = name
        self.block_size = check_page_size(block_size)
        self._blocks: dict[int, bytes] = {}

    @property
    def block_count(self) -> int:
        """Number of blocks ever written (files never shrink)."""
        return len(self._blocks)

    def block_numbers(self) -> list[int]:
        return sorted(self._blocks)


class SimulatedDisk:
    """File manager over a simulated device with full I/O accounting.

    Counters maintained (all monotonic):

    ``blocks_read`` / ``blocks_written``
        number of block transfers in each direction,
    ``bytes_read`` / ``bytes_written``
        byte volume of those transfers,
    ``seeks``
        number of non-sequential positionings paid,
    ``chained_reads``
        number of chained-I/O read requests served.

    ``io_time_ms`` accumulates the simulated service time.
    """

    def __init__(self, geometry: DiskGeometry | None = None,
                 counters: Counters | None = None) -> None:
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self.counters = counters if counters is not None else Counters()
        self.io_time_ms: float = 0.0
        self._files: dict[str, DiskFile] = {}
        # (file name, block no) of the block accessed last, for detecting
        # sequential access.  A real disk has one arm; so does this one.
        self._head: tuple[str, int] | None = None

    # -- file management ----------------------------------------------------

    def create_file(self, name: str, block_size: int) -> DiskFile:
        """Create a new file of the given (validated) block size."""
        if name in self._files:
            raise StorageError(f"disk file {name!r} already exists")
        handle = DiskFile(name, block_size)
        self._files[name] = handle
        return handle

    def drop_file(self, name: str) -> None:
        """Delete a file and all its blocks."""
        if name not in self._files:
            raise StorageError(f"disk file {name!r} does not exist")
        del self._files[name]
        if self._head is not None and self._head[0] == name:
            self._head = None

    def file(self, name: str) -> DiskFile:
        """Look up a file handle by name."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"disk file {name!r} does not exist") from None

    def file_names(self) -> list[str]:
        return sorted(self._files)

    # -- single-block transfers ---------------------------------------------

    def read_block(self, name: str, block_no: int) -> bytes:
        """Read one block; raises if the block was never written."""
        handle = self.file(name)
        try:
            data = handle._blocks[block_no]
        except KeyError:
            raise StorageError(
                f"block {block_no} of file {name!r} was never written"
            ) from None
        self.io_time_ms += self.geometry.request_overhead_ms
        self._account("read", name, block_no, handle.block_size, chained=False)
        return data

    def write_block(self, name: str, block_no: int, data: bytes) -> None:
        """Write one block; ``data`` must be exactly one block long."""
        handle = self.file(name)
        if len(data) != handle.block_size:
            raise StorageError(
                f"block write of {len(data)} bytes to file {name!r} with "
                f"block size {handle.block_size}"
            )
        handle._blocks[block_no] = bytes(data)
        self.io_time_ms += self.geometry.request_overhead_ms
        self._account("written", name, block_no, handle.block_size, chained=False)

    # -- chained I/O ----------------------------------------------------------

    def read_chained(self, name: str, block_nos: list[int]) -> list[bytes]:
        """Read many blocks in one request (the cluster mechanism).

        Blocks are transferred in the given order; each maximal run of
        consecutive block numbers pays positioning cost only once.
        """
        handle = self.file(name)
        out: list[bytes] = []
        for block_no in block_nos:
            if block_no not in handle._blocks:
                raise StorageError(
                    f"block {block_no} of file {name!r} was never written"
                )
        for index, block_no in enumerate(block_nos):
            first_of_run = index == 0 or block_no != block_nos[index - 1] + 1
            self._account("read", name, block_no, handle.block_size,
                          chained=not first_of_run)
            out.append(handle._blocks[block_no])
        if block_nos:
            self.io_time_ms += self.geometry.request_overhead_ms
            self.counters.bump("chained_reads")
        return out

    # -- accounting -----------------------------------------------------------

    def _account(self, direction: str, name: str, block_no: int,
                 nbytes: int, chained: bool) -> None:
        sequential = chained or self._head == (name, block_no - 1)
        if not sequential:
            self.counters.bump("seeks")
        self.io_time_ms += self.geometry.access_ms(nbytes, sequential)
        self.counters.bump(f"blocks_{direction}")
        self.counters.bump(f"bytes_{direction}", nbytes)
        self._head = (name, block_no)

    def reset_accounting(self) -> None:
        """Zero all counters and the simulated clock (blocks are kept)."""
        self.counters.reset()
        self.io_time_ms = 0.0
        self._head = None
