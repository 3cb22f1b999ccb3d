"""Fetch-size auto-tuning from the network cost model.

A streaming cursor pays ``per_message_ms`` of fixed software overhead
for every FETCH round trip and holds up to ``2 * fetch_size`` molecules
in flight (double buffering) — so the batch size trades *per-message
overhead* against *in-flight construction*: too small and the fixed
message cost dominates (the record-at-a-time failure mode of benchmark
A9), too large and an abandoning client has paid for up to two oversized
batches of molecule construction it never consumes, and the first
molecule's latency grows with the batch.

The static ``fetch_size`` knob was a guess; :func:`tune_fetch_size`
derives the batch size from the :class:`~repro.obs.network.NetworkModel`
itself.  Pick the smallest ``f`` whose fixed overhead is at most
``target_overhead`` of the whole message service time::

    per_message_ms <= target_overhead * (per_message_ms + f*row/bw)

i.e. ``f >= per_message_ms * bw * (1 - t) / (t * row_bytes)``.  The
result is clamped: ``min_size`` keeps degenerate tiny batches off the
wire, ``max_size`` bounds speculative construction (and client memory)
for abandoning consumers.

The server applies this adaptively: an ``"auto"`` OPEN fetches a small
*probe* batch, measures the mean encoded molecule size of the actual
result, and answers with the tuned size for all subsequent FETCHes (the
:class:`~repro.serve.protocol.OpenReply` carries it back).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.network import NetworkModel

#: First-batch size of an ``"auto"`` cursor: big enough to estimate the
#: molecule wire size, small enough that a tiny LIMIT query never
#: overshoots by much.
AUTO_PROBE_SIZE = 32

#: Fraction of a FETCH round trip the fixed per-message overhead may
#: consume at the tuned size.
TARGET_OVERHEAD = 0.2

#: Clamp bounds of the tuned size.
MIN_FETCH_SIZE = 8
MAX_FETCH_SIZE = 256


def tune_fetch_size(model: "NetworkModel", row_bytes: float,
                    target_overhead: float = TARGET_OVERHEAD,
                    min_size: int = MIN_FETCH_SIZE,
                    max_size: int = MAX_FETCH_SIZE) -> int:
    """The batch size balancing message overhead against in-flight work.

    ``row_bytes`` is the (estimated) encoded wire size of one molecule;
    the probe batch of an ``"auto"`` open supplies it from the actual
    result stream.
    """
    if row_bytes <= 0:
        return max_size
    if not 0 < target_overhead < 1:
        raise ValueError("target_overhead must be in (0, 1)")
    ideal = (model.per_message_ms * model.bytes_per_ms
             * (1 - target_overhead) / (target_overhead * row_bytes))
    return max(min_size, min(max_size, int(ideal)))
