"""Order statistics the harness reports: medians, the tail rule, spreads.

Everything here is pure arithmetic on lists of floats, so the rules the
README states (which percentile counts as "the tail", what "spread"
means) are checked by tests without building a database.
"""

from __future__ import annotations

import math
from statistics import median  # noqa: F401 - the harness's one median
from typing import Sequence

#: Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def _rank(count: int, pct: float) -> int:
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - _rank(count, pct)


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest candidate percentile that
    still has :data:`MIN_SAMPLES_BEYOND` samples beyond it; ``None`` when
    even the lowest candidate has fewer."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(len(samples), pct) >= MIN_SAMPLES_BEYOND:
            return pct, percentile(samples, pct)
    return None


def better_half_spread(values: Sequence[float], better: str) -> float:
    """How far the better half of a run's repeats (passes, set-ups) lie
    apart, as a share of the best: the run's own noise estimate.  The
    worse half is left out because a disturbed machine only ever adds
    time, which is also why the gated figures come from the best pass."""
    ordered = sorted(values, reverse=(better == "higher"))
    half = ordered[:max(2, (len(ordered) + 1) // 2)]
    return abs(half[-1] - half[0]) / abs(half[0])
