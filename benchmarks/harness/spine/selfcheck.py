"""``selfcheck``: can the harness see a slowdown, and does it blame the
right layer?

From this process only, ``decode_atom`` is wrapped at every module that
imported it, and each call is padded with a busy-wait sized so that one
``brep_scan.embedded`` operation takes :data:`SLOWDOWN` longer (that share
of its p50, spread over the decode calls one operation makes).  Plain and
padded passes (and ladder rounds) alternate, so a disturbance of the
machine hits both sides alike.  Then:

* ``brep_scan.embedded`` ``p50_ms`` must worsen beyond its bound;
* ``wisc_point.daemon`` ``p50_ms`` (one decode per op) must stay within
  its bound;
* the ladder must book the loss to ``access.self_ms_per_op`` and to no
  other layer.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator

import repro.access
import repro.access.atoms
import repro.access.cluster
import repro.access.encoding
import repro.access.partition
import repro.access.sort_order

from . import ladder, stats
from .measure import END_TO_END, PASSES, EndToEnd
from .workloads import WORKLOADS

#: Every module holding its own reference to ``decode_atom``.
IMPORT_SITES = (repro.access.encoding, repro.access, repro.access.atoms,
                repro.access.cluster, repro.access.partition,
                repro.access.sort_order)
#: The injected slowdown, as a share of the sensitive workload's p50: one
#: and a half times the p50 bound, so that catching it is not a coin toss.
SLOWDOWN = 1.5 * END_TO_END["p50_ms"][2]
#: Seconds each side of each workload, and of the ladder, is measured for.
SECONDS = 10.0
#: Of the latency the injection costs, the access layer must be booked at
#: least this share and every other layer at most the rest.
ATTRIBUTION = 0.80
SENSITIVE, INSENSITIVE = "brep_scan.embedded", "wisc_point.daemon"


@contextlib.contextmanager
def wrapped_decode(wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``decode_atom`` at its import sites for the duration."""
    real = repro.access.encoding.decode_atom
    replacement = wrap(real)
    try:
        for module in IMPORT_SITES:
            module.decode_atom = replacement
        yield
    finally:
        for module in IMPORT_SITES:
            module.decode_atom = real


def padded(delay: float) -> Callable[[Callable], Callable]:
    """A wrapper that spins for ``delay`` seconds after every call."""
    def wrap(real):
        clock = time.perf_counter

        def decode_atom(payload):
            values = real(payload)
            until = clock() + delay
            while clock() < until:
                pass
            return values
        return decode_atom
    return wrap


def counted(calls: list[int]) -> Callable[[Callable], Callable]:
    """A wrapper that counts calls into ``calls[0]``."""
    def wrap(real):
        def decode_atom(payload):
            calls[0] += 1
            return real(payload)
        return decode_atom
    return wrap


def main(seed: int) -> int:
    """Run the check; prints its findings, returns the exit code."""
    bound = END_TO_END["p50_ms"][2]
    names = (SENSITIVE, INSENSITIVE)
    sides = ("plain", "padded")
    runs = {(name, side): EndToEnd(WORKLOADS[name], seed)
            for name in names for side in sides}
    ladders = {}
    try:
        for run in runs.values():
            run.set_up()
        # Calibrate on the sensitive workload: its p50, and how often one
        # of its operations decodes.
        calls = [0]
        with wrapped_decode(counted(calls)):
            runs[SENSITIVE, "plain"].run_pass(1.0)
        tally = runs[SENSITIVE, "plain"].passes.pop()
        p50 = stats.median(tally.latencies)
        per_op = calls[0] / tally.attempted
        delay = SLOWDOWN * p50 / per_op
        print(f"padding each of {per_op:.0f} decode_atom calls per "
              f"{SENSITIVE} op by {delay * 1e6:.2f} us "
              f"({SLOWDOWN:.0%} of its {p50 * 1e3:.2f} ms p50)")
        injected = {"plain": contextlib.nullcontext,
                    "padded": lambda: wrapped_decode(padded(delay))}

        for _ in range(PASSES):
            for side in sides:
                with injected[side]():
                    for name in names:
                        runs[name, side].run_pass(SECONDS / PASSES)
        for side in sides:
            ladders[side] = ladder.Ladder(WORKLOADS[SENSITIVE], seed)
            with injected[side]():
                ladders[side].round(-1)
        deadline = time.perf_counter() + 2 * SECONDS
        round_no = 0
        while round_no == 0 or time.perf_counter() < deadline:
            for side in sides:
                with injected[side]():
                    ladders[side].round(round_no)
            round_no += 1
        e2e = {key: run.result() for key, run in runs.items()}
        with injected["plain"]():
            layers = {"plain": ladders["plain"].result()}
        with injected["padded"]():
            layers["padded"] = ladders["padded"].result()
    finally:
        for run in runs.values():
            run.close()
        for each in ladders.values():
            each.close()

    ok = all(r["failed"] == 0 for r in (*e2e.values(), *layers.values()))
    if not ok:
        print("  FAIL operations failed during the check")

    def verdict(label: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"  {'ok  ' if passed else 'FAIL'} {label}")

    for name, must_move in ((SENSITIVE, True), (INSENSITIVE, False)):
        a = e2e[name, "plain"]["metrics"]["p50_ms"]
        b = e2e[name, "padded"]["metrics"]["p50_ms"]
        verdict(f"{name} p50_ms {a:.4f} -> {b:.4f} ms (x{b / a:.3f} of "
                f"the plain {a:.4f}; bound {bound:.0%}): "
                f"{'must' if must_move else 'must not'} worsen beyond it",
                (b / a - 1.0 > bound) == must_move)
    top = WORKLOADS[SENSITIVE].top
    loss = layers["padded"]["rung_median_ms"][top] \
        - layers["plain"]["rung_median_ms"][top]
    for name, (rung, _below) in ladder.SELF_TIME.items():
        if rung not in WORKLOADS[SENSITIVE].rungs:
            continue
        delta = layers["padded"]["metrics"][name] \
            - layers["plain"]["metrics"][name]
        share = delta / loss if loss > 0 else 0.0
        if name == "access.self_ms_per_op":
            verdict(f"{name} took {delta:+.3f} of the {loss:+.3f} ms lost "
                    f"per op ({share:.0%}; needs >= {ATTRIBUTION:.0%})",
                    share >= ATTRIBUTION)
        else:
            verdict(f"{name} took {delta:+.3f} ms ({share:.0%}; allowed "
                    f"within +-{1 - ATTRIBUTION:.0%})",
                    abs(share) <= 1 - ATTRIBUTION)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1
