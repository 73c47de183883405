"""A fixed reference workload that measures how fast the host runs now.

The benchmark's host shares its cores with other machines' work, and its
speed drifts by a third or more over seconds to minutes.  An untraced
scenario process runs one probe chunk between every two of ``SLICES``
steps of its run (``execute.py``); the host times it reports are then
scaled to a fixed reference speed (:func:`scale`), so runs that land in
a slow and a fast phase report close figures.  A probe timed only before
and after the run does not track the run's speed; one interleaved with
it does.

The probe is the benchmark's own code and imports nothing from the
program, so a change to the program cannot move it.  Like the simulator
it is pure-Python heap, dict and float work.
"""

from __future__ import annotations

import heapq
import math
import time

#: Steps of simulated time a probed run advances in.
SLICES = 50

#: Heap operations in one probe chunk (about 15 ms on the reference host).
CHUNK_OPS = 10_000

#: Mean seconds of one chunk on the reference host: a 2-core Xeon cloud
#: VM at 2.0 GHz, CPython 3.11.  Only ratios of scaled times carry
#: meaning; the constant just keeps them near what that host measures.
REFERENCE_CHUNK_S = 0.015


def _chunk() -> float:
    heap: list = []
    buckets: dict = {}
    total = 0.0
    for i in range(CHUNK_OPS):
        heapq.heappush(heap, (((i * 7919) % 1009) * 0.001, i))
        if len(heap) > 64:
            when, key = heapq.heappop(heap)
            slot = key & 255
            buckets[slot] = buckets.get(slot, 0.0) + when
            total += math.exp(-when)
    return total


def chunk_s() -> float:
    """Seconds one probe chunk takes now."""
    began = time.perf_counter()
    _chunk()
    return time.perf_counter() - began


def scale(host_s: float, mean_chunk_s: float) -> float:
    """``host_s``, measured while a probe chunk took ``mean_chunk_s`` on
    average, as it would read on the reference host."""
    return host_s * REFERENCE_CHUNK_S / mean_chunk_s
