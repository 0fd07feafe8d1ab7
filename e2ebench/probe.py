#!/usr/bin/env python3
"""Host-speed probe: seconds a fixed pure-Python loop takes right now.

The harness runs this file as a fresh interpreter (``python3 -I
probe.py``), so the probe shares no heap, modules or collector state with
the simulator.  It prints the time of :func:`probe` on standard output.
"""

from __future__ import annotations

import gc
import heapq
import mmap
import time

_PROBE_BYTES = 1 << 23


class _Item:
    __slots__ = ("key", "ref")

    def __init__(self, key, ref) -> None:
        self.key = key
        self.ref = ref


def probe() -> float:
    """Time heap, object and dict work like the simulator's hot path,
    then writes scattered over 8 MiB, so that the figure follows both the
    interpreter's and the memory system's speed."""
    heap: list = []
    counts: dict = {}
    gc.disable()
    t0 = time.perf_counter()
    for i in range(60_000):
        heapq.heappush(heap, (i * 7919 % 10007, i, _Item(i, counts)))
        counts[i & 4095] = counts.get(i & 4095, 0) + 1
        if len(heap) > 512:
            heapq.heappop(heap)
    with mmap.mmap(-1, _PROBE_BYTES) as buf:
        x = 12345
        for _ in range(150_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            buf[x & (_PROBE_BYTES - 1)] ^= 1
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(probe()))
