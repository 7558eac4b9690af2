"""A fixed reference workload that gauges how fast the host runs Python now.

The benchmark runs on shared machines whose speed drifts by up to 2.5x
over seconds to minutes, in CPU time as well as in wall time (other tenants
compete for the same cores, caches and memory bandwidth).  No measured host
time of the program can be steadier than that drift.  So the benchmark
times this kernel between its measured units, all through a run, and
scales the run's host times by how much slower than nominal the kernel ran
over the same period.

The kernel is self-contained, deterministic, and shares no code with the
program under test: a change to the program never changes the kernel, so
it never cancels out of a normalised metric.  It mimics what the simulator
spends its time on -- a heap of timestamped events, small slotted objects,
dict lookups, list appends and method calls -- over a working set of a few
MiB.  The working set is built once and kept, so that a reading does not
depend on how the program left the memory allocator.
"""

from __future__ import annotations

import gc
import heapq
import time
from concurrent.futures import Executor
from statistics import median
from typing import Dict, List, Tuple

#: Nominal seconds of one kernel call, chosen so that normalised figures
#: match the raw ones an idle 2-vCPU Intel Xeon (2.1 GHz, CPython 3.11.7)
#: gives.  Normalised figures are per second of that nominal host.
NOMINAL_S = 0.0125

#: Actors, events resident in the heap, and events processed per call.
ACTORS = 2048
RESIDENT = 12_000
STEPS = 8_000


class Actor:
    __slots__ = ("pid", "inbox", "seen", "clock", "peers")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.inbox: List[Tuple[int, int, float]] = []
        self.seen: Dict[int, float] = {}
        self.clock = 0.0
        self.peers = tuple((pid * 7919 + k * 104_729) % ACTORS for k in range(5))

    def receive(self, number: int, at: float) -> int:
        self.clock = at if at > self.clock else self.clock
        self.inbox.append((self.pid, number, at))
        if len(self.inbox) > 48:
            del self.inbox[:16]
        previous = self.seen.get(number)
        self.seen[number] = at
        return self.peers[number % len(self.peers)] if previous is None else -1


def _world() -> Tuple[List[Actor], List[Tuple[float, int, int, int]]]:
    actors = [Actor(pid) for pid in range(ACTORS)]
    state = 12345
    heap: List[Tuple[float, int, int, int]] = []
    for seq in range(RESIDENT):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heap.append((state / 2**31 * 100.0, seq, state % ACTORS, state % 100_003))
    heapq.heapify(heap)
    return actors, heap


#: The kernel's world, built on first use and kept.
_WORLD: List[Tuple[List[Actor], List[Tuple[float, int, int, int]]]] = []


def world() -> Tuple[List[Actor], List[Tuple[float, int, int, int]]]:
    if not _WORLD:
        _WORLD.append(_world())
    return _WORLD[0]


def kernel() -> int:
    """One fixed unit of simulator-like work; returns a checksum."""
    actors, resident = world()
    for actor in actors:
        actor.inbox.clear()
        actor.seen.clear()
        actor.clock = 0.0
    heap = list(resident)
    push, pop = heapq.heappush, heapq.heappop
    seq = RESIDENT
    total = 0
    for _ in range(STEPS):
        at, _seq, pid, number = pop(heap)
        target = actors[pid].receive(number, at)
        seq += 1
        if target >= 0:
            push(heap, (at + 0.5 + (seq % 7) * 0.25, seq, target, number))
            total += target
        else:
            push(heap, (at + 3.0, seq, (pid + 1) % ACTORS, (number * 31 + 7) % 100_003))
    return total + len(heap)


#: The checksum every kernel call must return (computed on first use).
_CHECKSUM: List[int] = []


def timed_kernel() -> float:
    """CPU seconds of one kernel call, with the garbage collector paused so
    that the size of the caller's heap does not leak in."""
    world()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        checksum = kernel()
        elapsed = time.thread_time() - started
    finally:
        if enabled:
            gc.enable()
    if not _CHECKSUM:
        _CHECKSUM.append(checksum)
    if checksum != _CHECKSUM[0]:
        raise RuntimeError("the calibration kernel returned a different checksum")
    return elapsed


class HostGauge:
    """Readings of the kernel spread over a run, and the slowdown they show.

    ``slowdown()`` is the median reading over ``NOMINAL_S``: 1.0 on the
    nominal host, 2.0 when the host ran Python half as fast.  A rate
    measured over the same run is normalised by multiplying it by the
    slowdown, a time by dividing it.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> None:
        self.readings.append(timed_kernel())

    def read_in(self, executor: Executor, count: int) -> None:
        """Take ``count`` readings at once in ``executor``'s worker processes."""
        futures = [executor.submit(timed_kernel) for _ in range(count)]
        self.readings.extend(future.result() for future in futures)

    def slowdown(self) -> float:
        if not self.readings:
            raise RuntimeError("no calibration readings")
        return median(self.readings) / NOMINAL_S
