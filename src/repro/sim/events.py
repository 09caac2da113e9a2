"""Job-end events and a deterministic event queue.

Arrivals come off the episode's cursor over its loaded jobs, so the
heap holds only the ENDs of started jobs. Events are ordered by
``(time, sequence)``: the insertion sequence breaks ties at equal
timestamps deterministically.
"""

from __future__ import annotations

import heapq

from repro.workload.job import Job

__all__ = ["Event", "EventQueue"]


class Event:
    """The end of ``job`` at ``time``; never changed once pushed."""

    __slots__ = ("time", "job")

    def __init__(self, time: float, job: Job) -> None:
        if time < 0:
            raise ValueError("event time must be non-negative")
        self.time = time
        self.job = job


class EventQueue:
    """Binary-heap event queue with deterministic tie-breaking.

    Entries are tuples whose first item is the time and last the event;
    :meth:`push` decides what sits between them.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)[-1]

    def peek(self) -> Event:
        if not self._heap:
            raise IndexError("peek at empty event queue")
        return self._heap[0][-1]

    def peek_time(self) -> float:
        return self._heap[0][0]

    def pop_simultaneous(self) -> list[Event]:
        """Pop every event sharing the head timestamp, in heap order.

        The simulator processes all state changes at one instant before
        invoking the scheduler once — matching CQSim's trigger model.
        """
        if not self._heap:
            raise IndexError("pop from empty event queue")
        t = self._heap[0][0]
        batch = []
        while self._heap and self._heap[0][0] == t:
            batch.append(heapq.heappop(self._heap)[-1])
        return batch

    def snapshot(self) -> tuple[list[tuple], int]:
        """Copy of the heap and insertion counter.

        Nothing changes an event once pushed, so a shallow list copy
        preserves exact ordering (including the insertion-sequence
        tie-break); the jobs they reference are *not* copied — callers
        snapshotting a simulation must capture mutable job state
        separately.
        """
        return list(self._heap), self._seq

    def restore(self, snap: tuple[list[tuple], int]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        heap, seq = snap
        self._heap = list(heap)
        self._seq = seq

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
