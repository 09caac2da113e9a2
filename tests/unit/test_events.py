"""Tests for the event queue (with hypothesis ordering property).

The simulator's heap holds only job ENDs, ordered by time and insertion;
the queue that also carried SUBMITs, ENDs first at equal times, is the
oracle's :class:`~tests.unit._sim_reference.KindedEventQueue`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue
from tests.conftest import make_job
from tests.unit._sim_reference import EventKind, KindedEventQueue, Submit, kind_of


def ev(time: float) -> Event:
    return Event(time, make_job())


def kinded(time: float, kind: EventKind):
    """An oracle event: a :class:`Submit`, or the simulator's END."""
    return (Submit if kind is EventKind.SUBMIT else Event)(time, make_job())


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ev(-1.0)
        with pytest.raises(ValueError):
            Submit(-1.0, make_job())


class TestQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        for t in (5.0, 1.0, 3.0):
            q.push(ev(t))
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_end_before_submit_at_same_time(self):
        q = KindedEventQueue()
        q.push(kinded(10.0, EventKind.SUBMIT))
        q.push(kinded(10.0, EventKind.END))
        assert kind_of(q.pop()) is EventKind.END
        assert kind_of(q.pop()) is EventKind.SUBMIT

    def test_insertion_order_breaks_ties(self):
        q = EventQueue()
        a, b = make_job(job_id=1), make_job(job_id=2)
        q.push(Event(5.0, a))
        q.push(Event(5.0, b))
        assert q.pop().job.job_id == 1
        assert q.pop().job.job_id == 2

    def test_pop_simultaneous(self):
        q = EventQueue()
        first, second = ev(1.0), ev(1.0)
        q.push(first)
        q.push(second)
        q.push(ev(2.0))
        batch = q.pop_simultaneous()
        assert batch == [first, second]
        assert len(q) == 1

    def test_pop_simultaneous_puts_ends_first_in_the_oracle(self):
        q = KindedEventQueue()
        q.push(kinded(1.0, EventKind.SUBMIT))
        q.push(kinded(1.0, EventKind.END))
        q.push(kinded(2.0, EventKind.SUBMIT))
        batch = q.pop_simultaneous()
        assert [kind_of(e) for e in batch] == [EventKind.END, EventKind.SUBMIT]
        assert len(q) == 1

    def test_empty_operations_raise(self):
        q = EventQueue()
        with pytest.raises(IndexError):
            q.pop()
        with pytest.raises(IndexError):
            q.peek()
        with pytest.raises(IndexError):
            q.pop_simultaneous()

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(ev(1.0))
        assert q.peek().time == 1.0
        assert len(q) == 1
        assert q.peek_time() == 1.0

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(ev(1.0))
        assert q


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
def test_pop_order_property(times):
    q = EventQueue()
    for t in times:
        q.push(ev(t))
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(times)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0), st.sampled_from(list(EventKind))),
        min_size=1,
        max_size=40,
    )
)
def test_simultaneous_batches_cover_everything(items):
    q = KindedEventQueue()
    for t, kind in items:
        q.push(kinded(t, kind))
    total = 0
    last_time = -1.0
    while q:
        batch = q.pop_simultaneous()
        assert len({e.time for e in batch}) == 1
        assert batch[0].time > last_time
        last_time = batch[0].time
        # Within a batch, ENDs precede SUBMITs.
        kinds = [kind_of(e) for e in batch]
        assert kinds == sorted(kinds)
        total += len(batch)
    assert total == len(items)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=40))
def test_simultaneous_batches_keep_insertion_order(times):
    q = EventQueue()
    events = [ev(t) for t in times]
    for event in events:
        q.push(event)
    while q:
        batch = q.pop_simultaneous()
        assert batch == [e for e in events if e.time == batch[0].time]
