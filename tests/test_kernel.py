"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.simnet.kernel import EventKernel, TimerGroup


def test_clock_starts_at_zero():
    k = EventKernel()
    assert k.now == 0.0


def test_call_after_orders_by_time():
    k = EventKernel()
    seen = []
    k.call_after(2.0, lambda: seen.append("b"))
    k.call_after(1.0, lambda: seen.append("a"))
    k.call_after(3.0, lambda: seen.append("c"))
    k.run()
    assert seen == ["a", "b", "c"]
    assert k.now == 3.0


def test_simultaneous_events_run_in_insertion_order():
    k = EventKernel()
    seen = []
    for i in range(5):
        k.call_at(1.0, lambda i=i: seen.append(i))
    k.run()
    assert seen == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_insertion_order():
    k = EventKernel()
    seen = []
    k.call_at(1.0, lambda: seen.append("low"), priority=2)
    k.call_at(1.0, lambda: seen.append("high"), priority=0)
    k.run()
    assert seen == ["high", "low"]


def test_cannot_schedule_in_the_past():
    k = EventKernel()
    k.call_after(1.0, lambda: None)
    k.run()
    with pytest.raises(SimulationError):
        k.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    k = EventKernel()
    with pytest.raises(SimulationError):
        k.call_after(-1.0, lambda: None)


def test_timer_cancellation():
    k = EventKernel()
    seen = []
    t = k.call_after(1.0, lambda: seen.append("x"))
    t.cancel()
    k.call_after(2.0, lambda: seen.append("y"))
    k.run()
    assert seen == ["y"]


def test_run_until_bound_advances_clock_exactly():
    k = EventKernel()
    seen = []
    k.call_after(10.0, lambda: seen.append("late"))
    k.run(until=5.0)
    assert k.now == 5.0
    assert seen == []
    k.run(until=20.0)
    assert seen == ["late"]
    assert k.now == 20.0


def test_run_until_bound_with_empty_heap_advances_clock():
    k = EventKernel()
    k.run(until=7.0)
    assert k.now == 7.0


def test_nested_scheduling_from_callbacks():
    k = EventKernel()
    seen = []

    def outer():
        seen.append(("outer", k.now))
        k.call_after(1.5, inner)

    def inner():
        seen.append(("inner", k.now))

    k.call_after(1.0, outer)
    k.run()
    assert seen == [("outer", 1.0), ("inner", 2.5)]


def test_run_is_not_reentrant():
    k = EventKernel()

    def recurse():
        with pytest.raises(SimulationError):
            k.run()

    k.call_after(1.0, recurse)
    k.run()


def test_max_events_guard():
    k = EventKernel()

    def loop():
        k.call_after(0.0, loop)

    k.call_after(0.0, loop)
    with pytest.raises(SimulationError):
        k.run(max_events=100)


def test_event_wakes_all_waiters_with_value():
    k = EventKernel()
    ev = k.event()
    got = []
    ev.add_callback(lambda v: got.append(("a", v)))
    ev.add_callback(lambda v: got.append(("b", v)))
    k.call_after(3.0, lambda: ev.succeed(42))
    k.run()
    assert got == [("a", 42), ("b", 42)]
    assert ev.fired and ev.value == 42


def test_event_late_waiter_fires_immediately():
    k = EventKernel()
    ev = k.event()
    k.call_after(1.0, lambda: ev.succeed("v"))
    k.run()
    got = []
    ev.add_callback(got.append)
    k.run()
    assert got == ["v"]


def test_event_double_fire_raises():
    k = EventKernel()
    ev = k.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_fire_raises():
    k = EventKernel()
    ev = k.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_pending_and_peek():
    k = EventKernel()
    assert k.peek() is None
    t1 = k.call_after(5.0, lambda: None)
    k.call_after(9.0, lambda: None)
    assert k.pending() == 2
    assert k.peek() == 5.0
    t1.cancel()
    assert k.pending() == 1
    assert k.peek() == 9.0


def test_events_processed_counter():
    k = EventKernel()
    for _ in range(7):
        k.call_after(1.0, lambda: None)
    k.run()
    assert k.events_processed == 7


# ----------------------------------------------------------------------
# regression: peek() must discard cancelled tops lazily, not sort the
# whole heap per call
# ----------------------------------------------------------------------
def test_peek_discards_cancelled_tops():
    k = EventKernel()
    doomed = [k.call_after(float(i + 1), lambda: None) for i in range(50)]
    survivor = k.call_after(100.0, lambda: None)
    for t in doomed:
        t.cancel()
    assert k.peek() == 100.0
    # the cancelled tops were popped on the way to the answer, so the
    # heap holds exactly the one live entry — a second peek is O(1)
    assert len(k._heap) == 1
    assert k.pending() == 1
    survivor.cancel()
    assert k.peek() is None
    assert k.pending() == 0


def test_peek_preserves_run_semantics():
    """Peeking must not perturb what run() subsequently executes."""
    k = EventKernel()
    seen = []
    t = k.call_after(1.0, lambda: seen.append("dead"))
    k.call_after(2.0, lambda: seen.append("live"))
    t.cancel()
    assert k.peek() == 2.0
    k.run()
    assert seen == ["live"]
    assert k.now == 2.0


# ----------------------------------------------------------------------
# regression: max_events admits exactly max_events events, not one more
# ----------------------------------------------------------------------
def test_max_events_is_exact():
    k = EventKernel()
    ran = []

    def loop():
        ran.append(k.now)
        k.call_after(1.0, loop)

    k.call_after(0.0, loop)
    with pytest.raises(SimulationError):
        k.run(max_events=5)
    assert len(ran) == 5  # used to run 6 before raising


def test_max_events_allows_exactly_that_many():
    """A run needing exactly N events must not trip an N-event valve."""
    k = EventKernel()
    for i in range(5):
        k.call_after(float(i), lambda: None)
    assert k.run(max_events=5) == 4.0


def test_max_events_ignores_cancelled_entries():
    k = EventKernel()
    for i in range(10):
        k.call_after(float(i), lambda: None).cancel()
    k.call_after(99.0, lambda: None)
    # ten dead entries precede the one live event; only the live one
    # counts against the valve
    k.run(max_events=1)
    assert k.now == 99.0


# ----------------------------------------------------------------------
# stress: peek()/pending() under heavy lazy cancellation
# ----------------------------------------------------------------------
def test_peek_pending_under_heavy_cancellation():
    k = EventKernel(compact_min=64)
    import random

    rng = random.Random(7)
    live: dict[int, object] = {}
    fired = []
    for i in range(5000):
        when = rng.uniform(0.0, 1000.0)
        live[i] = (when, k.call_at(when, lambda i=i: fired.append(i)))
        if rng.random() < 0.9 and live:
            j = rng.choice(list(live))
            _w, t = live.pop(j)
            t.cancel()
        # the live count and next-event time must match a ground-truth
        # scan at every step, compactions and lazy pops included
        assert k.pending() == len(live)
        expected_next = min((w for w, _t in live.values()), default=None)
        assert k.peek() == expected_next
    k.run()
    assert sorted(fired) == sorted(live)
    assert k.pending() == 0
    # the 90% cancellation rate must actually have exercised compaction
    assert k.compactions > 0


def test_double_cancel_keeps_pending_consistent():
    k = EventKernel()
    t = k.call_after(1.0, lambda: None)
    k.call_after(2.0, lambda: None)
    t.cancel()
    t.cancel()  # idempotent: must not decrement the live count twice
    assert k.pending() == 1
    k.run()
    assert k.pending() == 0


# ----------------------------------------------------------------------
# TimerGroup: one owner's live timers, cancelled together
# ----------------------------------------------------------------------
def test_timer_group_holds_exactly_its_live_timers():
    k = EventKernel()
    group = TimerGroup(k)
    seen = []
    group.call_after(1.0, lambda: seen.append("fired"))
    doomed = group.call_after(2.0, lambda: seen.append("doomed"))
    group.call_at(3.0, lambda: seen.append("kept"))
    k.call_after(4.0, lambda: seen.append("unowned"))
    assert len(group) == 3
    doomed.cancel()
    assert len(group) == 2
    k.run(until=1.5)
    assert seen == ["fired"] and len(group) == 1
    group.cancel_all()
    assert len(group) == 0
    assert k.pending() == 1  # the unowned timer is not the group's
    k.run()
    assert seen == ["fired", "unowned"]


def test_timer_group_validates_and_survives_cancel_after_fire():
    k = EventKernel()
    group = TimerGroup(k)
    with pytest.raises(SimulationError):
        group.call_after(-1.0, lambda: None)
    fired = group.call_after(1.0, lambda: None)
    k.run()
    fired.cancel()  # a spent handle: no effect on the counts
    assert len(group) == 0 and k.pending() == 0


def test_timer_group_timer_armed_by_its_own_callback_stays_live():
    k = EventKernel()
    group = TimerGroup(k)
    ticks = []

    def tick():
        ticks.append(k.now)
        if len(ticks) < 3:
            group.call_after(1.0, tick)

    group.call_after(1.0, tick)
    k.run(until=2.5)
    assert ticks == [1.0, 2.0] and len(group) == 1
    k.run()
    assert ticks == [1.0, 2.0, 3.0] and len(group) == 0
