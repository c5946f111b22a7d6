"""Discrete-event simulation kernel.

A minimal, fast, deterministic event loop: a binary heap of
``(time, priority, sequence, callback)`` entries.  Ties on time are broken
first by an explicit priority, then by insertion order, so runs are fully
reproducible.  Virtual time is a float in seconds and never flows
backwards.

There is one way to wait: ``kernel.call_at`` / ``kernel.call_after``
schedule a plain callable.  An owner whose pending work must die with it
(a node that crashes, a generator that stops) arms through a
:class:`TimerGroup`, which holds exactly its live timers.  An
:class:`Event` is the completion of a simulated job or transfer: its
waiters run as zero-delay events.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..errors import SimulationError

__all__ = ["EventKernel", "Event", "Timer", "TimerGroup"]


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    A cancelled timer stays in the heap but is skipped when popped
    (lazy deletion), which keeps cancellation O(1).  The kernel keeps a
    live count alongside (``_counted`` says whether this timer is in it)
    so ``pending()`` never has to scan the heap.  A live timer armed
    through a :class:`TimerGroup` is also in that group's set.
    """

    __slots__ = ("time", "callback", "cancelled", "_kernel", "_counted",
                 "_group")

    def __init__(
        self, time: float, callback: Callable[[], None], kernel: "EventKernel"
    ):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._kernel = kernel
        self._counted = True
        self._group: "TimerGroup | None" = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = _noop
        if self._counted:
            self._counted = False
            self._kernel._live -= 1
            if self._group is not None:
                self._group._timers.discard(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Timer t={self.time:.6f} {state}>"


def _noop() -> None:
    return None


class TimerGroup:
    """The live timers of one owner, cancelled together.

    A timer leaves its group when it fires or is cancelled, so the group
    never holds a spent timer and ``len(group)`` is the owner's pending
    work.  ``cancel_all()`` is what a crash or a stop does.
    """

    __slots__ = ("kernel", "_timers")

    def __init__(self, kernel: "EventKernel"):
        self.kernel = kernel
        self._timers: set[Timer] = set()

    def call_at(self, when: float, fn: Callable[[], None]) -> Timer:
        timer = self.kernel.call_at(when, fn)
        timer._group = self
        self._timers.add(timer)
        return timer

    def call_after(self, delay: float, fn: Callable[[], None]) -> Timer:
        return self.call_at(self.kernel.now + delay, fn)

    def cancel_all(self) -> None:
        for timer in list(self._timers):
            timer.cancel()

    def __len__(self) -> int:
        return len(self._timers)


class Event:
    """One-shot completion of a simulated job or transfer.

    ``succeed(value)`` wakes every waiter exactly once, each as its own
    zero-delay event in registration order; late waiters are woken the
    same way with the stored value.
    """

    __slots__ = ("kernel", "_value", "_fired", "_waiters")

    def __init__(self, kernel: "EventKernel"):
        self.kernel = kernel
        self._value: Any = None
        self._fired = False
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("event value read before it fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            # Wake-ups run as fresh events at the current time so firing
            # order between waiters is the registration order.
            self.kernel.call_after(0.0, lambda w=waiter: w(value))

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        if self._fired:
            self.kernel.call_after(0.0, lambda: fn(self._value))
        else:
            self._waiters.append(fn)


class EventKernel:
    """The virtual clock and event heap.

    Notes
    -----
    ``priority`` orders simultaneous events: lower runs first.  The
    default priority (0) suffices almost everywhere; transports use a
    slightly higher value for delivery so that local bookkeeping scheduled
    "now" runs before message arrival at the same instant.
    """

    #: heaps smaller than this are never compacted — rebuilding a tiny
    #: heap costs more than the dead entries it would reclaim
    COMPACT_MIN = 512

    def __init__(self, *, compact_min: int | None = None) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Timer]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0
        #: timers in the heap that are not cancelled (O(1) ``pending()``)
        self._live = 0
        #: dead entries rebuilt out of the heap so far (perf telemetry)
        self.compactions = 0
        self._compact_min = (
            self.COMPACT_MIN if compact_min is None else max(1, compact_min)
        )

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(
        self, when: float, fn: Callable[[], None], priority: int = 0
    ) -> Timer:
        """Schedule ``fn`` to run at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self._now}"
            )
        seq = next(self._seq)
        timer = Timer(when, fn, self)
        heap = self._heap
        heapq.heappush(heap, (when, priority, seq, timer))
        self._live += 1
        # amortized compaction: once cancelled entries outnumber live
        # ones (deadline tables and retry chains cancel almost every
        # timer they arm), rebuild the heap in one O(n) batch instead
        # of dribbling dead entries through every later push and pop
        if len(heap) >= self._compact_min and self._live * 2 < len(heap):
            self._compact()
        return timer

    def _compact(self) -> None:
        dead = len(self._heap) - self._live
        self._heap = [e for e in self._heap if not e[3].cancelled]
        heapq.heapify(self._heap)
        self.compactions += dead

    def call_after(
        self, delay: float, fn: Callable[[], None], priority: int = 0
    ) -> Timer:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn, priority)

    def event(self) -> Event:
        """Create a fresh one-shot :class:`Event` bound to this kernel."""
        return Event(self)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if the heap is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _prio, _seq, timer = pop(heap)
            if timer.cancelled:
                continue
            timer._counted = False
            self._live -= 1
            if timer._group is not None:
                timer._group._timers.discard(timer)
            self._now = when
            self.events_processed += 1
            timer.callback()
            return True
        return False

    def run(
        self,
        until: float | None = None,
        *,
        stop: Callable[[], bool] | None = None,
        max_events: int | None = None,
    ) -> float:
        """Drain the event heap.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this bound; the clock is
            advanced exactly to ``until`` on exit so back-to-back ``run``
            calls compose.
        stop:
            Optional predicate checked after every event.
        max_events:
            Safety valve against runaway loops: at most this many events
            run; the breach is raised *before* an excess event executes.

        Returns
        -------
        float
            Virtual time at exit.
        """
        if self._running:
            raise SimulationError("kernel.run is not re-entrant")
        self._running = True
        processed = 0
        try:
            while self._heap:
                if self._heap[0][3].cancelled:
                    # drop lazily-cancelled timers *before* the time-bound
                    # check: peeking a cancelled entry at t <= until and
                    # then stepping would tunnel past ``until`` to the
                    # next live event
                    heapq.heappop(self._heap)
                    continue
                when = self._heap[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    # checked with a live runnable event at the top, so
                    # exactly max_events events ran — the cap used to
                    # admit one extra before noticing
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                if not self.step():
                    break
                processed += 1
                if stop is not None and stop():
                    break
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events.  O(1)."""
        return self._live

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None.  Amortized O(1).

        Lazily pops cancelled entries off the top — the same discipline
        ``run()`` uses — instead of sorting a copy of the whole heap,
        so a peek after heavy cancellation costs only the dead tops it
        discards (each discarded exactly once across all peeks/runs).
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if heap[0][3].cancelled:
                pop(heap)
                continue
            return heap[0][0]
        return None
