"""Keyed, generation-safe one-shot deadlines and retry chains.

Every timeout a component arms is a *deadline*: a key, a delay, and a
callback.  :class:`DeadlineTable` owns all of a component's deadlines
and guarantees the one property the hand-rolled versions kept getting
wrong — a deadline that has been superseded (re-armed under the same
key) or cancelled **cannot** fire its callback.  Each ``arm`` stamps a
fresh generation; the fire closure checks the stamp against the live
slot and returns silently on mismatch.  Stale fires are counted, not
executed, so tests can assert the guard did its job.

Timers themselves are never re-used: superseding a slot cancels the old
node timer *and* bumps the generation.  On both transports the cancel
alone suffices (each fires timers off an event kernel with lazy
cancellation, on the thread that cancels them); the generation covers
nodes whose timers cannot be cancelled, and timers armed before a
crash/revive cycle.

:class:`RetryChain` builds the NetSolve resend loop on top of a single
deadline slot: send, wait, resend up to an attempt budget, then give
up.  The client's DescribeProblem chain is the canonical user.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import NetSolveError

__all__ = ["DeadlineTable", "RetryChain"]


class DeadlineTable:
    """All one-shot timeouts of one component, keyed and supersedable."""

    __slots__ = ("_component", "_slots", "_gen", "fired", "stale_suppressed")

    def __init__(self, component) -> None:
        self._component = component
        # key -> (generation, node timer handle or None)
        self._slots: dict[Hashable, tuple[int, object]] = {}
        self._gen = 0
        self.fired = 0
        self.stale_suppressed = 0

    def __len__(self) -> int:
        return len(self._slots)

    def active(self, key: Hashable) -> bool:
        return key in self._slots

    def arm(self, key: Hashable, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` after ``delay``, superseding any prior ``key``."""
        prior = self._slots.get(key)
        if prior is not None and prior[1] is not None:
            prior[1].cancel()
        self._gen += 1
        gen = self._gen

        def fire() -> None:
            slot = self._slots.get(key)
            if slot is None or slot[0] != gen:
                self.stale_suppressed += 1
                return
            del self._slots[key]
            self.fired += 1
            fn()

        timer = self._component.node.call_after(delay, fire)
        self._slots[key] = (gen, timer)

    def cancel(self, key: Hashable) -> bool:
        """Disarm ``key``; True if a deadline was actually pending."""
        slot = self._slots.pop(key, None)
        if slot is None:
            return False
        if slot[1] is not None:
            slot[1].cancel()
        return True

    def clear(self) -> int:
        """Disarm everything (restart path); returns how many were live."""
        count = 0
        for key in list(self._slots):
            count += self.cancel(key)
        return count


class RetryChain:
    """Send / await / resend up to an attempt budget, on one deadline slot.

    The callbacks split the seed components' inlined loop at its joints:

    * ``send(attempt)`` — transmit attempt number ``attempt`` (1-based);
    * ``on_retry(attempt)`` — observability hook, called *before* the
      resend so trace/metric ordering matches the hand-rolled code;
    * ``on_exhausted()`` — the budget is spent and nobody answered.

    ``cancel()`` (typically from the reply handler) stops the chain; a
    timeout from a superseded chain is swallowed by the deadline table.
    """

    __slots__ = ("_deadlines", "_key", "interval", "attempts",
                 "_send", "_on_exhausted", "_on_retry", "attempt")

    def __init__(self, deadlines: DeadlineTable, key: Hashable, *,
                 interval: float, attempts: int,
                 send: Callable[[int], None],
                 on_exhausted: Callable[[], None],
                 on_retry: Callable[[int], None] | None = None) -> None:
        if attempts < 1:
            raise NetSolveError(f"retry chain needs >= 1 attempt, got {attempts}")
        self._deadlines = deadlines
        self._key = key
        self.interval = interval
        self.attempts = attempts
        self._send = send
        self._on_exhausted = on_exhausted
        self._on_retry = on_retry
        self.attempt = 0

    def start(self) -> None:
        self.attempt = 1
        self._send(1)
        self._deadlines.arm(self._key, self.interval, self._timed_out)

    def cancel(self) -> bool:
        return self._deadlines.cancel(self._key)

    def _timed_out(self) -> None:
        if self.attempt >= self.attempts:
            self._on_exhausted()
            return
        self.attempt += 1
        if self._on_retry is not None:
            self._on_retry(self.attempt)
        self._send(self.attempt)
        self._deadlines.arm(self._key, self.interval, self._timed_out)
