"""Restart-safe recurring tasks.

A :class:`Periodic` owns one self-rescheduling timer chain: run the
body, then re-arm.  The property the components' inlined versions
lacked is idempotent restart — ``start()`` *supersedes* any previous
chain by bumping a generation stamp, so calling it again (``on_restart``
delegating to ``on_bind``, say) leaves exactly one live chain.  Both
transports hand back a cancellable timer, and cancelling it is enough:
every timer runs on the one thread that cancels it (the sim kernel, or
the TCP transport's loop).  The stamp covers nodes that return ``None``
handles (bench and test harnesses): there the superseded chain's next
tick still fires, and the stamp turns it into a counted no-op instead
of a duplicate chain.

Ticks preserve the seed components' body-then-rearm order, so any
timers the body arms keep their position in the event kernel's
insertion sequence (golden-run determinism depends on it).
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Periodic"]


class Periodic:
    """One recurring task bound to a component's node."""

    __slots__ = ("_component", "interval", "_fn", "name",
                 "_gen", "_timer", "fires", "stale_ticks", "last_fired")

    def __init__(self, component, interval: float,
                 fn: Callable[[], None], *, name: str = "") -> None:
        self._component = component
        self.interval = interval
        self._fn = fn
        self.name = name
        self._gen = 0
        self._timer = None
        self.fires = 0
        self.stale_ticks = 0
        self.last_fired: float | None = None

    @property
    def running(self) -> bool:
        return self._timer is not None

    def start(self) -> None:
        """(Re)arm the chain, superseding any previous one."""
        self._gen += 1
        if self._timer is not None:
            self._timer.cancel()
        self._arm(self._gen)

    def stop(self) -> None:
        self._gen += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self, gen: int) -> None:
        # bench/test harness nodes may return None handles; a None timer
        # simply cannot be cancelled early, the stamp still protects us
        self._timer = self._component.node.call_after(
            self.interval, lambda: self._tick(gen)
        )

    def _tick(self, gen: int) -> None:
        if gen != self._gen:
            self.stale_ticks += 1
            return
        self.fires += 1
        self.last_fired = self._component.node.now()
        self._fn()
        if gen == self._gen:  # body may have called start()/stop()
            self._arm(gen)
