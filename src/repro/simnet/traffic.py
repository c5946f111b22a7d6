"""Background-load, arrival and failure generators.

NetSolve's servers were shared departmental machines whose UNIX load
average moved with other users' work.  These generators drive a
:class:`~repro.simnet.host.SimHost`'s background load so the
workload-policy experiments (F2/T2) have a ground-truth signal to track:

* :class:`ConstantLoad` — a fixed level (calibration runs),
* :class:`SquareWaveLoad` — the classic step pattern used to visualise
  broadcast hysteresis,
* :class:`PoissonJobLoad` — jobs arrive as a Poisson process and hold the
  CPU for exponentially distributed times (an M/G/inf load level),
* :class:`TraceLoad` — replays an explicit (time, load) trace.

The scale harness adds *request traffic* and *fault* generators, which
drive callbacks rather than a host's load knob:

* :class:`ArrivalProcess` — a (non)homogeneous Poisson request stream
  via Lewis–Shedler thinning; combine with the :func:`diurnal_rate` /
  :func:`flash_crowd` rate profiles,
* :class:`CorrelatedFailures` — whole failure *groups* (a rack, a
  subnet) crash together and are repaired together,
* :class:`BreakdownRepair` — per-unit exponential breakdown/repair
  renewal, the Beowulf-performability availability model.

Each generator is started with ``start()`` and stopped with ``stop()``;
all randomness comes from the named RNG streams so runs replay exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import SimulationError
from .host import SimHost
from .kernel import EventKernel, TimerGroup

__all__ = [
    "LoadGenerator",
    "ConstantLoad",
    "SquareWaveLoad",
    "PoissonJobLoad",
    "TraceLoad",
    "diurnal_rate",
    "flash_crowd",
    "ArrivalProcess",
    "CorrelatedFailures",
    "BreakdownRepair",
]


class KernelGenerator:
    """Base class: owns a kernel and the timers to cancel on stop."""

    def __init__(self, kernel: EventKernel):
        self.kernel = kernel
        self._timers = TimerGroup(kernel)
        self._running = False

    def start(self) -> "KernelGenerator":
        if self._running:
            raise SimulationError("generator already running")
        self._running = True
        self._start()
        return self

    def stop(self) -> None:
        self._running = False
        self._timers.cancel_all()

    def _start(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _arm(self, delay: float, fn) -> None:
        """Schedule ``fn`` in the group; it runs only while running (a
        callback may ``stop()`` and then arm again)."""
        def guarded() -> None:
            if self._running:
                fn()

        self._timers.call_after(delay, guarded)


class LoadGenerator(KernelGenerator):
    """A generator that drives one host's background-load knob."""

    def __init__(self, host: SimHost):
        super().__init__(host.kernel)
        self.host = host


class ConstantLoad(LoadGenerator):
    """Pin the background load to a fixed level."""

    def __init__(self, host: SimHost, level: float):
        super().__init__(host)
        if level < 0:
            raise SimulationError("load level must be >= 0")
        self.level = float(level)

    def _start(self) -> None:
        self.host.set_background_load(self.level)

    def stop(self) -> None:
        super().stop()
        self.host.set_background_load(0.0)


class SquareWaveLoad(LoadGenerator):
    """Alternate between ``low`` and ``high`` every ``period/2`` seconds."""

    def __init__(
        self,
        host: SimHost,
        *,
        low: float = 0.0,
        high: float = 2.0,
        period: float = 600.0,
        start_high: bool = False,
    ):
        super().__init__(host)
        if period <= 0:
            raise SimulationError("period must be positive")
        if low < 0 or high < 0:
            raise SimulationError("load levels must be >= 0")
        self.low = float(low)
        self.high = float(high)
        self.period = float(period)
        self._phase_high = start_high

    def _start(self) -> None:
        self._flip()

    def _flip(self) -> None:
        level = self.high if self._phase_high else self.low
        self.host.set_background_load(level)
        self._phase_high = not self._phase_high
        self._arm(self.period / 2.0, self._flip)


class PoissonJobLoad(LoadGenerator):
    """Background jobs arrive Poisson(rate); each holds +1 load for
    Exp(mean_duration) seconds.  The resulting load level is an M/M/inf
    occupancy process with mean ``rate * mean_duration``.
    """

    def __init__(
        self,
        host: SimHost,
        rng: np.random.Generator,
        *,
        rate: float = 1 / 120.0,
        mean_duration: float = 180.0,
        unit_load: float = 1.0,
    ):
        super().__init__(host)
        if rate <= 0 or mean_duration <= 0:
            raise SimulationError("rate and mean_duration must be positive")
        if unit_load <= 0:
            raise SimulationError("unit_load must be positive")
        self.rng = rng
        self.rate = float(rate)
        self.mean_duration = float(mean_duration)
        self.unit_load = float(unit_load)
        self._level = 0.0

    @property
    def mean_load(self) -> float:
        """Steady-state expected background load."""
        return self.rate * self.mean_duration * self.unit_load

    def _start(self) -> None:
        self._arm(self.rng.exponential(1.0 / self.rate), self._arrive)

    def _apply(self, delta: float) -> None:
        self._level = max(0.0, self._level + delta)
        self.host.set_background_load(self._level)

    def _arrive(self) -> None:
        self._apply(+self.unit_load)
        self._arm(self.rng.exponential(self.mean_duration), self._depart)
        self._arm(self.rng.exponential(1.0 / self.rate), self._arrive)

    def _depart(self) -> None:
        self._apply(-self.unit_load)


class TraceLoad(LoadGenerator):
    """Replay an explicit ``[(t, load), ...]`` trace (t relative to start)."""

    def __init__(self, host: SimHost, trace: Sequence[tuple[float, float]]):
        super().__init__(host)
        if not trace:
            raise SimulationError("trace must be non-empty")
        prev = -1.0
        for t, load in trace:
            if t < 0 or load < 0:
                raise SimulationError("trace entries must be non-negative")
            if t <= prev:
                raise SimulationError("trace times must be strictly increasing")
            prev = t
        self.trace = [(float(t), float(v)) for t, v in trace]

    def _start(self) -> None:
        for t, load in self.trace:
            self._arm(t, lambda v=load: self.host.set_background_load(v))


# ----------------------------------------------------------------------
# request-arrival rate profiles
# ----------------------------------------------------------------------
def diurnal_rate(
    *,
    low: float,
    high: float,
    period: float = 86400.0,
    peak_at: float = 0.25,
) -> Callable[[float], float]:
    """Sinusoidal day/night arrival-rate profile (requests/second).

    The rate swings between ``low`` (deepest night) and ``high``
    (``peak_at`` of the way through each ``period``).  Feed the result
    to :class:`ArrivalProcess` or layer spikes on it with
    :func:`flash_crowd`.
    """
    if low < 0 or high < low:
        raise SimulationError("need 0 <= low <= high")
    if period <= 0:
        raise SimulationError("period must be positive")
    mid = (high + low) / 2.0
    amp = (high - low) / 2.0

    def rate(t: float) -> float:
        # sin peaks at period * peak_at
        return mid + amp * math.sin(
            2.0 * math.pi * (t / period - peak_at) + math.pi / 2.0
        )

    return rate


def flash_crowd(
    base: Callable[[float], float] | float,
    *,
    at: float,
    magnitude: float,
    ramp: float = 60.0,
    hold: float = 300.0,
    decay: float = 600.0,
) -> Callable[[float], float]:
    """Layer a flash-crowd spike onto a rate profile.

    From ``at`` the rate ramps linearly to ``magnitude`` times the base
    over ``ramp`` seconds, holds there for ``hold`` seconds, then decays
    back exponentially with time constant ``decay`` — the canonical
    news-event arrival shape.  ``base`` may itself be a profile (e.g.
    :func:`diurnal_rate` output) or a constant; spikes compose by
    nesting calls.
    """
    if magnitude < 1.0:
        raise SimulationError("magnitude must be >= 1")
    if ramp < 0 or hold < 0 or decay <= 0:
        raise SimulationError("need ramp >= 0, hold >= 0, decay > 0")

    def rate(t: float) -> float:
        r = base(t) if callable(base) else float(base)
        dt = t - at
        if dt < 0:
            return r
        if dt < ramp:
            boost = 1.0 + (magnitude - 1.0) * (dt / ramp if ramp else 1.0)
        elif dt < ramp + hold:
            boost = magnitude
        else:
            boost = 1.0 + (magnitude - 1.0) * math.exp(
                -(dt - ramp - hold) / decay
            )
        return r * boost

    return rate


class ArrivalProcess(KernelGenerator):
    """Poisson request arrivals, optionally with a time-varying rate.

    Each arrival invokes ``on_arrival()`` (submit a request, pick a QoS
    class — the callback owns the semantics).  A callable ``rate`` makes
    the process nonhomogeneous via Lewis–Shedler thinning against
    ``rate_max``, which must dominate the profile; a float ``rate`` is
    the plain homogeneous case.  ``limit`` stops the process after that
    many arrivals (0 = unbounded).
    """

    def __init__(
        self,
        kernel: EventKernel,
        rng: np.random.Generator,
        rate: Callable[[float], float] | float,
        on_arrival: Callable[[], None],
        *,
        rate_max: float | None = None,
        limit: int = 0,
    ):
        super().__init__(kernel)
        self.rng = rng
        self.on_arrival = on_arrival
        self.limit = int(limit)
        self.arrivals = 0
        if callable(rate):
            if rate_max is None or rate_max <= 0:
                raise SimulationError(
                    "a rate profile needs a positive rate_max bound"
                )
            self._rate = rate
            self.rate_max = float(rate_max)
        else:
            if rate <= 0:
                raise SimulationError("rate must be positive")
            self._rate = None
            self.rate_max = float(rate)

    def _start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.limit and self.arrivals >= self.limit:
            return
        # candidate gaps at the dominating rate; thin to the profile
        gap = 0.0
        while True:
            gap += self.rng.exponential(1.0 / self.rate_max)
            if self._rate is None:
                break
            r = self._rate(self.kernel.now + gap)
            if r > self.rate_max * (1 + 1e-12):
                raise SimulationError(
                    f"rate profile exceeds rate_max at t="
                    f"{self.kernel.now + gap:g} ({r:g} > {self.rate_max:g})"
                )
            if self.rng.random() * self.rate_max <= r:
                break
        self._arm(gap, self._fire)

    def _fire(self) -> None:
        self.arrivals += 1
        self.on_arrival()
        self._schedule_next()


# ----------------------------------------------------------------------
# failure generators
# ----------------------------------------------------------------------
class CorrelatedFailures(KernelGenerator):
    """Whole groups of units fail together (rack / subnet outages).

    Failure events arrive Poisson(``rate``); each picks one currently-up
    group uniformly, calls ``crash(unit)`` for every member at the same
    instant, and schedules one repair Exp(``repair_mean``) later that
    calls ``revive(unit)`` for every member.  ``crash``/``revive``
    typically wrap ``SimTransport.crash``/``revive``.
    """

    def __init__(
        self,
        kernel: EventKernel,
        rng: np.random.Generator,
        groups: Sequence[Sequence[str]],
        crash: Callable[[str], None],
        revive: Callable[[str], None],
        *,
        rate: float,
        repair_mean: float,
    ):
        super().__init__(kernel)
        if not groups or any(not g for g in groups):
            raise SimulationError("groups must be non-empty")
        if rate <= 0 or repair_mean <= 0:
            raise SimulationError("rate and repair_mean must be positive")
        self.rng = rng
        self.groups = [tuple(g) for g in groups]
        self.crash = crash
        self.revive = revive
        self.rate = float(rate)
        self.repair_mean = float(repair_mean)
        self.failures = 0
        self.repairs = 0
        self._down: set[int] = set()

    def _start(self) -> None:
        self._arm(self.rng.exponential(1.0 / self.rate), self._fail)

    def _fail(self) -> None:
        up = [i for i in range(len(self.groups)) if i not in self._down]
        if up:
            gi = up[int(self.rng.integers(len(up)))]
            self._down.add(gi)
            self.failures += 1
            for unit in self.groups[gi]:
                self.crash(unit)
            self._arm(
                self.rng.exponential(self.repair_mean),
                lambda gi=gi: self._repair(gi),
            )
        self._arm(self.rng.exponential(1.0 / self.rate), self._fail)

    def _repair(self, gi: int) -> None:
        self._down.discard(gi)
        self.repairs += 1
        for unit in self.groups[gi]:
            self.revive(unit)


class BreakdownRepair(KernelGenerator):
    """Independent per-unit breakdown/repair renewal process.

    Every unit alternates up-for-Exp(``mttf``) / down-for-Exp(``mttr``),
    the classic performability availability model: steady-state per-unit
    availability is ``mttf / (mttf + mttr)``.  ``crash``/``revive`` are
    called on each transition.
    """

    def __init__(
        self,
        kernel: EventKernel,
        rng: np.random.Generator,
        units: Sequence[str],
        crash: Callable[[str], None],
        revive: Callable[[str], None],
        *,
        mttf: float,
        mttr: float,
    ):
        super().__init__(kernel)
        if not units:
            raise SimulationError("units must be non-empty")
        if mttf <= 0 or mttr <= 0:
            raise SimulationError("mttf and mttr must be positive")
        self.rng = rng
        self.units = tuple(units)
        self.crash = crash
        self.revive = revive
        self.mttf = float(mttf)
        self.mttr = float(mttr)
        self.breakdowns = 0
        self.repairs = 0
        self.down: set[str] = set()

    @property
    def availability(self) -> float:
        """Steady-state per-unit availability."""
        return self.mttf / (self.mttf + self.mttr)

    def _start(self) -> None:
        for unit in self.units:
            self._arm(
                self.rng.exponential(self.mttf),
                lambda u=unit: self._break(u),
            )

    def _break(self, unit: str) -> None:
        self.down.add(unit)
        self.breakdowns += 1
        self.crash(unit)
        self._arm(
            self.rng.exponential(self.mttr), lambda u=unit: self._fix(u)
        )

    def _fix(self, unit: str) -> None:
        self.down.discard(unit)
        self.repairs += 1
        self.revive(unit)
        self._arm(
            self.rng.exponential(self.mttf), lambda u=unit: self._break(u)
        )
