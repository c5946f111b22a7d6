"""Deterministic discrete-event simulation substrate.

The original NetSolve evaluation ran on real workstations and real
networks; this package supplies the laptop-scale stand-in: a virtual-time
event kernel (:mod:`repro.simnet.kernel`), hosts with Mflop/s ratings and
UNIX-style load averages (:mod:`repro.simnet.host`), a network of links
with latency, bandwidth and FIFO contention (:mod:`repro.simnet.network`),
and stochastic background-load generators (:mod:`repro.simnet.traffic`).
All randomness flows through named, seeded streams
(:mod:`repro.simnet.rng`), so any (seed, config) pair replays exactly.
"""

from .kernel import Event, EventKernel, Timer, TimerGroup
from .rng import RngStreams
from .host import SimHost
from .network import Link, LinkStats, Topology, TransferPlan
from .traffic import (
    LoadGenerator,
    PoissonJobLoad,
    SquareWaveLoad,
    TraceLoad,
    ConstantLoad,
)

__all__ = [
    "Event",
    "EventKernel",
    "Timer",
    "TimerGroup",
    "RngStreams",
    "SimHost",
    "Link",
    "LinkStats",
    "Topology",
    "TransferPlan",
    "LoadGenerator",
    "PoissonJobLoad",
    "SquareWaveLoad",
    "TraceLoad",
    "ConstantLoad",
]
