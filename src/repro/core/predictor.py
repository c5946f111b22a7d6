"""The agent's completion-time model.

For a request of problem ``p`` with size bindings ``env`` on candidate
server ``s`` reachable from client host ``c``, NetSolve predicts::

    T(s) = T_send + T_compute + T_recv

    T_send    = latency(c, s) + input_bytes(p, env)  / bandwidth(c, s)
    T_recv    = latency(c, s) + output_bytes(p, env) / bandwidth(c, s)
    T_compute = flops(p, env) / (1e6 * effective_mflops(s))

    effective_mflops(s) = peak_mflops(s) * min(1, 100 * slots(s)
                                                  / (100 + workload(s)))

where ``workload`` is the server's last-reported UNIX load average times
100 and ``slots`` is its advertised executor-worker count.  At
``slots=1`` the min() never binds below the classic NetSolve hypothesis
``P * 100 / (100 + w)`` — the formula *is* that hypothesis, computed
with the identical expression, so single-slot decisions are
bit-identical to the pre-slot model.  A multi-slot server divides its
runnable load across workers: a 4-worker box at load 3 still delivers
peak to a new job, which is exactly why the scheduler must know slot
counts to stop preferring idle slow machines over busy fast ones.
The model is deliberately the *same* two-parameter network model
the simulator's links implement, so experiment T1 measures exactly the
error sources the paper's agent lived with: stale workload reports, link
contention, protocol overhead and competing requests — not model-form
mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Optional, Protocol

import numpy as np

from ..errors import ConfigError, ProtocolError

__all__ = [
    "LinkEstimate",
    "NetworkInfo",
    "StaticNetworkInfo",
    "LearnedNetworkInfo",
    "Prediction",
    "effective_mflops",
    "finite_real",
    "predict",
    "predict_batch",
]


@dataclass(frozen=True)
class LinkEstimate:
    """Agent's belief about one host pair: seconds and bytes/second."""

    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")

    def transfer_seconds(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth


def finite_real(value, what: str) -> float:
    """``value`` as a float; a :class:`ProtocolError` unless it is a finite
    real number.

    The check every peer-reported quantity passes before it can reach a
    prediction: text, ``inf`` and ``nan`` are refused here rather than
    ranked through.
    """
    # builtin types first: the ABC isinstance check is slow, and
    # every workload report passes through here
    if isinstance(value, (float, int)) or isinstance(value, Real):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ProtocolError(f"{what} must be a finite number, got {value!r:.40}")


class NetworkInfo(Protocol):
    """Provider of link estimates between named hosts.

    ``version`` changes whenever any estimate may have changed, so a
    consumer can cache what ``link`` returned until it moves.
    """

    version: int

    def link(self, a: str, b: str) -> LinkEstimate: ...


class StaticNetworkInfo:
    """A symmetric table of measured link characteristics.

    Stands in for the original's network measurements: the deployment
    loads it from known topology (or from probes), and the agent never
    touches live network state.  Unknown pairs fall back to ``default``
    if given, else raise.
    """

    def __init__(
        self,
        table: Mapping[tuple[str, str], LinkEstimate] | None = None,
        *,
        default: LinkEstimate | None = None,
        loopback: LinkEstimate | None = None,
    ):
        self._table: dict[tuple[str, str], LinkEstimate] = {}
        self.default = default
        self.loopback = loopback or LinkEstimate(latency=20e-6, bandwidth=400e6)
        #: bumped by every :meth:`set`
        self.version = 0
        if table:
            for (a, b), est in table.items():
                self.set(a, b, est)

    def set(self, a: str, b: str, est: LinkEstimate) -> None:
        self._table[(a, b)] = est
        self._table[(b, a)] = est
        self.version += 1

    def link(self, a: str, b: str) -> LinkEstimate:
        if a == b:
            return self.loopback
        est = self._table.get((a, b))
        if est is None:
            est = self.default
        if est is None:
            raise ConfigError(f"no link estimate for {a!r} <-> {b!r}")
        return est


class LearnedNetworkInfo:
    """Network table that learns effective bandwidth from observed
    transfers (the measurement loop NetSolve later delegated to NWS).

    Starts from a ``prior`` provider; every client
    :class:`~repro.protocol.messages.TransferReport` updates an
    exponentially weighted moving average of the path's effective
    bytes/second.  Latency stays the prior's (small-message probes would
    refine it; transfers barely constrain it), so the learned estimate
    corrects exactly the term that dominates large-argument prediction.
    """

    def __init__(self, prior: "NetworkInfo", *, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        self.prior = prior
        self.alpha = float(alpha)
        self._learned: dict[tuple[str, str], float] = {}
        self.observations = 0

    @property
    def version(self) -> int:
        """Moves with every folded observation and with the prior's own
        version (both only ever grow, so their sum does too)."""
        return self.observations + self.prior.version

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def observe(self, a: str, b: str, nbytes: float, seconds: float) -> None:
        """Fold one realized transfer into the path's bandwidth belief.

        A value that is not a finite number, or a rate that overflows,
        raises :class:`ProtocolError` and leaves the belief untouched.
        """
        nbytes = finite_real(nbytes, "nbytes")
        seconds = finite_real(seconds, "seconds")
        if nbytes <= 0 or seconds <= 0:
            return  # nothing to learn from degenerate reports
        observed = nbytes / seconds
        if not math.isfinite(observed):
            raise ProtocolError(
                f"transfer rate {nbytes} B / {seconds} s overflows"
            )
        key = self._key(a, b)
        current = self._learned.get(key)
        if current is None:
            self._learned[key] = observed
        else:
            self._learned[key] = (
                (1.0 - self.alpha) * current + self.alpha * observed
            )
        self.observations += 1

    def learned_bandwidth(self, a: str, b: str) -> Optional[float]:
        return self._learned.get(self._key(a, b))

    def link(self, a: str, b: str) -> LinkEstimate:
        base = self.prior.link(a, b)
        learned = self._learned.get(self._key(a, b))
        if learned is None:
            return base
        return LinkEstimate(latency=base.latency, bandwidth=learned)


@dataclass(frozen=True)
class Prediction:
    """Decomposed completion-time prediction (seconds)."""

    send_seconds: float
    compute_seconds: float
    recv_seconds: float

    @property
    def total(self) -> float:
        return self.send_seconds + self.compute_seconds + self.recv_seconds

    @property
    def network_seconds(self) -> float:
        return self.send_seconds + self.recv_seconds


def effective_mflops(
    peak_mflops: float, workload: float, slots: int = 1
) -> float:
    """NetSolve's workload hypothesis, generalized to ``slots`` workers:
    ``p = P * min(1, 100 * slots / (100 + w))``.

    ``slots=1`` evaluates the exact classic expression
    ``P * 100 / (100 + w)`` (same operations, same order), so existing
    single-slot predictions do not move by so much as an ulp.  With
    more slots the load divides across workers, capped at peak: a
    server whose capacity (``100 * slots``) covers its runnable load
    delivers full speed to one more job.
    """
    if peak_mflops <= 0:
        raise ConfigError("peak_mflops must be positive")
    if workload < 0:
        raise ConfigError("workload must be >= 0")
    if slots < 1:
        raise ConfigError("slots must be >= 1")
    if slots == 1:
        return peak_mflops * 100.0 / (100.0 + workload)
    capacity = 100.0 * slots
    if capacity >= 100.0 + workload:
        return peak_mflops
    return peak_mflops * capacity / (100.0 + workload)


def predict(
    *,
    flops: float,
    input_bytes: float,
    output_bytes: float,
    link: LinkEstimate,
    peak_mflops: float,
    workload: float,
    slots: int = 1,
    use_workload: bool = True,
) -> Prediction:
    """Core prediction formula from raw quantities.

    ``use_workload=False`` is the A1 ablation: the agent pretends every
    server is idle.
    """
    if flops < 0 or input_bytes < 0 or output_bytes < 0:
        raise ConfigError("flops and byte counts must be >= 0")
    mflops = effective_mflops(
        peak_mflops, workload if use_workload else 0.0, slots
    )
    return Prediction(
        send_seconds=link.transfer_seconds(input_bytes),
        compute_seconds=flops / (mflops * 1e6),
        recv_seconds=link.transfer_seconds(output_bytes),
    )


def predict_batch(
    *,
    flops: float,
    input_bytes: "float | np.ndarray",
    output_bytes: float,
    latency: np.ndarray,
    bandwidth: np.ndarray,
    peak_mflops: np.ndarray,
    workload: np.ndarray,
    pending: np.ndarray,
    slots: "np.ndarray | None" = None,
    use_workload: bool = True,
) -> np.ndarray:
    """Vectorized :func:`predict` over a candidate set.

    ``flops``/``input_bytes``/``output_bytes`` are the per-query
    invariants (they depend only on the problem spec and the size
    bindings, so the caller evaluates them once); the array arguments
    carry one element per candidate.  ``input_bytes`` may also be an
    array (one element per candidate) when the bytes each server must
    actually receive differ — the locality-aware path charges only for
    inputs not already resident on a candidate; passing the plain scalar
    keeps the arithmetic (and hence the ranking) bit-identical to the
    pre-locality model.  ``pending`` is the agent's
    pending-assignment count per candidate: requests it has recently
    steered there that no report reflects yet, modelled as FIFO queue
    wait — each inflates the compute term by one service time.

    ``slots`` (int per candidate; ``None`` means all-ones) divides both
    the reported workload and the pending hints across a server's
    executor workers: a server runs ``slots`` requests at a time, so
    only every ``slots``-th pending request adds a queueing round.

    Returns total predicted seconds as a float64 array.  Every
    arithmetic step mirrors :func:`predict` operation for operation —
    the multi-slot branch replays :func:`effective_mflops`'s exact
    branch structure via ``np.where`` rather than a ``minimum()``
    (which could round differently at the capacity boundary) — so each
    element is bit-identical to ``predict(...).total`` with the compute
    term inflated.  The property tests pin this: the agent calls only
    this function, and :func:`predict` stays as the documented model
    and the tests' scalar reference.
    """
    input_bytes = np.asarray(input_bytes, dtype=np.float64)
    if flops < 0 or (input_bytes.size and input_bytes.min() < 0) \
            or output_bytes < 0:
        raise ConfigError("flops and byte counts must be >= 0")
    peak_mflops = np.asarray(peak_mflops, dtype=np.float64)
    workload = np.asarray(workload, dtype=np.float64)
    latency = np.asarray(latency, dtype=np.float64)
    bandwidth = np.asarray(bandwidth, dtype=np.float64)
    pending = np.asarray(pending)
    if peak_mflops.size and peak_mflops.min() <= 0:
        raise ConfigError("peak_mflops must be positive")
    if workload.size and workload.min() < 0:
        raise ConfigError("workload must be >= 0")
    if not use_workload:
        workload = np.zeros_like(workload)
    mflops = peak_mflops * 100.0 / (100.0 + workload)
    if slots is None:
        inflation = 1 + pending
    else:
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size and slots.min() < 1:
            raise ConfigError("slots must be >= 1")
        if np.any(slots > 1):
            capacity = 100.0 * slots
            multi = np.where(
                capacity >= 100.0 + workload,
                peak_mflops,
                peak_mflops * capacity / (100.0 + workload),
            )
            mflops = np.where(slots > 1, multi, mflops)
        inflation = 1 + pending // slots
    send = latency + input_bytes / bandwidth
    compute = (flops / (mflops * 1e6)) * inflation
    recv = latency + output_bytes / bandwidth
    return send + compute + recv
