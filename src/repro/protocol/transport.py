"""Transport abstraction and the simulated transport.

The NetSolve components (agent, server, client) are *sans-IO state
machines*: they hold no sockets and no clocks, only a :class:`Node`
handle offering ``send``/``call_after``/``compute``/``now``.  Whatever
drives the node — virtual time here, real sockets in
:mod:`repro.protocol.tcp` — the component logic is byte-for-byte the
same, which is what makes simulated performance results honest about
protocol behaviour.

``SimNode.send`` charges the simulated wire with the *analytic* frame
size (:func:`~repro.protocol.codec.frame_size` — exact, but no payload
is serialized), then runs every delivered message through the
scatter/gather encode → zero-copy decode round trip — so codec bugs
surface in every simulation and message sizes are real, not modelled,
while lost or undeliverable messages cost no serialization at all.
``SimTransport(codec_roundtrip=False)`` skips even the delivered-path
materialization for huge farming runs (sender and receiver then share
the same payload objects; virtual timing is unchanged).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Optional

from ..errors import NetSolveError, SimulationError, TransportClosed, TransportError
from ..simnet.kernel import EventKernel, Timer, TimerGroup
from ..simnet.network import Topology
from ..trace.instruments import BYTES_BUCKETS, Metric, MetricsRegistry, track
from .codec import decode_message, encode_message_iov, frame_size
from .messages import Message

__all__ = [
    "Component",
    "Promise",
    "Node",
    "SimNode",
    "SimTransport",
    "set_promise_callback_error_handler",
]


def _node_total(attr: str) -> property:
    """A transport-level count that is the sum of its nodes' own."""
    read = attrgetter(attr)
    return property(
        lambda self: sum(read(node) for node in list(self.nodes.values()))
    )


#: the wire instruments, the same on both transports (each holds at zero
#: the one it cannot produce, so dumps from either carry the same names)
WIRE_METRICS = (
    Metric("wire.messages", "messages_sent", "frames sent"),
    Metric("wire.bytes", "bytes_sent", "payload bytes sent"),
    Metric("wire.delivered", "messages_delivered",
           "frames handed to a live component"),
    Metric("wire.dropped", "messages_dropped",
           "frames to dead or unknown nodes"),
    Metric("wire.lost", "messages_lost",
           "frames dropped by injected message loss"),
    Metric("wire.malformed", "messages_malformed",
           "inbound frames dropped as undecodable"),
    Metric("wire.frame_bytes", "_frame_bytes", "frame size distribution",
           "histogram", bounds=BYTES_BUCKETS),
)


class Component:
    """Base class for protocol participants."""

    node: "Node | None" = None

    def bind(self, node: "Node") -> None:
        if self.node is not None:
            raise TransportError("component already bound to a node")
        self.node = node
        self.on_bind()

    def on_bind(self) -> None:
        """Hook run once the node is attached (register timers here)."""

    def on_restart(self) -> None:
        """Hook run when a crashed node is revived (the daemon's restart
        path): re-arm timers, re-register, drop in-flight state."""

    def on_shutdown(self) -> None:
        """Hook run when the node is torn down (crash or transport
        close): release executors, close stores, drop OS resources.
        Must be idempotent and restart-safe — a revived component may be
        shut down again later."""

    def on_message(self, src: str, msg: Message) -> None:
        raise NotImplementedError


#: observer for exceptions escaping ``Promise.on_settled`` callbacks;
#: installed process-wide (tests, daemons).  The default re-raises,
#: which in practice surfaces the bug at the resolver's call site.
_callback_error_handler: Callable[["Promise", BaseException], None] | None = None


def set_promise_callback_error_handler(
    handler: Callable[["Promise", BaseException], None] | None,
) -> Callable[["Promise", BaseException], None] | None:
    """Install (or clear, with None) the settle-callback error observer.

    Returns the previous handler so callers can restore it.
    """
    global _callback_error_handler
    previous = _callback_error_handler
    _callback_error_handler = handler
    return previous


class Promise:
    """One-shot result container resolvable with a value or an error.

    The waiting side is transport-specific: the simulated transport runs
    the event loop until resolution; the TCP transport blocks a thread.

    **Callback error policy** — a raising ``on_settled`` callback must
    not corrupt the settle: by the time callbacks run the promise is
    already done, every registered callback runs exactly once, and only
    then is the first callback error re-raised into the resolver's frame
    (or handed to the process-wide observer installed via
    :func:`set_promise_callback_error_handler`, which suppresses the
    re-raise).  A callback registered *after* settlement runs
    immediately and raises straight to its registrar — there is no
    resolver frame to protect.
    """

    __slots__ = ("_done", "_value", "_error", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: list[Callable[["Promise"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    def resolve(self, value: Any) -> None:
        self._settle(value, None)

    def reject(self, error: BaseException) -> None:
        if not isinstance(error, BaseException):  # pragma: no cover
            raise TransportError("reject requires an exception instance")
        self._settle(None, error)

    def _settle(self, value: Any, error: Optional[BaseException]) -> None:
        if self._done:
            raise TransportError("promise settled twice")
        self._done = True
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        first_failure: Optional[BaseException] = None
        for cb in callbacks:
            try:
                cb(self)
            except BaseException as exc:  # noqa: BLE001 - isolate observers
                if _callback_error_handler is not None:
                    _callback_error_handler(self, exc)
                elif first_failure is None:
                    first_failure = exc
        if first_failure is not None:
            raise first_failure

    def on_settled(self, cb: Callable[["Promise"], None]) -> None:
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def result(self) -> Any:
        if not self._done:
            raise TransportError("promise not yet settled")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error


class Node:
    """Abstract runtime handle given to a component.

    Subclasses provide the five primitives; everything else in the
    system is built from them.
    """

    address: str
    #: name of the machine this node runs on (the predictor's host key)
    host_name: str

    def now(self) -> float:
        raise NotImplementedError

    def send(self, dest: str, msg: Message) -> None:
        raise NotImplementedError

    def call_after(self, delay: float, fn: Callable[[], None]):
        """Schedule ``fn``; returns a handle with ``cancel()``."""
        raise NotImplementedError

    def compute(
        self,
        flops: float,
        thunk: Callable[[], Any],
        done: Callable[[Any, float], None],
    ) -> None:
        """Run ``thunk`` as a CPU job costing ``flops``.

        ``done(result, elapsed_seconds)`` is called on completion;
        ``result`` is the thunk's return value or the exception it
        raised (exceptions are passed, not raised, so the component can
        turn them into error replies).
        """
        raise NotImplementedError

    def sample_workload(self) -> float:
        """Current workload of this node's host (100 x load average)."""
        raise NotImplementedError

    def post(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the node's serialized lane.

        The escape hatch for completions that arrive on *foreign*
        threads (e.g. a process-pool executor): ``fn`` runs under the
        same serialization discipline as message dispatch and compute
        completions, and is dropped if the node is down.  Single-threaded
        transports run it inline.
        """
        fn()

    def endpoint_of(self, address: str) -> str:
        """Dialable endpoint for ``address`` ("" when logical addresses
        route directly, as in simulation)."""
        return ""

    def learn_endpoint(self, address: str, endpoint: str) -> None:
        """Record a dialable endpoint for a logical address (no-op in
        simulation)."""

    def promise(self) -> Promise:
        return Promise()


class SimNode(Node):
    """A node placed on a simulated host."""

    def __init__(
        self, transport: "SimTransport", address: str, host_name: str
    ):
        self.transport = transport
        self.address = address
        self.host_name = host_name
        self.alive = True
        self.component: Component | None = None
        #: armed timers; each forgets itself when it fires or is
        #: cancelled, so a crash has only live timers to cancel
        self._timers = TimerGroup(transport.kernel)
        self._jobs: dict = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- Node API ------------------------------------------------------
    def now(self) -> float:
        return self.transport.kernel.now

    def send(self, dest: str, msg: Message) -> None:
        if not self.alive:
            return  # a crashed node emits nothing
        self.transport._deliver(self, dest, msg)

    def call_after(self, delay: float, fn: Callable[[], None]) -> Timer:
        if not self.alive:
            raise TransportClosed(f"node {self.address!r} is down")
        # a crash cancels the group: a timer only ever fires on a live node
        return self._timers.call_after(delay, fn)

    def compute(
        self,
        flops: float,
        thunk: Callable[[], Any],
        done: Callable[[Any, float], None],
    ) -> None:
        if not self.alive:
            raise TransportClosed(f"node {self.address!r} is down")
        host = self.transport.topology.host(self.host_name)
        # run the real computation now (real time is cheap); deliver the
        # result when the virtual CPU job finishes.
        try:
            result: Any = thunk()
        except NetSolveError as exc:
            result = exc
        except Exception as exc:  # handler bug: still reply, don't wedge
            result = exc
        job = host.submit_job(flops, name=self.address)
        self._jobs[job] = None

        def finish(elapsed: float) -> None:
            self._jobs.pop(job, None)
            if self.alive:
                done(result, elapsed)

        job.done.add_callback(finish)

    def sample_workload(self) -> float:
        return self.transport.topology.host(self.host_name).workload

    # -- lifecycle -----------------------------------------------------
    def _shutdown(self) -> None:
        self.alive = False
        self._timers.cancel_all()
        for job in self._jobs:
            job.cancel()
        self._jobs.clear()
        if self.component is not None:
            self.component.on_shutdown()


class SimTransport:
    """Routes encoded messages between :class:`SimNode`\\ s over a
    :class:`~repro.simnet.network.Topology`."""

    METRICS = WIRE_METRICS
    messages_sent = _node_total("messages_sent")
    bytes_sent = _node_total("bytes_sent")
    #: frames are handed over as objects or our own bytes: never malformed
    messages_malformed = 0

    def __init__(
        self,
        topology: Topology,
        *,
        codec_roundtrip: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.topology = topology
        self.kernel: EventKernel = topology.kernel
        #: encode→decode every delivered message (the fidelity default);
        #: False skips materialization and hands the receiver the
        #: sender's message object — timing identical, payloads shared
        self.codec_roundtrip = codec_roundtrip
        track(self, metrics)
        self.nodes: dict[str, SimNode] = {}
        self._loss_rate = 0.0
        self._loss_rng = None

    def set_message_loss(self, rate: float, rng) -> None:
        """Drop each message independently with probability ``rate``.

        Models a lossy path without transport-level retransmission — the
        stress case for the request-level retry loop.  Deterministic
        under the supplied generator.
        """
        if not 0.0 <= rate < 1.0:
            raise SimulationError("loss rate must be in [0, 1)")
        if rate > 0.0 and rng is None:
            raise SimulationError("message loss needs an rng")
        self._loss_rate = float(rate)
        self._loss_rng = rng

    # ------------------------------------------------------------------
    def add_node(
        self, address: str, host_name: str, component: Component
    ) -> SimNode:
        """Place ``component`` at ``address`` on host ``host_name``."""
        if address in self.nodes:
            raise SimulationError(f"duplicate node address {address!r}")
        self.topology.host(host_name)  # validate early
        node = SimNode(self, address, host_name)
        node.component = component
        self.nodes[address] = node
        component.bind(node)
        return node

    def node(self, address: str) -> SimNode:
        try:
            return self.nodes[address]
        except KeyError:
            raise SimulationError(f"unknown node {address!r}") from None

    # ------------------------------------------------------------------
    def _deliver(self, src: SimNode, dest: str, msg: Message) -> None:
        dest_node = self.nodes.get(dest)
        lost = (
            dest_node is not None
            and self._loss_rate > 0.0
            and self._loss_rng.random() < self._loss_rate
        )
        if dest_node is None or lost:
            # dropped or lost messages never pay for serialization: the
            # analytic size charges the sender's counters without
            # materializing a byte
            src.messages_sent += 1
            nbytes = frame_size(msg)
            src.bytes_sent += nbytes
            self._frame_bytes.observe(nbytes)
            if dest_node is None:
                self.messages_dropped += 1
            else:
                self.messages_lost += 1
            return
        if self.codec_roundtrip:
            # gather into one writable buffer so delivery can decode
            # zero-copy (arrays alias the wire bytearray); the frame
            # itself is the byte count — no separate sizing walk
            parts = encode_message_iov(msg)
            sizes = [len(p) for p in parts]
            nbytes = sum(sizes)
            # left-pad the buffer so the first (dominant) array payload
            # sits 8-byte aligned: the decoder then aliases it instead
            # of paying an alignment memcpy
            off = pad = 0
            for part, size in zip(parts, sizes):
                if isinstance(part, memoryview):
                    pad = -off % 8
                    break
                off += size
            wire = memoryview(bytearray(pad + nbytes))[pad:]
            pos = 0
            for part, size in zip(parts, sizes):
                wire[pos:pos + size] = part
                pos += size
        else:
            wire = None
            nbytes = frame_size(msg)
        src.messages_sent += 1
        src.bytes_sent += nbytes
        self._frame_bytes.observe(nbytes)
        transfer = self.topology.transfer(
            src.host_name, dest_node.host_name, nbytes
        )

        def arrive(_plan) -> None:
            node = self.nodes.get(dest)
            if node is None or not node.alive or node.component is None:
                self.messages_dropped += 1
                return
            self.messages_delivered += 1
            delivered = msg if wire is None else decode_message(wire)
            node.component.on_message(src.address, delivered)

        transfer.add_callback(arrive)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, address: str) -> None:
        """Kill a node: timers cancelled, CPU jobs aborted, messages to
        and from it silently dropped — exactly what a machine crash
        looks like from the network."""
        self.node(address)._shutdown()

    def revive(self, address: str) -> None:
        """Bring a crashed node back: the component's ``on_restart`` runs
        so the daemon re-arms timers and re-registers."""
        node = self.node(address)
        if node.alive:
            raise SimulationError(f"node {address!r} is not down")
        node.alive = True
        if node.component is not None:
            node.component.on_restart()

    def is_alive(self, address: str) -> bool:
        return self.node(address).alive

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run_until(self, promise: Promise, *, limit: float | None = None) -> Any:
        """Run virtual time forward until ``promise`` settles.

        Returns the promise's value or raises its error; raises
        :class:`SimulationError` on deadlock or when ``limit`` passes
        first.
        """
        self.kernel.run(until=limit, stop=lambda: promise.done)
        if not promise.done:
            raise SimulationError(
                f"promise never settled (now={self.kernel.now:.3f})"
            )
        return promise.result()
