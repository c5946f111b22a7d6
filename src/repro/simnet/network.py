"""Simulated network: hosts joined by point-to-point links.

Links have propagation latency (seconds) and bandwidth (bytes/second) and
are full duplex: each direction is an independent FIFO resource.  A
message occupies its direction for ``nbytes / bandwidth`` seconds
(serialization) and arrives ``latency`` seconds after its last byte left,
so back-to-back messages pipeline the way store-and-forward hardware
does.  This is deliberately the same two-parameter (latency, bandwidth)
model NetSolve's agent uses to predict transfer cost — the experiments
then measure how contention and overhead make reality deviate from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from ..errors import SimulationError
from .host import SimHost
from .kernel import Event, EventKernel

__all__ = ["Link", "LinkStats", "Topology", "TransferPlan"]


@dataclass
class LinkStats:
    """Per-direction traffic counters."""

    messages: int = 0
    bytes: int = 0
    busy_seconds: float = 0.0


def _check_link(label: str, latency: float, bandwidth: float) -> None:
    if latency < 0:
        raise SimulationError(f"link {label}: negative latency")
    if bandwidth <= 0:
        raise SimulationError(f"link {label}: bandwidth must be positive")


class Link:
    """One direction of a point-to-point link."""

    __slots__ = ("src", "dst", "latency", "bandwidth", "busy_until", "stats")

    def __init__(self, src: str, dst: str, latency: float, bandwidth: float):
        _check_link(f"{src}->{dst}", latency, bandwidth)
        self.src = src
        self.dst = dst
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)  # bytes per second
        self.busy_until = 0.0
        self.stats = LinkStats()

    def serialization_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Link {self.src}->{self.dst} lat={self.latency * 1e3:.3g}ms "
            f"bw={self.bandwidth / 1e6:.3g}MB/s>"
        )


@dataclass(frozen=True)
class TransferPlan:
    """Timing decomposition of one (possibly queued) message transfer."""

    start: float
    queue_delay: float
    serialization: float
    latency: float

    @property
    def arrival(self) -> float:
        return self.start + self.queue_delay + self.serialization + self.latency

    @property
    def total(self) -> float:
        return self.arrival - self.start


class _Mesh(NamedTuple):
    """One :meth:`Topology.connect_all` call, kept instead of its links."""

    hosts: frozenset[str]
    latency: float
    bandwidth: float
    #: sorted pairs that were already linked when the mesh was laid
    skip: frozenset[tuple[str, str]]

    def covers(self, lo: str, hi: str) -> bool:
        return (
            lo in self.hosts and hi in self.hosts
            and (lo, hi) not in self.skip
        )


class Topology:
    """A set of named hosts and the directed links between them.

    Hosts on the same machine (``src == dst``) communicate through an
    implicit loopback with :attr:`loopback_latency` and effectively
    infinite bandwidth, so co-located components cost almost nothing —
    matching the original's use of Unix-domain loopback.

    A :meth:`connect_all` mesh is recorded, not built: each of its
    directed links comes into being the first time :meth:`link` asks
    for it, so a topology holds links in proportion to the pairs that
    carry traffic, not to the square of its hosts.
    """

    loopback_latency = 20e-6
    loopback_bandwidth = 400e6

    def __init__(self, kernel: EventKernel, *, per_message_overhead: float = 0.0):
        if per_message_overhead < 0:
            raise SimulationError("per_message_overhead must be >= 0")
        self.kernel = kernel
        self.per_message_overhead = float(per_message_overhead)
        self.hosts: dict[str, SimHost] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._meshes: list[_Mesh] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_host(
        self, name: str, mflops: float, *, background_load: float = 0.0,
        cpus: int = 1,
    ) -> SimHost:
        """Create and register a host."""
        if name in self.hosts:
            raise SimulationError(f"duplicate host {name!r}")
        host = SimHost(
            name, self.kernel, mflops, background_load=background_load,
            cpus=cpus,
        )
        self.hosts[name] = host
        return host

    def host(self, name: str) -> SimHost:
        try:
            return self.hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def add_link(
        self,
        a: str,
        b: str,
        *,
        latency: float,
        bandwidth: float,
        symmetric: bool = True,
    ) -> None:
        """Join hosts ``a`` and ``b``; bandwidth in bytes/second.

        Overrides a :meth:`connect_all` mesh for this pair."""
        for name in (a, b):
            if name not in self.hosts:
                raise SimulationError(f"unknown host {name!r}")
        if a == b:
            raise SimulationError("use loopback, not a self-link")
        self._links[(a, b)] = Link(a, b, latency, bandwidth)
        if symmetric:
            self._links[(b, a)] = Link(b, a, latency, bandwidth)

    def connect_all(self, *, latency: float, bandwidth: float) -> None:
        """Join every pair of current hosts that is not linked yet.

        A pair counts as linked when its sorted direction ``(lo, hi)``
        has a link; otherwise the mesh joins both directions, replacing
        an asymmetric ``hi -> lo`` link.  Hosts added later are not in
        the mesh.  No link is built here: :meth:`link` builds each
        directed link on first use.
        """
        _check_link("mesh", latency, bandwidth)
        hosts = frozenset(self.hosts)
        skip = set()
        for a, b in list(self._links):
            if a == b or a not in hosts or b not in hosts:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            if (lo, hi) in self._links or self._mesh_for(lo, hi):
                skip.add((lo, hi))
            else:
                del self._links[(a, b)]
        self._meshes.append(
            _Mesh(hosts, float(latency), float(bandwidth), frozenset(skip))
        )

    def _mesh_for(self, lo: str, hi: str) -> _Mesh | None:
        for mesh in self._meshes:
            if mesh.covers(lo, hi):
                return mesh
        return None

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst`` (loopback links are implicit,
        mesh links are built here on first use)."""
        link = self._links.get((src, dst))
        if link is not None:
            return link
        if src == dst:
            link = Link(src, src, self.loopback_latency, self.loopback_bandwidth)
        else:
            mesh = self._mesh_for(*((src, dst) if src < dst else (dst, src)))
            if mesh is None:
                raise SimulationError(f"no link {src!r} -> {dst!r}")
            link = Link(src, dst, mesh.latency, mesh.bandwidth)
        self._links[(src, dst)] = link
        return link

    def links(self) -> Iterable[Link]:
        """The links built so far: explicit ones, and the loopback and
        mesh links that :meth:`link` has been asked for."""
        return self._links.values()

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def plan_transfer(self, src: str, dst: str, nbytes: int) -> TransferPlan:
        """Timing a transfer *would* have if issued now (no side effects)."""
        link = self.link(src, dst)
        now = self.kernel.now
        start_tx = max(now, link.busy_until)
        ser = link.serialization_time(nbytes) + self.per_message_overhead
        return TransferPlan(
            start=now,
            queue_delay=start_tx - now,
            serialization=ser,
            latency=link.latency,
        )

    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        """Send ``nbytes`` from ``src`` to ``dst``; event fires on arrival.

        The event value is the :class:`TransferPlan` actually realised.
        """
        if nbytes < 0:
            raise SimulationError("nbytes must be >= 0")
        link = self.link(src, dst)
        plan = self.plan_transfer(src, dst, nbytes)
        link.busy_until = plan.start + plan.queue_delay + plan.serialization
        link.stats.messages += 1
        link.stats.bytes += nbytes
        link.stats.busy_seconds += plan.serialization
        done = self.kernel.event()
        # priority 1: deliveries run after same-instant local bookkeeping
        self.kernel.call_at(
            plan.arrival, lambda: done.succeed(plan), priority=1
        )
        return done

    def estimate_seconds(self, src: str, dst: str, nbytes: int) -> float:
        """Contention-free latency+bandwidth estimate (the agent's model)."""
        link = self.link(src, dst)
        return (
            link.latency
            + nbytes / link.bandwidth
            + self.per_message_overhead
        )

    def total_messages(self) -> int:
        return sum(l.stats.messages for l in self._links.values())

    def total_bytes(self) -> int:
        return sum(l.stats.bytes for l in self._links.values())
