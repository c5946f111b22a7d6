"""One-call builders for simulated NetSolve deployments.

Everything an experiment needs — kernel, topology, transport, agent,
servers, clients, RNG streams, event trace — assembled from declarative
host/server/client definitions.  All benchmarks and the integration
tests build their worlds through this module, so deployment conventions
(addresses, link tables, settle behaviour) live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .config import (
    AgentConfig,
    ClientConfig,
    ServerConfig,
    SimConfig,
    replace_validated,
)
from .core.agent import Agent
from .core.client import NetSolveClient, RequestHandle
from .core.predictor import LinkEstimate, StaticNetworkInfo
from .core.server import ComputationalServer
from .errors import ConfigError, SimulationError
from .problems.builtin import builtin_registry
from .problems.registry import ProblemRegistry
from .protocol.transport import SimTransport
from .simnet.kernel import EventKernel
from .simnet.network import Topology
from .simnet.rng import RngStreams
from .trace.events import EventLog
from .trace.instruments import Observability

__all__ = [
    "HostDef",
    "ServerDef",
    "ClientDef",
    "LinkDef",
    "Testbed",
    "build_testbed",
    "standard_testbed",
    "fleet_testbed",
    "AGENT_ADDRESS",
    "server_address",
    "client_address",
]

AGENT_ADDRESS = "agent"

#: 1996-flavoured defaults: 10 Mb/s shared Ethernet, 2 ms latency
DEFAULT_LATENCY = 2e-3
DEFAULT_BANDWIDTH = 1.25e6


def server_address(server_id: str) -> str:
    return f"server/{server_id}"


def client_address(client_id: str) -> str:
    return f"client/{client_id}"


@dataclass(frozen=True)
class HostDef:
    name: str
    mflops: float
    background_load: float = 0.0
    #: virtual CPU count (executor slots the host can truly parallelize)
    cpus: int = 1


@dataclass(frozen=True)
class LinkDef:
    a: str
    b: str
    latency: float = DEFAULT_LATENCY
    bandwidth: float = DEFAULT_BANDWIDTH


@dataclass(frozen=True)
class ServerDef:
    server_id: str
    host: str
    #: None = full builtin catalogue; otherwise a subset of problem names
    problems: Optional[tuple[str, ...]] = None
    cfg: ServerConfig = field(default_factory=ServerConfig)
    #: advertised speed; None = the host's true rating (honest server)
    mflops: Optional[float] = None
    #: custom registry; None = (subset of) the builtin catalogue
    registry: Optional[ProblemRegistry] = None
    #: which agent this server registers with (federated deployments)
    agent: str = AGENT_ADDRESS
    #: ordered agent failover rotation; empty = just ``agent``.  When
    #: set, the first entry is the home agent and the rest are tried in
    #: order on RegisterAck silence
    agents: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClientDef:
    client_id: str
    host: str
    cfg: ClientConfig = field(default_factory=ClientConfig)
    #: which agent this client queries (federated deployments)
    agent: str = AGENT_ADDRESS
    #: ordered agent failover rotation; empty = just ``agent``
    agents: tuple[str, ...] = ()


class Testbed:
    """A running simulated deployment."""

    def __init__(
        self,
        *,
        kernel: EventKernel,
        topology: Topology,
        transport: SimTransport,
        agent: Agent,
        servers: dict[str, ComputationalServer],
        clients: dict[str, NetSolveClient],
        rng: RngStreams,
        trace: EventLog,
        sim: SimConfig,
        observability: Observability | None = None,
    ):
        self.kernel = kernel
        self.topology = topology
        self.transport = transport
        self.agent = agent
        self.servers = servers
        self.clients = clients
        self.rng = rng
        self.trace = trace
        self.sim = sim
        #: the metrics/span bundle every role reports into (None when the
        #: deployment was built unobserved — the default)
        self.observability = observability
        #: all agents by address (populated by build_testbed; the primary
        #: is also available as .agent)
        self.agents: dict[str, Agent] = {AGENT_ADDRESS: agent}

    # ------------------------------------------------------------------
    def client(self, client_id: str) -> NetSolveClient:
        try:
            return self.clients[client_id]
        except KeyError:
            raise SimulationError(f"unknown client {client_id!r}") from None

    def server(self, server_id: str) -> ComputationalServer:
        try:
            return self.servers[server_id]
        except KeyError:
            raise SimulationError(f"unknown server {server_id!r}") from None

    def host(self, name: str):
        return self.topology.host(name)

    # ------------------------------------------------------------------
    def injector(self):
        """A :class:`~repro.core.faults.FailureInjector` over this
        deployment's transport — the one-liner for crash/revive
        schedules in lifecycle tests and fault experiments."""
        from .core.faults import FailureInjector

        return FailureInjector(self.transport)

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Advance virtual time."""
        return self.kernel.run(until=until)

    def settle(self, seconds: float | None = None) -> None:
        """Let registrations and the first workload reports land."""
        if seconds is None:
            steps = [
                s.cfg.workload.time_step for s in self.servers.values()
            ] or [10.0]
            seconds = max(steps) + 1.0
        self.kernel.run(until=self.kernel.now + seconds)

    def submit(
        self, client_id: str, problem: str, args: Sequence[Any],
        *, keep_result: bool = False, payloads: Optional[dict] = None,
        qos: str = "",
    ) -> RequestHandle:
        """Non-blocking submit (the ``netslnb`` path)."""
        return self.client(client_id).submit(
            problem, args, keep_result=keep_result, payloads=payloads,
            qos=qos,
        )

    def solve(
        self,
        client_id: str,
        problem: str,
        args: Sequence[Any],
        *,
        keep_result: bool = False,
        payloads: Optional[dict] = None,
        limit: float | None = None,
    ) -> tuple:
        """Blocking solve (the ``netsl`` path): submit, run, return outputs."""
        handle = self.submit(
            client_id, problem, args,
            keep_result=keep_result, payloads=payloads,
        )
        return self.transport.run_until(handle.promise, limit=limit)

    def store(
        self, client_id: str, server_id: str, key: str, value: Any,
        *, limit: float | None = None,
    ):
        """Blocking store of an operand on a server; returns its
        :class:`~repro.protocol.messages.DataHandle` (digest, size and
        shape metadata included) for referencing or fetching later."""
        promise = self.client(client_id).store(
            server_address(server_id), key, value
        )
        return self.transport.run_until(promise, limit=limit)

    def fetch(
        self, client_id: str, handle, *, address: str = "",
        limit: float | None = None,
    ):
        """Blocking :meth:`NetSolveClient.fetch`: pull a resident
        object's value back by handle."""
        promise = self.client(client_id).fetch(handle, address=address)
        return self.transport.run_until(promise, limit=limit)

    def solve_dag(
        self, client_id: str, nodes: Sequence[dict], *, address: str = "",
        on_node=None, limit: float | None = None,
    ) -> tuple:
        """Blocking :meth:`NetSolveClient.submit_dag`: returns the
        emitted outputs tuple."""
        promise = self.client(client_id).submit_dag(
            nodes, address=address, on_node=on_node
        )
        return self.transport.run_until(promise, limit=limit)

    def fetch_result(
        self,
        client_id: str,
        server_id: str,
        request_id: int,
        *,
        client: str = "",
        limit: float | None = None,
    ):
        """Blocking :meth:`NetSolveClient.fetch_result`: recover a
        finished result from a server's persistent job store.  Returns
        the :class:`~repro.protocol.messages.ResultStatus` message."""
        promise = self.client(client_id).fetch_result(
            server_address(server_id), request_id, client=client
        )
        return self.transport.run_until(promise, limit=limit)

    def wait_all(
        self, handles: Sequence[RequestHandle], *, limit: float | None = None
    ) -> list[RequestHandle]:
        """Run until every handle settles; failed requests stay failed
        (inspect ``handle.status``), nothing raises here."""
        self.kernel.run(
            until=limit, stop=lambda: all(h.done for h in handles)
        )
        missing = [h for h in handles if not h.done]
        if missing:
            raise SimulationError(
                f"{len(missing)} request(s) never settled "
                f"(now={self.kernel.now:.1f})"
            )
        return list(handles)

    # ------------------------------------------------------------------
    def _require_observability(self) -> Observability:
        if self.observability is None:
            raise SimulationError(
                "testbed was built without observability; pass "
                "observability=Observability() to build_testbed"
            )
        return self.observability

    def metrics_snapshot(self, *, max_spans: int | None = None) -> dict:
        """JSON-able metrics + span dump of the run so far."""
        return self._require_observability().snapshot(max_spans=max_spans)

    def metrics_report(self, *, max_spans: int = 0) -> str:
        """Text report of the run so far (``max_spans`` > 0 appends
        per-request span timelines)."""
        return self._require_observability().report(max_spans=max_spans)


def build_testbed(
    *,
    hosts: Sequence[HostDef],
    servers: Sequence[ServerDef],
    clients: Sequence[ClientDef],
    agent_host: str,
    links: Sequence[LinkDef] = (),
    default_link: LinkDef | None = LinkDef("*", "*"),
    sim: SimConfig = SimConfig(),
    agent_cfg: AgentConfig = AgentConfig(),
    use_workload: bool = True,
    assignment_feedback: bool = True,
    network_override=None,
    extra_agents: Sequence[tuple[str, str]] = (),
    observability: Observability | None = None,
) -> Testbed:
    """Assemble a deployment.

    Explicit ``links`` take precedence; remaining host pairs get
    ``default_link`` parameters (set ``default_link=None`` to require a
    fully explicit link list).  The agent's network table is loaded from
    the same link definitions — representing NetSolve's network
    measurements — but never sees per-message overhead or contention:
    it holds the explicit links plus one default estimate, not a copy
    per host pair.
    ``network_override`` replaces that oracle table entirely (e.g. a
    :class:`~repro.core.predictor.LearnedNetworkInfo` over a wrong prior
    for the measurement-loop experiments).  ``extra_agents`` adds
    federated sibling agents as ``(address, host)`` pairs — all agents
    peer with each other, and ``ServerDef.agent`` / ``ClientDef.agent``
    choose each component's home agent.  ``observability`` attaches one
    metrics registry (and span log, for clients) to every role; omit it
    and the components' counts are simply not collected.
    """
    if not hosts:
        raise ConfigError("need at least one host")
    kernel = EventKernel()
    rng = RngStreams(sim.seed)
    trace = EventLog()
    topology = Topology(kernel, per_message_overhead=sim.per_message_overhead)
    for h in hosts:
        topology.add_host(
            h.name, h.mflops, background_load=h.background_load, cpus=h.cpus
        )
    for link in links:
        topology.add_link(
            link.a, link.b, latency=link.latency, bandwidth=link.bandwidth
        )
    if default_link is not None:
        topology.connect_all(
            latency=default_link.latency, bandwidth=default_link.bandwidth
        )

    # the agent's "measured" network characteristics.  A callable
    # network_override is a per-agent *factory* (called once per agent
    # address) so federated agents get independent tables — the only way
    # TransferReport mirroring is observable; a plain object is shared,
    # and the default read-only StaticNetworkInfo is shared too (no
    # observe(), so one table serves every agent identically)
    if network_override is not None:
        network_for = (
            network_override
            if callable(network_override)
            else lambda addr: network_override
        )
    else:
        # the explicit links, then one estimate for every other pair:
        # connect_all has built no mesh link yet, so links() is exactly
        # the explicit ones
        static = StaticNetworkInfo(
            default=None if default_link is None else LinkEstimate(
                latency=float(default_link.latency),
                bandwidth=float(default_link.bandwidth),
            )
        )
        for link_obj in topology.links():
            static.set(
                link_obj.src,
                link_obj.dst,
                LinkEstimate(
                    latency=link_obj.latency, bandwidth=link_obj.bandwidth
                ),
            )
        network_for = lambda addr: static

    metrics = observability.metrics if observability is not None else None
    spans = observability.spans if observability is not None else None
    transport = SimTransport(
        topology, codec_roundtrip=sim.codec_roundtrip, metrics=metrics
    )
    agent_defs = [(AGENT_ADDRESS, agent_host), *extra_agents]
    agent_addresses = [addr for addr, _h in agent_defs]
    if len(set(agent_addresses)) != len(agent_addresses):
        raise ConfigError("duplicate agent address")
    agents: dict[str, Agent] = {}
    for addr, host_name in agent_defs:
        peer_list = tuple(a for a in agent_addresses if a != addr)
        sibling = Agent(
            network=network_for(addr),
            cfg=agent_cfg,
            rng=rng.get(f"{addr}.policy"),
            trace=trace,
            use_workload=use_workload,
            assignment_feedback=assignment_feedback,
            peers=peer_list,
            metrics=metrics,
        )
        transport.add_node(addr, host_name, sibling)
        agents[addr] = sibling
    agent = agents[AGENT_ADDRESS]

    server_map: dict[str, ComputationalServer] = {}
    for sd in servers:
        if sd.server_id in server_map:
            raise ConfigError(f"duplicate server id {sd.server_id!r}")
        registry = sd.registry
        if registry is None:
            registry = builtin_registry()
            if sd.problems is not None:
                registry = registry.subset(sd.problems)
        host = topology.host(sd.host)
        rotation = sd.agents if sd.agents else (sd.agent,)
        for a in rotation:
            if a not in agents:
                raise ConfigError(
                    f"server {sd.server_id!r}: unknown agent {a!r}"
                )
        server = ComputationalServer(
            server_id=sd.server_id,
            agent_address=list(rotation),
            registry=registry,
            mflops=sd.mflops if sd.mflops is not None else host.mflops,
            host=sd.host,
            cfg=sd.cfg,
            trace=trace,
            metrics=metrics,
        )
        transport.add_node(server_address(sd.server_id), sd.host, server)
        server_map[sd.server_id] = server

    client_map: dict[str, NetSolveClient] = {}
    for cd in clients:
        if cd.client_id in client_map:
            raise ConfigError(f"duplicate client id {cd.client_id!r}")
        rotation = cd.agents if cd.agents else (cd.agent,)
        for a in rotation:
            if a not in agents:
                raise ConfigError(
                    f"client {cd.client_id!r}: unknown agent {a!r}"
                )
        client = NetSolveClient(
            client_id=cd.client_id,
            agent_address=list(rotation),
            cfg=cd.cfg,
            trace=trace,
            metrics=metrics,
            spans=spans,
        )
        transport.add_node(client_address(cd.client_id), cd.host, client)
        client_map[cd.client_id] = client

    tb = Testbed(
        kernel=kernel,
        topology=topology,
        transport=transport,
        agent=agent,
        servers=server_map,
        clients=client_map,
        rng=rng,
        trace=trace,
        sim=sim,
        observability=observability,
    )
    tb.agents = agents
    return tb


def standard_testbed(
    *,
    n_servers: int = 4,
    server_mflops: Sequence[float] | None = None,
    client_mflops: float = 20.0,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
    seed: int = 0,
    problems: Optional[tuple[str, ...]] = None,
    agent_cfg: AgentConfig = AgentConfig(),
    client_cfg: ClientConfig = ClientConfig(),
    server_cfg: ServerConfig = ServerConfig(),
    use_workload: bool = True,
    assignment_feedback: bool = True,
    observability: Observability | None = None,
    cache_entries: int = 0,
    cache_ttl: float = 0.0,
) -> Testbed:
    """The canonical experiment world: one client host, one agent host,
    ``n_servers`` heterogeneous server hosts on a shared LAN.

    Server speeds default to 50, 100, 150, ... Mflop/s — a spread wide
    enough that scheduling decisions matter.

    ``cache_entries > 0`` turns on the result-cache stack end to end:
    every server and the agent get a cache of that size (and TTL), and
    the client computes request digests so the agent's hot cache can
    answer repeats in one RTT.  Zero (the default) leaves every layer
    exactly as uncached deployments have always been.
    """
    if n_servers < 1:
        raise ConfigError("need at least one server")
    if cache_entries > 0:
        agent_cfg = replace_validated(
            agent_cfg, cache_entries=cache_entries, cache_ttl=cache_ttl
        )
        server_cfg = replace_validated(
            server_cfg,
            cache_entries=cache_entries,
            cache_ttl=cache_ttl,
            # publish anything the agent would accept into its hot cache
            cache_publish_bytes=agent_cfg.cache_entry_bytes,
        )
        client_cfg = replace_validated(client_cfg, cache_digest=True)
    if server_mflops is None:
        server_mflops = [50.0 * (i + 1) for i in range(n_servers)]
    if len(server_mflops) != n_servers:
        raise ConfigError("server_mflops length must match n_servers")
    hosts = [
        HostDef("apollo", client_mflops),
        HostDef("hermes", 50.0),  # the agent's machine
    ]
    servers = []
    for i, mflops in enumerate(server_mflops):
        name = f"zeus{i}"
        hosts.append(HostDef(name, mflops))
        servers.append(
            ServerDef(
                server_id=f"s{i}", host=name, problems=problems, cfg=server_cfg
            )
        )
    return build_testbed(
        hosts=hosts,
        servers=servers,
        clients=[ClientDef("c0", "apollo", cfg=client_cfg)],
        agent_host="hermes",
        default_link=LinkDef("*", "*", latency=latency, bandwidth=bandwidth),
        sim=SimConfig(seed=seed),
        agent_cfg=agent_cfg,
        use_workload=use_workload,
        assignment_feedback=assignment_feedback,
        observability=observability,
    )


def fleet_testbed(
    *,
    n_agents: int = 3,
    n_servers: int = 4,
    n_clients: int = 2,
    server_mflops: Sequence[float] | None = None,
    client_mflops: float = 20.0,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
    seed: int = 0,
    problems: Optional[tuple[str, ...]] = None,
    shard: bool = False,
    sync_interval: float = 10.0,
    agent_cfg: AgentConfig = AgentConfig(),
    client_cfg: ClientConfig = ClientConfig(),
    server_cfg: ServerConfig = ServerConfig(),
    observability: Observability | None = None,
) -> Testbed:
    """The canonical agent-fleet world: ``n_agents`` peered agents, each
    on its own host, with servers and clients spread round-robin across
    them.

    Every server and client carries the *full* agent rotation (its home
    agent first), so agent death exercises the failover paths instead of
    stranding anyone.  ``shard`` turns on consistent-hash query
    ownership; ``sync_interval`` paces anti-entropy (and the peer
    heartbeat the shard forwarder relies on).
    """
    if n_agents < 1:
        raise ConfigError("need at least one agent")
    if n_servers < 1:
        raise ConfigError("need at least one server")
    if n_clients < 1:
        raise ConfigError("need at least one client")
    agent_cfg = replace_validated(
        agent_cfg, shard=shard, sync_interval=sync_interval
    )
    agent_addresses = [AGENT_ADDRESS] + [
        f"{AGENT_ADDRESS}-{i}" for i in range(1, n_agents)
    ]
    if server_mflops is None:
        server_mflops = [50.0 * (i + 1) for i in range(n_servers)]
    if len(server_mflops) != n_servers:
        raise ConfigError("server_mflops length must match n_servers")

    hosts = [HostDef(f"hera{i}", 50.0) for i in range(n_agents)]

    def rotation(start: int) -> tuple[str, ...]:
        return tuple(
            agent_addresses[(start + k) % n_agents] for k in range(n_agents)
        )

    servers = []
    for i, mflops in enumerate(server_mflops):
        name = f"zeus{i}"
        hosts.append(HostDef(name, mflops))
        servers.append(
            ServerDef(
                server_id=f"s{i}",
                host=name,
                problems=problems,
                cfg=server_cfg,
                agents=rotation(i),
            )
        )
    clients = []
    for j in range(n_clients):
        name = f"apollo{j}"
        hosts.append(HostDef(name, client_mflops))
        clients.append(
            ClientDef(
                client_id=f"c{j}",
                host=name,
                cfg=client_cfg,
                agents=rotation(j),
            )
        )
    return build_testbed(
        hosts=hosts,
        servers=servers,
        clients=clients,
        agent_host="hera0",
        extra_agents=[
            (addr, f"hera{i}")
            for i, addr in enumerate(agent_addresses)
            if i > 0
        ],
        default_link=LinkDef("*", "*", latency=latency, bandwidth=bandwidth),
        sim=SimConfig(seed=seed),
        agent_cfg=agent_cfg,
        observability=observability,
    )
