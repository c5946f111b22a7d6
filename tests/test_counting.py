"""One count per fact: the registry reads what components count.

Covers what nothing checked while counts were kept twice: aggregation
over several owners in one registry (counters sum, ``server.peak_queue``
is the max, gauges sum and return to zero, also across a crash/revive),
isolation of two registries in one process, a replaced server object
keeping the dead incarnation's counts, and ``Agent.failures_reported``
against the two registry names it spans.  (The stale
``agent.servers_alive`` regression sits with the agent's unit tests.)
"""

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.request import RequestStatus
from repro.core.server import ComputationalServer
from repro.errors import NetSolveError
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import SolveReply, SolveRequest
from repro.protocol.transport import Component, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology
from repro.testbed import (
    ClientDef,
    HostDef,
    LinkDef,
    ServerDef,
    build_testbed,
    server_address,
    standard_testbed,
)
from repro.trace.instruments import (
    NO_HISTOGRAM,
    Metric,
    MetricsRegistry,
    Observability,
    track,
)


def linsys(seed, n=200):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)]


class Probe(Component):
    def __init__(self):
        self.inbox = []

    def on_message(self, src, msg):
        self.inbox.append(msg)


# ----------------------------------------------------------------------
# the mechanism, on a toy owner
# ----------------------------------------------------------------------
class Till:
    METRICS = (
        Metric("till.sales", "sales", "sales rung up"),
        Metric("till.open", "open_drawers", "drawers open now", "gauge"),
        Metric("till.longest_line", "longest_line", "longest line seen",
               "gauge", max),
        Metric("till.refunds", "ledger.refunds", "refunds (the ledger's count)"),
        Metric("till.sale_seconds", "_sale_seconds", "time per sale",
               "histogram"),
    )

    class Ledger:
        refunds = 0

    def __init__(self, registry=None):
        self.ledger = self.Ledger()
        self.drawers = []
        track(self, registry)

    @property
    def open_drawers(self):
        return len(self.drawers)


def test_track_zeroes_owned_counts_and_leaves_the_rest():
    till = Till()
    assert till.sales == 0 and till.longest_line == 0
    assert till._metrics is None
    assert till._sale_seconds is NO_HISTOGRAM
    till._sale_seconds.observe(1.0)  # unobserved: accepted, kept nowhere
    assert "open_drawers" not in vars(till)  # a property stays a property
    assert "ledger.refunds" not in vars(till)


def test_registry_reads_owners_when_asked():
    reg = MetricsRegistry()
    a, b = Till(reg), Till(reg)
    a.sales += 3
    b.sales += 4
    a.longest_line, b.longest_line = 2, 5
    a.drawers.append("d")
    b.ledger.refunds = 2
    a._sale_seconds.observe(0.5)
    b._sale_seconds.observe(1.5)
    snap = reg.snapshot()
    assert snap["counters"] == {"till.sales": 7, "till.refunds": 2}
    assert snap["gauges"] == {"till.open": 1.0, "till.longest_line": 5.0}
    assert snap["histograms"]["till.sale_seconds"]["count"] == 2
    # reads by name are live, through get() and the typed accessors
    assert reg.get("till.sales").value == 7
    assert reg.counter("till.sales").value == 7
    a.sales += 1
    a.drawers.clear()
    assert reg.get("till.sales").value == 8
    assert reg.gauge("till.open").value == 0
    with pytest.raises(NetSolveError):
        reg.gauge("till.sales")  # a declared name keeps its kind
    assert len(reg) == 5


def test_two_registries_stay_isolated():
    one, two = MetricsRegistry(), MetricsRegistry()
    a, b, unobserved = Till(one), Till(two), Till()
    a.sales += 1
    b.sales += 10
    unobserved.sales += 100
    a._sale_seconds.observe(1.0)
    assert one.snapshot()["counters"]["till.sales"] == 1
    assert two.snapshot()["counters"]["till.sales"] == 10
    assert one.get("till.sale_seconds").count == 1
    assert two.get("till.sale_seconds").count == 0


# ----------------------------------------------------------------------
# aggregation over a real deployment
# ----------------------------------------------------------------------
def two_by_two(obs):
    """Two one-slot servers and two clients reporting into one registry."""
    cfg = ServerConfig(max_concurrent=1)
    return build_testbed(
        hosts=[HostDef("apollo", 20.0), HostDef("hermes", 50.0),
               HostDef("zeus0", 60.0), HostDef("zeus1", 90.0)],
        servers=[ServerDef("s0", "zeus0", cfg=cfg),
                 ServerDef("s1", "zeus1", cfg=cfg)],
        clients=[ClientDef("c0", "apollo"), ClientDef("c1", "apollo")],
        agent_host="hermes",
        # a fast LAN, so requests pile up on the servers, not the wire
        default_link=LinkDef("*", "*", latency=1e-3, bandwidth=1e9),
        observability=obs,
    )


def test_counters_sum_peak_is_max_and_gauges_return_to_zero():
    obs = Observability()
    tb = two_by_two(obs)
    tb.settle()
    handles = [
        tb.submit(f"c{k % 2}", "linsys/dgesv", linsys(k)) for k in range(12)
    ]
    # mid-flight: the gauges are the state, summed over owners
    tb.run(until=tb.kernel.now + 0.15)
    gauges = obs.metrics.snapshot()["gauges"]
    clients, servers = tb.clients.values(), tb.servers.values()
    assert gauges["client.active_requests"] == sum(
        len(c._active) for c in clients) > 0
    assert gauges["server.executing"] == sum(s.executing for s in servers) == 2
    assert gauges["server.queue_depth"] == sum(
        s.queue_depth for s in servers) > 2
    tb.wait_all(handles)
    tb.run(until=tb.kernel.now + 5.0)
    assert all(h.status is RequestStatus.DONE for h in handles)

    snap = obs.metrics.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    served = [s.requests_served for s in servers]
    assert all(served), "the traffic reached one server only"
    assert counters["server.ok"] == sum(served) == 12
    assert counters["server.requests"] == 12
    assert counters["client.submits"] == sum(c.submits for c in clients) == 12
    assert [c.submits for c in clients] == [6, 6]
    assert counters["client.requests_done"] == 12
    assert counters["wire.messages"] == sum(
        n.messages_sent for n in tb.transport.nodes.values())
    peaks = [s.peak_queue for s in servers]
    assert gauges["server.peak_queue"] == max(peaks) > 0
    assert max(peaks) < sum(peaks), "both servers queued: max is not sum"
    for name in ("server.queue_depth", "server.executing",
                 "client.active_requests"):
        assert gauges[name] == 0, name
    assert gauges["agent.servers_total"] == gauges["agent.servers_alive"] == 2


def test_gauges_survive_a_crash_and_revive_without_correction():
    """A server killed with work queued and executing comes back empty;
    the gauges say so because they *are* the state (the old hand-kept
    ones needed a correction in ``on_restart``)."""
    obs = Observability()
    tb = two_by_two(obs)
    tb.settle()
    handles = [tb.submit("c0", "linsys/dgesv", linsys(k)) for k in range(8)]
    tb.run(until=tb.kernel.now + 0.1)
    busiest = max(tb.servers.values(), key=lambda s: s.queue_depth)
    assert busiest.executing == 1 and busiest.queue_depth > 0
    address = server_address(busiest.server_id)
    tb.transport.crash(address)
    tb.transport.revive(address)
    assert busiest.executing == 0 and busiest.queue_depth == 0
    other = next(s for s in tb.servers.values() if s is not busiest)
    gauges = obs.metrics.snapshot()["gauges"]
    assert gauges["server.executing"] == other.executing
    assert gauges["server.queue_depth"] == other.queue_depth
    tb.wait_all(handles, limit=tb.kernel.now + 48 * 3600.0)
    tb.run(until=tb.kernel.now + 5.0)
    snap = obs.metrics.snapshot()
    assert all(h.status is RequestStatus.DONE for h in handles)
    for name in ("server.queue_depth", "server.executing",
                 "client.active_requests"):
        assert snap["gauges"][name] == 0, name
    # the lost work was retried, so more attempts than requests
    assert snap["counters"]["client.attempts"] > 8
    assert snap["counters"]["server.ok"] == sum(
        s.requests_served for s in tb.servers.values())


def test_replaced_server_object_keeps_the_dead_incarnations_counts():
    """The ``test_store_recovery`` pattern: the transport is torn down
    and a *new* server object takes the address.  The registry keeps the
    dead object attached, so what it served is still reported."""
    registry = MetricsRegistry()

    def world():
        kernel = EventKernel()
        topo = Topology(kernel)
        topo.add_host("sh", 100.0)
        topo.add_host("ph", 100.0)
        topo.connect_all(latency=1e-4, bandwidth=1e9)
        transport = SimTransport(topo, metrics=registry)
        server = ComputationalServer(
            server_id="sv", agent_address="nobody",
            registry=builtin_registry().subset(("linsys/dgesv",)),
            mflops=100.0, host="sh", metrics=registry,
        )
        probe = Probe()
        transport.add_node("probe", "ph", probe)
        transport.add_node("server/sv", "sh", server)
        return kernel, transport, server, probe

    def serve(kernel, transport, probe, count):
        for rid in range(1, count + 1):
            transport.node("probe").send("server/sv", SolveRequest(
                request_id=rid, problem="linsys/dgesv",
                inputs=tuple(linsys(rid, 16)), reply_to="probe",
            ))
        kernel.run(until=kernel.now + 60.0)
        assert sum(isinstance(m, SolveReply) for m in probe.inbox) == count

    kernel, transport, first, probe = world()
    serve(kernel, transport, probe, 3)
    transport.crash("server/sv")  # killed, never revived
    kernel, transport, second, probe = world()
    serve(kernel, transport, probe, 2)
    assert (first.requests_served, second.requests_served) == (3, 2)
    counters = registry.snapshot()["counters"]
    assert counters["server.ok"] == 5
    assert counters["server.requests"] == 5
    # both transports report too: 3 + 2 requests and as many replies,
    # plus each server's one undeliverable registration
    assert counters["wire.delivered"] == 10
    assert counters["wire.dropped"] >= 2


# ----------------------------------------------------------------------
# an attribute that deliberately spans two registry names
# ----------------------------------------------------------------------
def test_failures_reported_is_failure_reports_plus_busy_reports():
    obs = Observability()
    tb = standard_testbed(
        n_servers=3, seed=5, observability=obs, bandwidth=1e9,
        server_cfg=ServerConfig(max_queue=1),
    )
    tb.settle()
    handles = [tb.submit("c0", "linsys/dgesv", linsys(k, 200)) for k in range(16)]
    tb.transport.crash(server_address("s2"))
    tb.wait_all(handles, limit=tb.kernel.now + 48 * 3600.0)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["agent.busy_reports"] > 0
    assert counters["agent.failure_reports"] > 0
    assert (
        counters["agent.failure_reports"] + counters["agent.busy_reports"]
        == tb.agent.failures_reported
    )
    assert counters["agent.busy_reports"] == tb.agent.busy_reports_received


def test_every_cache_eviction_is_reported(tmp_path):
    """``server.cache_evictions`` is the cache's own count.  The
    before/after delta it used to be kept by only watched fresh inserts,
    so an eviction caused by promoting a job-store hit into a full
    memory cache (the post-restart warming path) went unreported."""
    obs = Observability()
    tb = standard_testbed(
        n_servers=1, seed=3, observability=obs,
        server_cfg=ServerConfig(
            cache_entries=1, store_path=str(tmp_path / "jobs.sqlite")),
    )
    tb.settle()
    systems = [linsys(k, 24) for k in range(2)]
    try:
        for system in systems:
            tb.solve("c0", "linsys/dgesv", system)  # the second evicts
        tb.transport.crash(server_address("s0"))    # memory cache lost
        tb.transport.revive(server_address("s0"))
        tb.settle()
        for system in systems:
            tb.solve("c0", "linsys/dgesv", system)  # promoted; evicts again
        counters = obs.metrics.snapshot()["counters"]
        assert counters["server.store_hits"] == 2
        assert tb.server("s0").result_cache.evictions == 2
        assert counters["server.cache_evictions"] == 2
    finally:
        tb.server("s0").on_shutdown()  # releases the SQLite handle
