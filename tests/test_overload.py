"""Overload protection: bounded admission, Busy failover, penalties.

Covers the three roles of the shed pipeline:

* **server** — ``max_queue`` admission: past the cap a request is
  refused with a retryable :class:`Busy` reply, never queued;
* **client** — a Busy reply counts as a failover: the attempt records
  outcome "busy", a ``FailureReport(kind="busy")`` goes to the agent,
  and the request falls through to the next candidate;
* **agent** — a busy report applies a decaying workload penalty in the
  MCT ranking instead of marking the server dead.
"""

import numpy as np
import pytest

from repro.config import AgentConfig, ClientConfig, ServerConfig
from repro.core.registry import ServerTable
from repro.core.request import RequestStatus
from repro.protocol.messages import Busy, FailureReport, SolveReply, SolveRequest
from repro.testbed import (
    ClientDef,
    HostDef,
    LinkDef,
    ServerDef,
    build_testbed,
    server_address,
    standard_testbed,
)
from repro.trace.instruments import Observability

RNG = np.random.default_rng(55)


def linsys(n=64):
    a = RNG.standard_normal((n, n)) + n * np.eye(n)
    return a, RNG.standard_normal(n)


# ----------------------------------------------------------------------
# server: bounded admission
# ----------------------------------------------------------------------
def make_server_world(cfg):
    from repro.problems.builtin import builtin_registry
    from repro.core.server import ComputationalServer
    from repro.protocol.transport import Component, SimTransport
    from repro.simnet.kernel import EventKernel
    from repro.simnet.network import Topology

    class Probe(Component):
        def __init__(self):
            self.inbox = []

        def on_message(self, src, msg):
            self.inbox.append((src, msg))

        def of_type(self, cls):
            return [m for _s, m in self.inbox if isinstance(m, cls)]

    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("sh", 100.0)
    topo.add_host("ph", 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    server = ComputationalServer(
        server_id="sv",
        agent_address="agent-probe",
        registry=builtin_registry().subset(("linsys/dgesv",)),
        mflops=100.0,
        host="sh",
        cfg=cfg,
    )
    probe = Probe()
    transport.add_node("agent-probe", "ph", Probe())
    transport.add_node("client-probe", "ph", probe)
    transport.add_node("server/sv", "sh", server)
    return kernel, transport, server, probe


def send_solves(transport, count, n=512):
    for rid in range(1, count + 1):
        a, b = linsys(n)
        transport.node("client-probe").send(
            "server/sv",
            SolveRequest(
                request_id=rid, problem="linsys/dgesv", inputs=(a, b),
                reply_to="client-probe",
            ),
        )


def test_max_queue_sheds_with_busy():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, max_queue=1)
    )
    send_solves(transport, 4)  # 1 executes, 1 queues, 2 shed
    kernel.run(until=0.1)
    assert server.executing == 1
    assert server.queue_depth == 1
    assert server.requests_shed == 2
    busy = probe.of_type(Busy)
    assert [m.request_id for m in busy] == [3, 4]
    assert all(m.queue_depth == 1 for m in busy)
    assert all("queue full" in m.detail for m in busy)
    # the admitted requests still complete, FIFO
    kernel.run(until=60.0)
    replies = probe.of_type(SolveReply)
    assert [r.request_id for r in replies] == [1, 2]
    assert all(r.ok for r in replies)
    # the audit trail: the queue never exceeded the cap
    assert server.peak_queue == 1


def test_queue_reopens_after_drain():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, max_queue=1)
    )
    send_solves(transport, 3)  # third shed
    kernel.run(until=60.0)  # drain completely
    assert server.requests_shed == 1
    send_solves(transport, 1)  # capacity is back: admitted
    kernel.run(until=120.0)
    assert server.requests_shed == 1
    assert server.requests_served == 3


def test_unbounded_default_never_sheds():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1)  # max_queue=0: unbounded
    )
    send_solves(transport, 6)
    kernel.run(until=0.1)
    assert server.queue_depth == 5
    assert server.requests_shed == 0
    assert probe.of_type(Busy) == []
    kernel.run(until=120.0)
    assert server.requests_served == 6


# ----------------------------------------------------------------------
# client: Busy failover
# ----------------------------------------------------------------------
def overload_world(observability=None):
    """Two servers; the fast one (ranked first) has a tight admission
    cap, so saturating it makes the next brokered request shed."""
    return build_testbed(
        hosts=[HostDef("ch", 20.0), HostDef("ah", 50.0),
               HostDef("fast", 500.0), HostDef("slow", 100.0)],
        servers=[
            ServerDef("sfast", "fast",
                      cfg=ServerConfig(max_concurrent=1, max_queue=1)),
            ServerDef("sslow", "slow",
                      cfg=ServerConfig(max_concurrent=1, max_queue=1)),
        ],
        clients=[ClientDef("c0", "ch")],
        agent_host="ah",
        default_link=LinkDef("*", "*", latency=1e-3, bandwidth=12.5e6),
        observability=observability,
    )


def saturate(tb, server_id, count=2, n=700):
    """Fill a server's execution slot + queue with pinned requests
    (pinned submits bypass the agent, so its view stays stale)."""
    handles = []
    for _ in range(count):
        handles.append(
            tb.client("c0").submit(
                "linsys/dgesv", list(linsys(n)),
                server=server_address(server_id), server_id=server_id,
            )
        )
    return handles


def test_client_busy_failover_ordering():
    obs = Observability()
    tb = overload_world(observability=obs)
    tb.settle()
    pinned = saturate(tb, "sfast")
    tb.run(until=tb.kernel.now + 0.05)  # pinned work lands at sfast
    handle = tb.submit("c0", "linsys/dgesv", list(linsys()))
    tb.wait_all([handle, *pinned], limit=tb.kernel.now + 300.0)

    assert handle.status is RequestStatus.DONE
    record = handle.record
    # attempt 1 was refused by the saturated fast server, attempt 2 won
    assert [a.outcome for a in record.attempts] == ["busy", "ok"]
    assert record.attempts[0].server_id == "sfast"
    assert record.attempts[1].server_id == "sslow"
    assert record.retries == 1

    # the agent heard about it as a busy report, not a failure
    assert tb.agent.busy_reports_received == 1
    entry = tb.agent.table.get("sfast")
    assert entry.alive, "busy must not mark the server dead"
    assert entry.busy_reports == 1
    assert entry.penalty_workload > 0

    # wire metrics for the whole pipeline
    counters = obs.metrics.snapshot()["counters"]
    assert counters["server.sheds"] == 1
    assert counters["client.busy_failovers"] == 1
    assert counters["agent.busy_reports"] == 1


def test_busy_exhaustion_requeries_with_backoff():
    """Both servers saturated: the brokered request sheds everywhere,
    re-queries with bounded backoff, and still terminates."""
    tb = overload_world()
    tb.settle()
    pinned = saturate(tb, "sfast") + saturate(tb, "sslow")
    tb.run(until=tb.kernel.now + 0.05)
    handle = tb.submit("c0", "linsys/dgesv", list(linsys(32)))
    tb.wait_all([handle, *pinned], limit=tb.kernel.now + 600.0)
    # terminal either way; with default retry budgets the pinned load
    # drains long before the budget runs out, so the request succeeds
    assert handle.status is RequestStatus.DONE
    assert any(a.outcome == "busy" for a in handle.record.attempts)


# ----------------------------------------------------------------------
# agent: penalty semantics
# ----------------------------------------------------------------------
def test_penalize_and_decay():
    table = ServerTable()
    entry = table.register(
        server_id="s0", address="a0", host="h0", mflops=100.0,
        problems={"p"}, now=0.0,
    )
    table.report_workload("s0", 50.0, now=0.0)
    assert entry.current_workload(0.0) == 50.0
    table.penalize("s0", 10.0, workload=100.0, hold_for=30.0)
    assert entry.current_workload(10.0) == 150.0
    assert entry.current_workload(39.9) == 150.0
    # decays as a whole after hold_for
    assert entry.current_workload(40.0) == 50.0
    assert entry.penalty_workload == 0.0  # lazily forgotten


def test_penalties_stack_and_extend():
    table = ServerTable()
    entry = table.register(
        server_id="s0", address="a0", host="h0", mflops=100.0,
        problems={"p"}, now=0.0,
    )
    table.penalize("s0", 0.0, workload=100.0, hold_for=30.0)
    table.penalize("s0", 10.0, workload=100.0, hold_for=30.0)
    assert entry.current_workload(10.0) == 200.0
    assert entry.penalty_until == 40.0  # extended by the second report
    assert entry.busy_reports == 2


def test_penalty_cleared_on_reregistration():
    table = ServerTable()
    table.register(
        server_id="s0", address="a0", host="h0", mflops=100.0,
        problems={"p"}, now=0.0,
    )
    table.penalize("s0", 0.0, workload=100.0, hold_for=1000.0)
    entry = table.register(  # cold restart of the server
        server_id="s0", address="a0", host="h0", mflops=100.0,
        problems={"p"}, now=5.0,
    )
    assert entry.penalty_workload == 0.0
    assert entry.current_workload(5.0) == entry.workload


def test_penalize_edge_cases():
    table = ServerTable()
    table.register(
        server_id="s0", address="a0", host="h0", mflops=100.0,
        problems={"p"}, now=0.0,
    )
    table.penalize("ghost", 0.0, workload=100.0, hold_for=30.0)  # no-op
    table.penalize("s0", 0.0, workload=0.0, hold_for=30.0)  # disabled
    entry = table.get("s0")
    assert entry.penalty_workload == 0.0 and entry.busy_reports == 0


def test_busy_report_penalizes_instead_of_killing():
    tb = standard_testbed(n_servers=2, seed=61)
    tb.settle()
    agent = tb.agent
    agent.on_message(
        "client/c0",
        FailureReport(server_id="s0", problem="linsys/dgesv", kind="busy"),
    )
    entry = agent.table.get("s0")
    assert entry.alive
    assert entry.penalty_workload == agent.cfg.busy_penalty_workload
    assert agent.busy_reports_received == 1
    # a plain failure report still suspects the server
    agent.on_message(
        "client/c0",
        FailureReport(server_id="s1", problem="linsys/dgesv"),
    )
    assert not agent.table.get("s1").alive


def test_busy_penalty_reorders_ranking():
    """Two equal servers: a busy report pushes the penalized one to the
    back of the candidate list until the penalty decays."""
    tb = standard_testbed(
        n_servers=2, server_mflops=[100.0, 100.0], seed=62,
        agent_cfg=AgentConfig(
            busy_penalty_workload=100.0, busy_penalty_seconds=60.0,
        ),
    )
    tb.settle()
    client = tb.client("c0")
    sizes = {"n": 128}

    def head():
        promise = client.query_candidates("linsys/dgesv", sizes)
        return tb.transport.run_until(promise)[0].server_id

    first = head()
    tb.agent.on_message(
        "client/c0",
        FailureReport(server_id=first, problem="linsys/dgesv", kind="busy"),
    )
    assert head() != first, "penalized server still ranked first"
    # after the penalty decays the original order returns (equal pending
    # hints: both heads consumed one assignment above)
    tb.run(until=tb.kernel.now + 120.0)
    assert tb.agent.table.get(first).current_workload(tb.kernel.now) == \
        tb.agent.table.get(first).workload


def test_penalty_disabled_is_telemetry_only():
    tb = standard_testbed(
        n_servers=1, seed=63,
        agent_cfg=AgentConfig(busy_penalty_seconds=0.0),
    )
    tb.settle()
    tb.agent.on_message(
        "client/c0",
        FailureReport(server_id="s0", problem="linsys/dgesv", kind="busy"),
    )
    entry = tb.agent.table.get("s0")
    assert entry.penalty_workload == 0.0
    assert tb.agent.busy_reports_received == 1  # still counted


# ----------------------------------------------------------------------
# determinism: the overload scenario replays bit-identically
# ----------------------------------------------------------------------
def test_overload_scenario_deterministic():
    def run_once():
        tb = overload_world()
        tb.settle()
        pinned = saturate(tb, "sfast")
        tb.run(until=tb.kernel.now + 0.05)
        handle = tb.submit("c0", "linsys/dgesv", list(linsys_fixed()))
        tb.wait_all([handle, *pinned], limit=tb.kernel.now + 300.0)
        sheds = {s: tb.servers[s].requests_shed for s in tb.servers}
        return (
            handle.record.total_seconds,
            tuple(a.outcome for a in handle.record.attempts),
            sheds,
        )

    def linsys_fixed(n=64):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        return a, rng.standard_normal(n)

    first, second = run_once(), run_once()
    assert first == second
    assert first[1] == ("busy", "ok")
    assert first[2] == {"sfast": 1, "sslow": 0}
