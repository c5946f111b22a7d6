"""Tests for the sharded, replicated agent fleet.

Covers the fleet primitives (consistent-hash ring, sync fingerprints),
the divergence bugfixes (each with a regression test that fails against
the pre-fix behaviour: silent mirror drops, silent forwarded-register
rejects, unmirrored transfer reports and cache inserts), query
sharding's one-hop forwarding, anti-entropy healing, and the client and
server agent-failover rotations.
"""

import numpy as np
import pytest

from repro.config import AgentConfig, ClientConfig
from repro.core.agent import Agent
from repro.core.fleet import HashRing, entry_fingerprint
from repro.core.predictor import (
    LearnedNetworkInfo,
    LinkEstimate,
    StaticNetworkInfo,
)
from repro.core.request import RequestStatus
from repro.errors import NetSolveError
from repro.problems.builtin import builtin_registry
from repro.problems.pdl import render_pdl
from repro.protocol.messages import (
    CacheInsert,
    Message,
    QueryReply,
    QueryRequest,
    RegisterAck,
    RegisterServer,
    TransferReport,
    WorkloadReport,
)
from repro.protocol.transport import Component, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology
from repro.simnet.rng import RngStreams
from repro.testbed import fleet_testbed
from repro.trace.events import EventLog

RNG = np.random.default_rng(42)


# ----------------------------------------------------------------------
# fleet primitives
# ----------------------------------------------------------------------
def test_hash_ring_deterministic_and_order_free():
    a = HashRing(["agent", "agent-1", "agent-2"])
    b = HashRing(["agent-2", "agent", "agent-1", "agent"])  # dup + shuffled
    keys = [f"problem/{i}" for i in range(200)]
    assert a.members == b.members
    assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]


def test_hash_ring_spread_covers_every_member():
    ring = HashRing([f"agent{i}" for i in range(4)])
    spread = ring.spread(f"k{i}" for i in range(400))
    assert set(spread) == set(ring.members)
    assert all(n > 0 for n in spread.values())
    # virtual nodes keep the skew bounded: nobody owns more than half
    assert max(spread.values()) < 200


def test_hash_ring_single_member_owns_everything():
    ring = HashRing(["only"])
    assert all(ring.owner(f"k{i}") == "only" for i in range(50))


def test_hash_ring_rejects_degenerate_input():
    with pytest.raises(NetSolveError):
        HashRing([])
    with pytest.raises(NetSolveError):
        HashRing(["a"], points_per_member=0)


def test_hash_ring_removal_only_moves_departed_keys():
    full = HashRing(["a0", "a1", "a2"])
    reduced = HashRing(["a0", "a1"])
    for i in range(300):
        key = f"k{i}"
        before = full.owner(key)
        if before != "a2":
            # consistent hashing: surviving members keep their keys
            assert reduced.owner(key) == before


def test_entry_fingerprint_tracks_shape_only():
    record = {
        "server_id": "s0", "address": "server/s0", "endpoint": "",
        "host": "zeus", "mflops": 100.0, "slots": 2,
        "problems_pdl": "problem a/b\n    complexity n\nend\n",
    }
    same = entry_fingerprint(dict(record))
    assert entry_fingerprint(record) == same
    for field, bumped in (
        ("mflops", 200.0), ("slots", 4), ("host", "hera"),
        ("problems_pdl", "problem a/c\n    complexity n\nend\n"),
    ):
        assert entry_fingerprint({**record, field: bumped}) != same
    # load and liveness are deliberately outside the fingerprint: they
    # churn constantly and heal through the mirrored report stream
    assert entry_fingerprint({**record, "workload": 350.0,
                              "alive": False}) == same


# ----------------------------------------------------------------------
# a minimal two-agent world: one real agent, one scriptable peer
# ----------------------------------------------------------------------
class Probe(Component):
    def __init__(self):
        self.inbox: list[tuple[str, Message]] = []

    def on_message(self, src, msg):
        self.inbox.append((src, msg))

    def last(self, cls):
        for _src, msg in reversed(self.inbox):
            if isinstance(msg, cls):
                return msg
        return None

    def count(self, cls):
        return sum(isinstance(m, cls) for _s, m in self.inbox)


def make_peered_world(agent_cfg=AgentConfig(), peers=("agent-b",),
                      learned=False):
    """One real agent peered with a Probe posing as its sibling."""
    kernel = EventKernel()
    topo = Topology(kernel)
    for h in ("ah", "bh", "sh", "ch"):
        topo.add_host(h, 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    net = StaticNetworkInfo(default=LinkEstimate(latency=1e-4, bandwidth=1e9))
    if learned:
        net = LearnedNetworkInfo(prior=net)
    trace = EventLog()
    agent = Agent(network=net, cfg=agent_cfg, rng=RngStreams(0).get("a"),
                  trace=trace, peers=tuple(peers))
    transport.add_node("agent", "ah", agent)
    sibling = Probe()
    transport.add_node("agent-b", "bh", sibling)
    client = Probe()
    transport.add_node("client", "ch", client)
    return kernel, transport, agent, sibling, client, trace


def deliver(kernel, transport, msg, *, src="client", dst="agent"):
    transport.node(src).send(dst, msg)
    kernel.run(until=kernel.now + 1.0)


def registration(server_id="s0", problems=("linsys/dgesv",), **kwargs):
    reg = builtin_registry().subset(list(problems))
    defaults = dict(server_id=server_id, host="sh", mflops=100.0,
                    problems_pdl=render_pdl(reg.specs()))
    defaults.update(kwargs)
    return RegisterServer(**defaults)


# ----------------------------------------------------------------------
# satellite regressions: the silent-divergence bugs now count and trace
# ----------------------------------------------------------------------
def test_mirrored_report_for_unknown_server_is_counted():
    """Bug: a mirrored WorkloadReport whose server this agent never saw
    was silently discarded — the fleet diverged with no signal."""
    kernel, transport, agent, sibling, client, trace = make_peered_world()
    deliver(kernel, transport,
            WorkloadReport(server_id="ghost", workload=50.0, forwarded=True),
            src="agent-b")
    assert agent.mirror_drops == 1
    drops = trace.filter(kind="mirror_drop")
    assert len(drops) == 1 and drops[0]["server_id"] == "ghost"
    # and the report really was dropped, not half-applied
    assert "ghost" not in {e.server_id for e in agent.table.entries()}


def test_forwarded_register_reject_counted_not_nacked():
    """Bug: rejecting a *mirrored* registration NACKed the forwarding
    agent (which ignores RegisterAck) — the divergence was invisible."""
    kernel, transport, agent, sibling, client, trace = make_peered_world()
    good = builtin_registry().subset(["linsys/dgesv"])
    conflicting = render_pdl(good.specs()).replace(
        "2/3*n^3 + 2*n^2", "9*n^3"
    )
    deliver(kernel, transport, registration("s0"), src="client")
    sibling.inbox.clear()
    deliver(kernel, transport,
            registration("s1", problems_pdl=conflicting, forwarded=True,
                         server_address="server/s1"),
            src="agent-b")
    assert agent.forwarded_register_rejects == 1
    rejects = trace.filter(kind="mirror_register_rejected")
    assert len(rejects) == 1 and rejects[0]["server_id"] == "s1"
    # no NACK goes back to the forwarding agent
    assert sibling.last(RegisterAck) is None
    # a *direct* conflicting registration still NACKs the server itself
    deliver(kernel, transport,
            registration("s2", problems_pdl=conflicting), src="client")
    nack = client.last(RegisterAck)
    assert nack is not None and not nack.ok
    assert agent.forwarded_register_rejects == 1  # unchanged


def test_transfer_reports_mirror_to_peers():
    """Bug: TransferReport was the one ground-truth message never
    mirrored, so peers' learned-bandwidth tables starved."""
    kernel, transport, agent, sibling, client, trace = make_peered_world(
        learned=True)
    report = TransferReport(
        client_host="ch", server_host="sh", nbytes=1_000_000, seconds=0.5,
    )
    deliver(kernel, transport, report, src="client")
    mirrored = sibling.last(TransferReport)
    assert mirrored is not None and mirrored.forwarded
    assert mirrored.nbytes == report.nbytes
    # the forwarded copy is consumed, never re-forwarded
    sibling.inbox.clear()
    deliver(kernel, transport, mirrored, src="agent-b")
    assert sibling.count(TransferReport) == 0


def test_transfer_reports_not_mirrored_with_static_table():
    """A static-table fleet discards measurements, so mirroring them
    would make federation traffic scale with query volume for nothing
    (the E2 bench pins mirrors ∝ ground-truth events)."""
    kernel, transport, agent, sibling, client, trace = make_peered_world()
    deliver(kernel, transport,
            TransferReport(client_host="ch", server_host="sh",
                           nbytes=1_000_000, seconds=0.5),
            src="client")
    assert sibling.count(TransferReport) == 0


def test_cache_inserts_mirror_to_peers():
    """Bug: a published result only reached the server's own agent; the
    siblings' hot caches stayed cold for the same digest."""
    kernel, transport, agent, sibling, client, trace = make_peered_world(
        agent_cfg=AgentConfig(cache_entries=8, cache_entry_bytes=1 << 20),
    )
    insert = CacheInsert(
        digest="d" * 16, problem="linsys/dgesv",
        outputs=(b"x",), nbytes=64,
    )
    deliver(kernel, transport, insert, src="client")
    mirrored = sibling.last(CacheInsert)
    assert mirrored is not None and mirrored.forwarded
    assert mirrored.digest == insert.digest
    # forwarded copies are accepted locally but never re-forwarded
    sibling.inbox.clear()
    deliver(kernel, transport, mirrored, src="agent-b")
    assert sibling.count(CacheInsert) == 0


def test_cache_insert_mirror_respects_size_cap():
    kernel, transport, agent, sibling, client, trace = make_peered_world(
        agent_cfg=AgentConfig(cache_entries=8, cache_entry_bytes=100),
    )
    deliver(kernel, transport,
            CacheInsert(digest="big", problem="p", outputs=(b"x",),
                        nbytes=101),
            src="client")
    assert sibling.last(CacheInsert) is None


def test_cache_disabled_agent_still_relays_inserts():
    """An agent with its own cache off still mirrors the insert — its
    siblings may be caching."""
    kernel, transport, agent, sibling, client, trace = make_peered_world(
        agent_cfg=AgentConfig(cache_entries=0),
    )
    deliver(kernel, transport,
            CacheInsert(digest="d", problem="p", outputs=(b"x",), nbytes=8),
            src="client")
    assert sibling.last(CacheInsert) is not None


# ----------------------------------------------------------------------
# sharded query ownership (two real agents, one transport)
# ----------------------------------------------------------------------
def make_sharded_pair(shard=True, sync_interval=5.0):
    kernel = EventKernel()
    topo = Topology(kernel)
    for h in ("ah", "bh", "sh", "ch"):
        topo.add_host(h, 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    net = StaticNetworkInfo(default=LinkEstimate(latency=1e-4, bandwidth=1e9))
    cfg = AgentConfig(shard=shard, sync_interval=sync_interval)
    trace = EventLog()
    agents = {}
    for addr, host, peer in (("agent", "ah", "agent-b"),
                             ("agent-b", "bh", "agent")):
        agents[addr] = Agent(
            network=net, cfg=cfg, rng=RngStreams(0).get(addr),
            trace=trace, peers=(peer,),
        )
        transport.add_node(addr, host, agents[addr])
    client = Probe()
    transport.add_node("client", "ch", client)
    return kernel, transport, agents, client, trace


def query(problem="linsys/dgesv", **kwargs):
    return QueryRequest(problem=problem, sizes={"n": 64},
                        client_host="ch", **kwargs)


def test_query_hops_once_to_shard_owner():
    kernel, transport, agents, client, trace = make_sharded_pair()
    deliver(kernel, transport, registration("s0"), src="client", dst="agent")
    ring = agents["agent"]._ring
    owner = ring.owner("linsys/dgesv")
    non_owner = next(a for a in agents if a != owner)
    deliver(kernel, transport, query(tag=7), src="client", dst=non_owner)
    reply = client.last(QueryReply)
    assert reply is not None and reply.ok and reply.tag == 7
    assert agents[non_owner].queries_forwarded == 1
    assert agents[non_owner].queries_served == 0
    assert agents[owner].queries_served == 1
    forwards = trace.filter(kind="query_forwarded")
    assert len(forwards) == 1 and forwards[0]["owner"] == owner


def test_query_on_owner_never_hops():
    kernel, transport, agents, client, trace = make_sharded_pair()
    deliver(kernel, transport, registration("s0"), src="client", dst="agent")
    owner = agents["agent"]._ring.owner("linsys/dgesv")
    deliver(kernel, transport, query(tag=9), src="client", dst=owner)
    reply = client.last(QueryReply)
    assert reply is not None and reply.ok and reply.tag == 9
    assert all(a.queries_forwarded == 0 for a in agents.values())


def test_unreachable_owner_is_answered_around():
    kernel, transport, agents, client, trace = make_sharded_pair(
        sync_interval=5.0
    )
    deliver(kernel, transport, registration("s0"), src="client", dst="agent")
    owner = agents["agent"]._ring.owner("linsys/dgesv")
    non_owner = next(a for a in agents if a != owner)
    transport.crash(owner)
    # two silent sync intervals and the owner is presumed down
    kernel.run(until=kernel.now + 11.0)
    deliver(kernel, transport, query(tag=3), src="client", dst=non_owner)
    reply = client.last(QueryReply)
    assert reply is not None and reply.ok and reply.tag == 3
    assert agents[non_owner].queries_forwarded == 0
    assert agents[non_owner].queries_served == 1


def test_shard_off_never_forwards():
    kernel, transport, agents, client, trace = make_sharded_pair(shard=False)
    deliver(kernel, transport, registration("s0"), src="client", dst="agent")
    for dst in agents:
        deliver(kernel, transport, query(), src="client", dst=dst)
    assert all(a.queries_forwarded == 0 for a in agents.values())
    assert sum(a.queries_served for a in agents.values()) == 2


# ----------------------------------------------------------------------
# anti-entropy replication
# ----------------------------------------------------------------------
def test_sync_heals_lost_mirror():
    """A peer that was down during a registration converges after its
    next digest exchange — the tentpole's healing path."""
    kernel, transport, agents, client, trace = make_sharded_pair(
        shard=False, sync_interval=5.0
    )
    transport.crash("agent-b")
    deliver(kernel, transport, registration("s0"), src="client", dst="agent")
    assert "s0" not in {
        e.server_id for e in agents["agent-b"].table.entries()
    }
    transport.revive("agent-b")
    kernel.run(until=kernel.now + 12.0)  # two sync rounds
    healed = agents["agent-b"]
    assert "s0" in {e.server_id for e in healed.table.entries()}
    assert "linsys/dgesv" in healed.specs
    assert healed.sync_repairs >= 1
    # both agents now fingerprint the entry identically (no re-pull)
    assert (agents["agent"]._records["s0"]["fp"]
            == healed._records["s0"]["fp"])
    repairs = trace.filter(kind="sync_repair")
    assert any(e["server_id"] == "s0" for e in repairs)


def test_sync_updates_stale_entry_after_reregistration():
    kernel, transport, agents, client, trace = make_sharded_pair(
        shard=False, sync_interval=5.0
    )
    deliver(kernel, transport, registration("s0", mflops=100.0),
            src="client", dst="agent")
    transport.crash("agent-b")
    deliver(kernel, transport, registration("s0", mflops=400.0),
            src="client", dst="agent")
    transport.revive("agent-b")
    kernel.run(until=kernel.now + 12.0)
    assert agents["agent-b"].table.get("s0").mflops == 400.0


def test_sync_digests_flow_even_when_empty():
    """An empty digest is still sent — it doubles as the peer-liveness
    heartbeat the shard forwarder relies on."""
    kernel, transport, agents, client, trace = make_sharded_pair(
        shard=False, sync_interval=5.0
    )
    kernel.run(until=kernel.now + 16.0)
    assert all(a.sync_digests_sent >= 3 for a in agents.values())
    # nothing to pull: no repairs, and sync traffic is not mirroring
    assert all(a.sync_repairs == 0 for a in agents.values())
    assert all(a.forwards_sent == 0 for a in agents.values())


# ----------------------------------------------------------------------
# client + server failover rotations
# ----------------------------------------------------------------------
def test_client_agent_list_validation():
    from repro.core.client import NetSolveClient

    with pytest.raises(NetSolveError):
        NetSolveClient(client_id="c0", agent_address=[])


def test_client_rotates_to_live_agent_on_timeout():
    tb = fleet_testbed(
        n_agents=3, n_servers=3, n_clients=1, seed=5,
        shard=True, sync_interval=2.0,
        client_cfg=ClientConfig(agent_timeout=5.0, timeout_floor=5.0),
    )
    tb.settle()
    assert tb.client("c0").agent_addresses == ("agent", "agent-1", "agent-2")
    tb.transport.crash("agent")
    tb.run(until=tb.kernel.now + 6.0)  # let peers notice the death
    a = RNG.standard_normal((48, 48)) + 48 * np.eye(48)
    b = RNG.standard_normal(48)
    (x,) = tb.solve("c0", "linsys/dgesv", [a, b])
    assert np.allclose(a @ x, b, atol=1e-8)
    c = tb.client("c0")
    assert c.agent_failovers >= 1
    assert c.agent_address != "agent"  # rotation moved the head
    assert c.records[-1].status is RequestStatus.DONE


def test_server_reregisters_with_backup_agent():
    tb = fleet_testbed(n_agents=2, n_servers=2, n_clients=1, seed=3,
                       sync_interval=10.0)
    # s0's home agent dies before anything registers
    tb.transport.crash("agent")
    tb.settle(45.0)  # past the 30 s register timeout
    s0 = tb.server("s0")
    assert s0.agent_failovers >= 1
    assert s0.agent_address != "agent"
    # the surviving agent has the rotated registration
    assert "s0" in {
        e.server_id for e in tb.agents["agent-1"].table.entries()
    }


@pytest.mark.parametrize("register_timeout", [0.5, None], ids=["0.5s", "default"])
def test_register_timeout_sets_when_a_server_tries_the_next_agent(
    register_timeout,
):
    # the first agent drops every RegisterServer: the server is registered
    # at the second by t = 1 s with a 0.5 s ack deadline, and still waits
    # on the deaf one under the default 30 s
    from repro.config import ServerConfig
    from repro.core.server import ComputationalServer

    kernel = EventKernel()
    topo = Topology(kernel)
    for h in ("ah", "bh", "sh"):
        topo.add_host(h, 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    deaf = Probe()
    transport.add_node("agent", "ah", deaf)
    backup = Agent(network=StaticNetworkInfo(
        default=LinkEstimate(latency=1e-4, bandwidth=1e9)
    ))
    transport.add_node("agent-b", "bh", backup)
    server = ComputationalServer(
        server_id="s0", agent_address=["agent", "agent-b"],
        registry=builtin_registry().subset(("linsys/dgesv",)),
        mflops=100.0, host="sh",
        cfg=ServerConfig() if register_timeout is None
        else ServerConfig(register_timeout=register_timeout),
    )
    transport.add_node("server/s0", "sh", server)
    kernel.run(until=1.0)
    rotated = register_timeout is not None
    assert deaf.count(RegisterServer) == 1
    assert server.registered is rotated
    assert server.agent_failovers == int(rotated)
    assert ({e.server_id for e in backup.table.entries()} == {"s0"}) is rotated


def test_single_agent_deployments_never_rotate():
    """The rotation machinery is inert with one agent — the pre-fleet
    timeout semantics (and their goldens) are untouched."""
    from repro.testbed import standard_testbed

    tb = standard_testbed(n_servers=2, seed=1)
    tb.settle()
    a = RNG.standard_normal((32, 32)) + 32 * np.eye(32)
    b = RNG.standard_normal(32)
    tb.solve("c0", "linsys/dgesv", [a, b])
    assert tb.client("c0").agent_failovers == 0
    assert all(s.agent_failovers == 0 for s in tb.servers.values())
