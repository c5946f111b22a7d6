"""Robustness against misbehaving peers.

A NetSolve client lives in an open network: agents and servers it talks
to may be buggy, stale, or hostile.  These tests script fake peers that
send malformed or misleading replies and assert the client (and agent)
fail *requests*, never the process — and never hang.
"""

import numpy as np
import pytest

from repro.config import ClientConfig
from repro.core.client import NetSolveClient
from repro.core.request import RequestStatus
from repro.protocol.messages import (
    Message,
    ProblemDescription,
    QueryReply,
    SolveReply,
    WorkloadReport,
)
from repro.protocol.transport import Component, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology

RNG = np.random.default_rng(83)


class ScriptedAgent(Component):
    """Replies to everything with a fixed scripted message."""

    def __init__(self, script):
        self.script = script  # callable(src, msg) -> reply | None
        self.seen = []

    def on_message(self, src, msg):
        self.seen.append(msg)
        reply = self.script(src, msg)
        if reply is not None:
            self.node.send(src, reply)


def make_world(script, client_cfg=None):
    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("ah", 100.0)
    topo.add_host("ch", 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    agent = ScriptedAgent(script)
    transport.add_node("agent", "ah", agent)
    client = NetSolveClient(
        client_id="c",
        agent_address="agent",
        cfg=client_cfg or ClientConfig(
            agent_timeout=5.0, agent_retries=2, timeout_floor=5.0,
            max_retries=2, server_timeout=30.0,
        ),
    )
    transport.add_node("client/c", "ch", client)
    return kernel, transport, agent, client


def submit_and_settle(kernel, client, limit=600.0):
    handle = client.submit("linsys/dgesv", [np.eye(4), np.ones(4)])
    kernel.run(until=kernel.now + limit, stop=lambda: handle.done)
    assert handle.done, "request must settle, not hang"
    return handle


def test_malformed_pdl_description_fails_request():
    def script(src, msg):
        if msg.__class__.__name__ == "DescribeProblem":
            return ProblemDescription(
                ok=True, problem=msg.problem, pdl="complete garbage"
            )
        return None

    kernel, _t, _a, client = make_world(script)
    handle = submit_and_settle(kernel, client)
    assert handle.status is RequestStatus.FAILED
    assert "malformed" in handle.record.error


def test_description_for_wrong_problem_fails_request():
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl

    wrong = render_pdl(builtin_registry().spec("blas/ddot"))

    def script(src, msg):
        if msg.__class__.__name__ == "DescribeProblem":
            return ProblemDescription(ok=True, problem=msg.problem, pdl=wrong)
        return None

    kernel, _t, _a, client = make_world(script)
    handle = submit_and_settle(kernel, client)
    assert handle.status is RequestStatus.FAILED
    assert "malformed" in handle.record.error


def test_candidates_pointing_nowhere_fail_after_retries():
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl

    good_pdl = render_pdl(builtin_registry().spec("linsys/dgesv"))

    def script(src, msg):
        name = msg.__class__.__name__
        if name == "DescribeProblem":
            return ProblemDescription(ok=True, problem=msg.problem, pdl=good_pdl)
        if name == "QueryRequest":
            return QueryReply(
                ok=True,
                candidates=(
                    {"server_id": "ghost", "address": "server/ghost",
                     "host": "nowhere", "predicted_seconds": 0.001,
                     "endpoint": ""},
                ),
                tag=msg.tag,
            )
        return None

    kernel, _t, _a, client = make_world(script)
    handle = submit_and_settle(kernel, client, limit=3600.0)
    assert handle.status is RequestStatus.FAILED
    # every attempt timed out against the phantom server
    assert all(a.outcome == "timeout" for a in handle.record.attempts)


def test_empty_candidate_tuple_with_ok_true():
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl

    good_pdl = render_pdl(builtin_registry().spec("linsys/dgesv"))

    def script(src, msg):
        name = msg.__class__.__name__
        if name == "DescribeProblem":
            return ProblemDescription(ok=True, problem=msg.problem, pdl=good_pdl)
        if name == "QueryRequest":
            return QueryReply(ok=True, candidates=(), tag=msg.tag)
        return None

    kernel, _t, _a, client = make_world(script)
    handle = submit_and_settle(kernel, client, limit=3600.0)
    assert handle.status is RequestStatus.FAILED


def test_unsolicited_solve_reply_ignored():
    kernel, transport, _a, client = make_world(lambda s, m: None)
    # a rogue peer fires a SolveReply for a request id that never existed
    rogue = ScriptedAgent(lambda s, m: None)
    transport.add_node("rogue", "ah", rogue)
    transport.node("rogue").send(
        "client/c",
        SolveReply(request_id=999, ok=True, outputs=(np.ones(3),)),
    )
    kernel.run(until=5.0)
    assert client.records == []  # nothing materialized from thin air


def test_duplicate_query_replies_ignored():
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl

    good_pdl = render_pdl(builtin_registry().spec("linsys/dgesv"))
    replies = {"count": 0}

    def script(src, msg):
        name = msg.__class__.__name__
        if name == "DescribeProblem":
            return ProblemDescription(ok=True, problem=msg.problem, pdl=good_pdl)
        if name == "QueryRequest":
            replies["count"] += 1
            # send the same reply twice (duplicate delivery)
            dup = QueryReply(ok=True, candidates=(), tag=msg.tag)
            return dup
        return None

    kernel, transport, agent, client = make_world(script)
    handle = client.submit("linsys/dgesv", [np.eye(4), np.ones(4)])
    # inject a duplicate of the empty reply mid-flight
    kernel.call_after(0.5, lambda: transport.node("agent").send(
        "client/c", QueryReply(ok=True, candidates=(), tag=1)
    ))
    kernel.run(until=kernel.now + 3600.0, stop=lambda: handle.done)
    assert handle.done
    assert handle.status is RequestStatus.FAILED  # once, cleanly


def test_workload_report_sent_to_client_is_dropped():
    kernel, transport, _a, client = make_world(lambda s, m: None)
    transport.node("agent").send(
        "client/c", WorkloadReport(server_id="x", workload=5.0)
    )
    kernel.run(until=5.0)  # no crash, nothing recorded
    assert client.records == []


def test_negative_prediction_candidate_handled():
    """A (buggy) agent reporting negative predicted time must not break
    the timeout math."""
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl

    good_pdl = render_pdl(builtin_registry().spec("linsys/dgesv"))

    def script(src, msg):
        name = msg.__class__.__name__
        if name == "DescribeProblem":
            return ProblemDescription(ok=True, problem=msg.problem, pdl=good_pdl)
        if name == "QueryRequest":
            return QueryReply(
                ok=True,
                candidates=(
                    {"server_id": "ghost", "address": "server/ghost",
                     "host": "nowhere", "predicted_seconds": -5.0,
                     "endpoint": ""},
                ),
                tag=msg.tag,
            )
        return None

    kernel, _t, _a, client = make_world(script)
    handle = submit_and_settle(kernel, client, limit=3600.0)
    assert handle.status is RequestStatus.FAILED


def test_bad_query_over_a_socket_leaves_the_connection_serving():
    # over TCP an exception out of the agent's handler killed the
    # connection's reader thread, uncounted, and the client burned its
    # agent retries on a dead socket; a query the agent cannot use must
    # cost one rejecting reply and leave that same connection serving
    import time

    from repro.core.agent import Agent
    from repro.core.predictor import StaticNetworkInfo
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl
    from repro.protocol.messages import QueryRequest, RegisterAck, RegisterServer
    from repro.protocol.tcp import TcpTransport

    class Inbox(Component):
        def __init__(self):
            self.got = []

        def on_message(self, src, msg):
            self.got.append(msg)

    def wait_for(kind, tag=0):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            for msg in list(inbox.got):
                if type(msg) is kind and getattr(msg, "tag", 0) == tag:
                    return msg
            time.sleep(0.01)
        raise AssertionError(f"no {kind.__name__} tagged {tag} arrived")

    with TcpTransport() as transport:
        agent = Agent(network=StaticNetworkInfo())  # loopback links only
        transport.add_node("agent", agent, port=0)
        inbox = Inbox()
        peer = transport.add_node("peer", inbox, port=0)
        peer.send("agent", RegisterServer(
            server_id="s0", host="sh", mflops=100.0,
            problems_pdl=render_pdl(builtin_registry().spec("linsys/dgesv")),
        ))
        assert wait_for(RegisterAck).ok
        query = dict(problem="linsys/dgesv", client_host="sh")
        peer.send("agent", QueryRequest(sizes={"n": "abc"}, tag=1, **query))
        reply = wait_for(QueryReply, tag=1)
        assert not reply.ok and not reply.retryable
        assert reply.detail.startswith("bad query: ")
        peer.send("agent", QueryRequest(sizes={"n": 64}, tag=2, **query))
        assert wait_for(QueryReply, tag=2).ok
        assert agent.query_rejects == 1
        assert peer._pool.dials == 1  # one connection carried all three


# ----------------------------------------------------------------------
# hostile report fields: a counted drop at the agent, never an exception
# ----------------------------------------------------------------------
class _StubNode:
    """What the agent's handlers need of a node, with a fixed clock."""

    address = "agent"

    def __init__(self):
        self.sent = []

    def now(self):
        return 5.0

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def endpoint_of(self, address):
        return ""


def _roundtrip(msg):
    from repro.protocol.codec import decode_message, encode_message

    return decode_message(encode_message(msg))


def _stub_agent(network=None, peers=()):
    from repro.core.agent import Agent
    from repro.core.predictor import LinkEstimate, StaticNetworkInfo

    agent = Agent(
        network=network or StaticNetworkInfo(
            default=LinkEstimate(latency=1e-3, bandwidth=1e7)
        ),
        peers=peers,
        assignment_feedback=False,  # repeat queries predict alike
    )
    agent.node = _StubNode()  # not bound: no periodic timers to arm
    from repro.problems.builtin import builtin_registry

    spec = builtin_registry().spec("linsys/dgesv")
    agent.specs[spec.name] = spec
    agent.table.register(
        server_id="s0", address="server/s0", host="sh", mflops=100.0,
        problems={spec.name}, now=0.0,
    )
    agent.table.report_workload("s0", 40.0, now=0.0, inflight=1)
    return agent


def _head_prediction(agent):
    from repro.protocol.messages import QueryRequest

    agent._handle_query("client/c", QueryRequest(
        problem="linsys/dgesv", sizes={"n": 64}, client_host="ch", tag=7,
    ))
    _dst, reply = agent.node.sent[-1]
    assert reply.ok, reply.detail
    return reply.candidate_list()[0].predicted_seconds


@pytest.mark.parametrize("fields", [
    {"workload": "abc"},
    {"workload": 5.0, "inflight": "x"},
    {"workload": float("inf")},
    {"workload": float("nan")},
    {"workload": 5.0, "inflight": 1.5},
])
def test_hostile_workload_report_is_a_counted_drop(fields):
    agent = _stub_agent(peers=("agent/b",))
    before = _head_prediction(agent)
    agent.table.mark_failed("s0")
    agent._handle_report(
        "server/s0", _roundtrip(WorkloadReport(server_id="s0", **fields))
    )
    assert agent.report_rejects == 1
    assert agent.reports_received == 0
    entry = agent.table.get("s0")
    # nothing was folded in: no new workload, no revival, no mirror
    assert (entry.workload, entry.inflight, entry.alive) == (40.0, 1, False)
    assert not any(type(m) is WorkloadReport for _d, m in agent.node.sent)
    agent.table.mark_alive("s0", 5.0)
    assert _head_prediction(agent) == before  # ranks on the last good report


@pytest.mark.parametrize("nbytes, seconds", [
    ("abc", 1.0),
    (4096, "x"),
    (4096, float("nan")),
    (float("inf"), 1.0),
    (1e308, 1e-300),  # each finite, the rate overflows
])
def test_hostile_transfer_report_is_a_counted_drop(nbytes, seconds):
    from repro.core.predictor import (
        LearnedNetworkInfo,
        LinkEstimate,
        StaticNetworkInfo,
    )
    from repro.protocol.messages import TransferReport

    network = LearnedNetworkInfo(StaticNetworkInfo(
        default=LinkEstimate(latency=1e-3, bandwidth=1e7)
    ))
    agent = _stub_agent(network, peers=("agent/b",))
    before = _head_prediction(agent)
    agent._handle_transfer_report("client/c", _roundtrip(TransferReport(
        client_host="ch", server_host="sh", nbytes=nbytes, seconds=seconds,
    )))
    assert agent.report_rejects == 1
    assert agent.transfer_reports == 1  # received, then refused
    assert network.learned_bandwidth("ch", "sh") is None
    assert network.observations == 0
    assert not any(type(m) is TransferReport for _d, m in agent.node.sent)
    assert _head_prediction(agent) == before


def test_hostile_report_over_a_socket_leaves_the_connection_serving():
    # a report value the table refuses used to raise out of the agent's
    # handler and kill the connection's reader thread; it must cost one
    # counted drop and leave that same connection serving
    import time

    from repro.core.agent import Agent
    from repro.core.predictor import StaticNetworkInfo
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl
    from repro.protocol.messages import QueryRequest, RegisterAck, RegisterServer
    from repro.protocol.tcp import TcpTransport

    class Inbox(Component):
        def __init__(self):
            self.got = []

        def on_message(self, src, msg):
            self.got.append(msg)

    def wait_for(kind, tag=0):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            for msg in list(inbox.got):
                if type(msg) is kind and getattr(msg, "tag", 0) == tag:
                    return msg
            time.sleep(0.01)
        raise AssertionError(f"no {kind.__name__} tagged {tag} arrived")

    with TcpTransport() as transport:
        agent = Agent(network=StaticNetworkInfo())  # loopback links only
        transport.add_node("agent", agent, port=0)
        inbox = Inbox()
        peer = transport.add_node("peer", inbox, port=0)
        peer.send("agent", RegisterServer(
            server_id="s0", host="sh", mflops=100.0,
            problems_pdl=render_pdl(builtin_registry().spec("linsys/dgesv")),
        ))
        assert wait_for(RegisterAck).ok
        peer.send("agent", WorkloadReport(server_id="s0", workload="abc"))
        peer.send("agent", WorkloadReport(
            server_id="s0", workload=float("inf")
        ))
        peer.send("agent", QueryRequest(
            problem="linsys/dgesv", client_host="sh", sizes={"n": 64}, tag=1,
        ))
        reply = wait_for(QueryReply, tag=1)
        assert reply.ok
        assert np.isfinite(reply.candidate_list()[0].predicted_seconds)
        assert agent.report_rejects == 2
        assert agent.table.get("s0").workload == 0.0
        assert peer._pool.dials == 1  # one connection carried all four


# ----------------------------------------------------------------------
# hostile registration fields: a NACK and a counted reject, never an
# exception out of the handler
# ----------------------------------------------------------------------
def _dgesv_pdl():
    from repro.problems.builtin import builtin_registry
    from repro.problems.pdl import render_pdl

    return render_pdl(builtin_registry().spec("linsys/dgesv"))


@pytest.mark.parametrize("fields", [
    {"slots": "abc"},
    {"slots": float("inf")},
    {"slots": 1.5},
    {"mflops": "abc"},
    {"mflops": float("nan")},
    {"mflops": float("inf")},
])
def test_hostile_registration_is_a_nacked_reject(fields):
    from repro.protocol.messages import RegisterAck, RegisterServer

    agent = _stub_agent(peers=("agent/b",))
    msg = dict(server_id="s1", host="sh", mflops=100.0,
               problems_pdl=_dgesv_pdl())
    msg.update(fields)
    agent._handle_register("server/s1", _roundtrip(RegisterServer(**msg)))
    ((dst, ack),) = agent.node.sent  # the NACK, and no mirror
    assert dst == "server/s1" and type(ack) is RegisterAck
    assert not ack.ok
    assert agent.register_rejects == 1
    assert agent.registrations == 0
    assert "s1" not in agent.table and "s1" not in agent._records


@pytest.mark.parametrize("slots, stored", [(0, 1), (-4, 1), (3, 3)])
def test_registration_slots_below_one_clamp_to_one(slots, stored):
    from repro.protocol.messages import RegisterServer

    agent = _stub_agent()
    agent._handle_register("server/s1", _roundtrip(RegisterServer(
        server_id="s1", host="sh", mflops=100.0, slots=slots,
        problems_pdl=_dgesv_pdl(),
    )))
    assert agent.register_rejects == 0
    assert agent.table.get("s1").slots == stored
    assert agent._records["s1"]["slots"] == stored


@pytest.mark.parametrize("mflops, slots", [
    ("abc", 1), (float("nan"), 1), (100.0, "abc"), (100.0, 1.5),
])
def test_hostile_sync_entry_is_dropped(mflops, slots):
    from repro.protocol.messages import SyncState

    agent = _stub_agent(peers=("agent/b",))
    agent._handle_sync_state("agent/b", _roundtrip(SyncState(entries=((
        "s9", "server/s9", "", "sh", mflops, slots, _dgesv_pdl(),
        0.0, 0, True,
    ),))))
    assert "s9" not in agent.table and "s9" not in agent._records
    assert agent.sync_repairs == 0


def test_hostile_registration_over_a_socket_leaves_the_connection_serving():
    import time

    from repro.core.agent import Agent
    from repro.core.predictor import StaticNetworkInfo
    from repro.protocol.messages import RegisterAck, RegisterServer
    from repro.protocol.tcp import TcpTransport

    class Inbox(Component):
        def __init__(self):
            self.got = []

        def on_message(self, src, msg):
            self.got.append(msg)

    def acks(n):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            got = [m.ok for m in list(inbox.got) if type(m) is RegisterAck]
            if len(got) >= n:
                return got
            time.sleep(0.01)
        raise AssertionError(f"fewer than {n} RegisterAcks arrived")

    with TcpTransport() as transport:
        agent = Agent(network=StaticNetworkInfo())
        transport.add_node("agent", agent, port=0)
        inbox = Inbox()
        peer = transport.add_node("peer", inbox, port=0)
        good = dict(server_id="s0", host="sh", problems_pdl=_dgesv_pdl())
        peer.send("agent", RegisterServer(mflops=100.0, slots="abc", **good))
        peer.send("agent", RegisterServer(mflops=float("inf"), **good))
        peer.send("agent", RegisterServer(mflops=100.0, slots=2, **good))
        assert acks(3) == [False, False, True]
        assert agent.register_rejects == 2
        assert agent.table.get("s0").slots == 2
        assert peer._pool.dials == 1  # one connection carried all three


# ----------------------------------------------------------------------
# per-client-host link columns stay bounded
# ----------------------------------------------------------------------
def test_invented_client_hosts_do_not_grow_the_link_columns():
    from repro.core.registry import _LINK_HOSTS
    from repro.protocol.messages import QueryRequest

    agent = _stub_agent()  # the network has a default link
    for i in range(3 * _LINK_HOSTS):
        agent._handle_query("client/c", QueryRequest(
            problem="linsys/dgesv", sizes={"n": 8},
            client_host=f"invented-{i}", tag=i,
        ))
        assert len(agent.table._links) <= _LINK_HOSTS
    assert agent.query_rejects == 0
    assert "invented-0" not in agent.table._links  # the oldest went first
    assert f"invented-{3 * _LINK_HOSTS - 1}" in agent.table._links


def test_a_failed_link_lookup_keeps_no_columns():
    from repro.core.predictor import LinkEstimate, StaticNetworkInfo
    from repro.protocol.messages import QueryRequest

    # one known pair, no default: any other client host is unknown
    agent = _stub_agent(StaticNetworkInfo(
        {("ch", "sh"): LinkEstimate(latency=1e-3, bandwidth=1e7)}
    ))
    agent._handle_query("client/c", QueryRequest(
        problem="linsys/dgesv", sizes={"n": 8}, client_host="stranger",
        tag=1,
    ))
    _dst, reply = agent.node.sent[-1]
    assert not reply.ok and reply.detail.startswith("bad query: ")
    assert "stranger" not in agent.table._links
    assert _head_prediction(agent) > 0  # the known pair still ranks
    assert list(agent.table._links) == ["ch"]
