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
