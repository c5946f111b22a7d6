"""Unit tests for the Agent component over a minimal simulated world."""

import pytest

from repro.config import AgentConfig
from repro.core.agent import Agent
from repro.core.predictor import LinkEstimate, StaticNetworkInfo
from repro.problems.builtin import builtin_registry
from repro.problems.pdl import parse_pdl, render_pdl
from repro.protocol.messages import (
    DescribeProblem,
    FailureReport,
    ListProblems,
    Message,
    Ping,
    Pong,
    ProblemDescription,
    ProblemList,
    QueryReply,
    QueryRequest,
    RegisterAck,
    RegisterServer,
    WorkloadReport,
)
from repro.protocol.transport import Component, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology
from repro.simnet.rng import RngStreams
from repro.trace.events import EventLog
from repro.trace.instruments import MetricsRegistry


class Probe(Component):
    """Scriptable peer that records every message it receives."""

    def __init__(self):
        self.inbox: list[tuple[str, Message]] = []

    def on_message(self, src, msg):
        self.inbox.append((src, msg))

    def last(self, cls):
        for _src, msg in reversed(self.inbox):
            if isinstance(msg, cls):
                return msg
        return None


def make_world(agent_cfg=AgentConfig(), **agent_kwargs):
    kernel = EventKernel()
    topo = Topology(kernel)
    for h in ("ah", "sh", "ch"):
        topo.add_host(h, 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    net = StaticNetworkInfo(default=LinkEstimate(latency=1e-4, bandwidth=1e9))
    agent = Agent(network=net, cfg=agent_cfg, rng=RngStreams(0).get("a"),
                  trace=EventLog(), **agent_kwargs)
    transport.add_node("agent", "ah", agent)
    probe = Probe()
    transport.add_node("peer", "ch", probe)
    return kernel, transport, agent, probe


def registration(server_id="s0", host="sh", mflops=100.0, problems=None):
    reg = builtin_registry()
    if problems:
        reg = reg.subset(problems)
    return RegisterServer(
        server_id=server_id, host=host, mflops=mflops,
        problems_pdl=render_pdl(reg.specs()),
    )


def send(kernel, transport, msg, src="peer"):
    transport.node(src).send("agent", msg)
    # bounded run: the agent's periodic liveness sweep re-arms itself, so
    # an unbounded run would never drain the heap
    kernel.run(until=kernel.now + 1.0)


def test_register_ack_and_table_entry():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration())
    ack = probe.last(RegisterAck)
    assert ack is not None and ack.ok
    assert agent.registrations == 1
    entry = agent.table.get("s0")
    assert entry.host == "sh" and entry.mflops == 100.0
    assert "linsys/dgesv" in agent.specs


def test_register_bad_pdl_rejected():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, RegisterServer(
        server_id="s0", host="sh", mflops=1.0, problems_pdl="garbage here"
    ))
    ack = probe.last(RegisterAck)
    assert ack is not None and not ack.ok
    assert agent.registrations == 0


def test_register_empty_pdl_rejected():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, RegisterServer(
        server_id="s0", host="sh", mflops=1.0, problems_pdl="# nothing\n"
    ))
    assert not probe.last(RegisterAck).ok


def test_register_conflicting_description_rejected():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration("s0", problems=("linsys/dgesv",)))
    conflicting = """
problem linsys/dgesv
    complexity n^3
    input A matrix[n,n]
    output x vector[n]
end
"""
    send(kernel, transport, RegisterServer(
        server_id="s1", host="sh", mflops=1.0, problems_pdl=conflicting
    ))
    ack = probe.last(RegisterAck)
    assert not ack.ok and "conflicts" in ack.detail
    assert "s1" not in agent.table


def test_identical_redescription_accepted():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration("s0", problems=("linsys/dgesv",)))
    send(kernel, transport, registration("s1", problems=("linsys/dgesv",)))
    assert probe.last(RegisterAck).ok
    assert "s1" in agent.table


def test_workload_report_from_unknown_server_ignored():
    kernel, transport, agent, _ = make_world()
    send(kernel, transport, WorkloadReport(server_id="ghost", workload=1.0))
    assert agent.reports_received == 0


def test_query_ranks_by_prediction():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration("slow", mflops=50.0))
    send(kernel, transport, registration("fast", mflops=200.0))
    send(kernel, transport, QueryRequest(
        problem="linsys/dgesv", sizes={"n": 512}, client_host="ch", tag=9
    ))
    reply = probe.last(QueryReply)
    assert reply.ok and reply.tag == 9
    cands = reply.candidate_list()
    assert cands[0].server_id == "fast"
    assert cands[0].predicted_seconds < cands[1].predicted_seconds


def test_query_unknown_problem():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration())
    send(kernel, transport, QueryRequest(
        problem="nope", sizes={}, client_host="ch", tag=1
    ))
    reply = probe.last(QueryReply)
    assert not reply.ok and "unknown problem" in reply.detail


def test_query_no_live_server():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration("s0"))
    send(kernel, transport, FailureReport(server_id="s0", problem="p"))
    send(kernel, transport, QueryRequest(
        problem="linsys/dgesv", sizes={"n": 8}, client_host="ch", tag=2
    ))
    reply = probe.last(QueryReply)
    assert not reply.ok and "no server" in reply.detail


def test_query_respects_exclude_list():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration("s0", mflops=200.0))
    send(kernel, transport, registration("s1", mflops=50.0))
    send(kernel, transport, QueryRequest(
        problem="linsys/dgesv", sizes={"n": 64}, client_host="ch",
        exclude=("s0",), tag=3
    ))
    cands = probe.last(QueryReply).candidate_list()
    assert [c.server_id for c in cands] == ["s1"]


def test_query_candidate_list_capped():
    kernel, transport, agent, probe = make_world(
        AgentConfig(candidate_list_length=2)
    )
    for i in range(5):
        send(kernel, transport, registration(f"s{i}"))
    send(kernel, transport, QueryRequest(
        problem="linsys/dgesv", sizes={"n": 64}, client_host="ch", tag=4
    ))
    assert len(probe.last(QueryReply).candidates) == 2


def test_assignment_feedback_rotates_equal_servers():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration("s0"))
    send(kernel, transport, registration("s1"))
    firsts = []
    for tag in range(4):
        send(kernel, transport, QueryRequest(
            problem="linsys/dgesv", sizes={"n": 512}, client_host="ch",
            tag=tag,
        ))
        firsts.append(probe.last(QueryReply).candidate_list()[0].server_id)
    # pending hints push consecutive queries to alternate servers
    assert set(firsts) == {"s0", "s1"}


def test_no_assignment_feedback_herds():
    kernel, transport, agent, probe = make_world(assignment_feedback=False)
    send(kernel, transport, registration("s0"))
    send(kernel, transport, registration("s1"))
    firsts = []
    for tag in range(4):
        send(kernel, transport, QueryRequest(
            problem="linsys/dgesv", sizes={"n": 512}, client_host="ch",
            tag=tag,
        ))
        firsts.append(probe.last(QueryReply).candidate_list()[0].server_id)
    assert len(set(firsts)) == 1


GOOD_QUERY = dict(problem="linsys/dgesv", sizes={"n": 64}, client_host="ch")


@pytest.mark.parametrize("bad", [
    dict(sizes={}),
    dict(sizes={"n": -5}),
    dict(sizes={"n": "abc"}),
    dict(resident={"s0": "x"}),
    dict(client_host="nowhere"),
    dict(sizes={"n": float("inf")}),
    dict(sizes=["n"]),
], ids=["unbound", "negative", "text-size", "text-resident", "unknown-host",
        "infinite", "not-a-mapping"])
def test_bad_query_values_get_a_counted_reject(bad):
    """A frame can decode and still carry values the model cannot use;
    each used to raise out of ``_handle_query`` (unwinding the sim
    kernel, killing a TCP reader thread) and left the client to time
    out.  Now: one rejecting reply, one count, no hint, agent intact."""
    registry = MetricsRegistry()
    kernel, transport, agent, probe = make_world(metrics=registry)
    # no default link: a host the table does not know is an error
    agent.network = StaticNetworkInfo(
        {("ch", "sh"): LinkEstimate(latency=1e-4, bandwidth=1e9)}
    )
    send(kernel, transport, registration("s0"))
    send(kernel, transport, QueryRequest(**{**GOOD_QUERY, **bad, "tag": 7}))
    reply = probe.last(QueryReply)
    assert reply is not None and reply.tag == 7
    assert not reply.ok and not reply.retryable and not reply.candidates
    assert reply.detail.startswith("bad query: ")
    assert agent.query_rejects == 1
    assert registry.snapshot()["counters"]["agent.query_rejects"] == 1
    assert agent.table.get("s0").assignments == 0
    assert agent.table.get("s0").pending == 0
    send(kernel, transport, QueryRequest(**GOOD_QUERY, tag=8))
    reply = probe.last(QueryReply)
    assert reply.ok and reply.tag == 8
    assert [c.server_id for c in reply.candidate_list()] == ["s0"]
    assert agent.query_rejects == 1 and agent.queries_served == 2


def test_negative_resident_bytes_are_no_bytes():
    # a negative count used to be subtracted as-is, i.e. *added* to the
    # bytes the send term charges for
    kernel, transport, agent, probe = make_world(assignment_feedback=False)
    send(kernel, transport, registration("s0"))
    predicted = []
    for resident in ({}, {"s0": -10**9}):
        send(kernel, transport, QueryRequest(**GOOD_QUERY, resident=resident))
        (head,) = probe.last(QueryReply).candidate_list()
        predicted.append(head.predicted_seconds)
    assert predicted[0] == predicted[1]


def test_describe_problem_roundtrips_spec():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration())
    send(kernel, transport, DescribeProblem(problem="linsys/dgesv"))
    desc = probe.last(ProblemDescription)
    assert desc.ok and desc.problem == "linsys/dgesv"
    (spec,) = parse_pdl(desc.pdl)
    assert spec == agent.specs["linsys/dgesv"]


def test_describe_unknown_problem():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, DescribeProblem(problem="zzz"))
    desc = probe.last(ProblemDescription)
    assert not desc.ok and desc.problem == "zzz"


def test_list_problems_prefix_and_echo():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration())
    send(kernel, transport, ListProblems(prefix="eigen/"))
    listing = probe.last(ProblemList)
    assert listing.prefix == "eigen/"
    assert set(listing.names) == {"eigen/power", "eigen/symm", "eigen/vals"}


def test_ping_pong():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, Ping(nonce=77))
    assert probe.last(Pong).nonce == 77


def test_liveness_sweep_retires_silent_servers():
    kernel, transport, agent, probe = make_world(
        AgentConfig(liveness_timeout=100.0)
    )
    send(kernel, transport, registration("s0"))
    kernel.run(until=kernel.now + 300.0)
    assert not agent.table.get("s0").alive
    # a fresh report revives it
    send(kernel, transport, WorkloadReport(server_id="s0", workload=0.0))
    assert agent.table.get("s0").alive


def test_trace_records_agent_activity():
    kernel, transport, agent, probe = make_world()
    send(kernel, transport, registration())
    send(kernel, transport, QueryRequest(
        problem="linsys/dgesv", sizes={"n": 8}, client_host="ch", tag=0
    ))
    kinds = agent.trace.kinds()
    assert kinds.get("server_registered") == 1
    assert kinds.get("query") == 1


def test_servers_alive_gauge_follows_a_workload_report_revival():
    """FailureReport marks s0 suspect (2 -> 1 alive); s0's next
    WorkloadReport revives it through ``ServerTable.report_workload``.
    A hand-kept gauge was not refreshed on that path and kept saying 1
    until some unrelated table-shape event."""
    registry = MetricsRegistry()
    kernel, transport, agent, _probe = make_world(metrics=registry)
    for sid in ("s0", "s1"):
        send(kernel, transport, registration(sid, problems=("linsys/dgesv",)))

    def gauge(name):
        return registry.snapshot()["gauges"][f"agent.{name}"]

    assert gauge("servers_alive") == 2
    send(kernel, transport, FailureReport(
        server_id="s0", problem="linsys/dgesv", detail="timeout"))
    assert not agent.table.get("s0").alive
    assert gauge("servers_alive") == 1
    send(kernel, transport, WorkloadReport(server_id="s0", workload=0.0))
    assert len(agent.table.alive_entries()) == 2
    assert gauge("servers_alive") == 2
    assert gauge("servers_total") == 2
