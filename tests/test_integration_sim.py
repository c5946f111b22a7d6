"""End-to-end integration tests over the simulated deployment.

These exercise the full protocol path — DescribeProblem, QueryRequest,
SolveRequest, workload reports, failure reports, retries — with real
numerical computation and real (encoded) message bytes on the simulated
wire.
"""

import numpy as np
import pytest

from repro.config import AgentConfig, ClientConfig, ServerConfig, WorkloadPolicy
from repro.core import FailureInjector
from repro.core.request import RequestStatus
from repro.errors import (
    BadArgumentsError,
    ConfigError,
    ProblemNotFoundError,
    RequestFailed,
)
from repro.testbed import (
    ClientDef,
    HostDef,
    LinkDef,
    ServerDef,
    build_testbed,
    server_address,
    standard_testbed,
)

RNG = np.random.default_rng(0)


def linsys(n):
    a = RNG.standard_normal((n, n)) + n * np.eye(n)
    b = RNG.standard_normal(n)
    return a, b


# ----------------------------------------------------------------------
# basic solves
# ----------------------------------------------------------------------
def test_blocking_solve_returns_correct_answer():
    tb = standard_testbed(n_servers=3, seed=1)
    tb.settle()
    a, b = linsys(100)
    (x,) = tb.solve("c0", "linsys/dgesv", [a, b])
    assert np.allclose(a @ x, b, atol=1e-8)


def test_solve_multiple_output_problem():
    tb = standard_testbed(n_servers=2, seed=1)
    tb.settle()
    m = RNG.standard_normal((20, 20))
    s = (m + m.T) / 2.0
    w, v = tb.solve("c0", "eigen/symm", [s])
    assert np.allclose(s @ v, v @ np.diag(w), atol=1e-7)


def test_mct_prefers_fastest_server_when_idle():
    tb = standard_testbed(n_servers=4, seed=1)  # speeds 50..200
    tb.settle()
    a, b = linsys(300)
    tb.solve("c0", "linsys/dgesv", [a, b])
    record = tb.client("c0").records[-1]
    assert record.server_id == "s3"  # 200 Mflop/s wins


def test_spec_cache_skips_describe_on_second_call():
    tb = standard_testbed(n_servers=2, seed=1)
    tb.settle()
    a, b = linsys(50)
    tb.solve("c0", "linsys/dgesv", [a, b])
    first = tb.client("c0").records[0]
    tb.solve("c0", "linsys/dgesv", [a, b])
    second = tb.client("c0").records[1]
    # negotiation only (no describe round-trip): the second request's
    # time-to-candidates is strictly smaller
    t1 = first.t_candidates - first.t_submit
    t2 = second.t_candidates - second.t_submit
    assert t2 < t1


def test_non_blocking_submit_probe_wait():
    tb = standard_testbed(n_servers=2, seed=1)
    tb.settle()
    a, b = linsys(64)
    handle = tb.submit("c0", "linsys/dgesv", [a, b])
    assert not handle.done
    tb.wait_all([handle])
    assert handle.done
    assert handle.status is RequestStatus.DONE
    (x,) = handle.result()
    assert np.allclose(a @ x, b, atol=1e-8)


def test_concurrent_requests_overlap():
    tb = standard_testbed(n_servers=4, seed=1)
    tb.settle()
    handles = []
    for _ in range(8):
        a, b = linsys(200)
        handles.append(tb.submit("c0", "linsys/dgesv", [a, b]))
    tb.wait_all(handles)
    used = {h.record.server_id for h in handles}
    assert len(used) > 1  # the batch spread over servers
    for h in handles:
        assert h.status is RequestStatus.DONE


def test_unknown_problem_fails_cleanly():
    tb = standard_testbed(n_servers=1, seed=1)
    tb.settle()
    handle = tb.submit("c0", "no/such/problem", [np.ones(3)])
    tb.wait_all(handles=[handle])
    assert handle.status is RequestStatus.FAILED
    with pytest.raises(ProblemNotFoundError):
        handle.result()


def test_bad_arguments_fail_locally_before_any_network():
    tb = standard_testbed(n_servers=1, seed=1)
    tb.settle()
    a, _ = linsys(10)
    sent_before = tb.transport.node("client/c0").messages_sent
    handle = tb.submit("c0", "linsys/dgesv", [a, np.ones(11)])  # size clash
    tb.wait_all([handle])
    assert handle.status is RequestStatus.FAILED
    with pytest.raises(BadArgumentsError):
        handle.result()
    # only the DescribeProblem round-trip happened; no query, no inputs
    assert tb.transport.node("client/c0").messages_sent - sent_before <= 1


def test_heterogeneous_problem_coverage():
    """A server that lacks the problem is never selected."""
    tb = build_testbed(
        hosts=[
            HostDef("c", 20.0),
            HostDef("ag", 50.0),
            HostDef("h1", 400.0),  # fast but cannot solve dgesv
            HostDef("h2", 50.0),
        ],
        servers=[
            ServerDef("fast", "h1", problems=("blas/ddot",)),
            ServerDef("slow", "h2", problems=("linsys/dgesv", "blas/ddot")),
        ],
        clients=[ClientDef("c0", "c")],
        agent_host="ag",
    )
    tb.settle()
    a, b = linsys(80)
    tb.solve("c0", "linsys/dgesv", [a, b])
    assert tb.client("c0").records[-1].server_id == "slow"


def test_workload_reports_reach_agent():
    tb = standard_testbed(n_servers=2, seed=1)
    tb.settle()
    assert tb.agent.reports_received >= 2
    assert tb.agent.table.get("s0").last_report > 0.0


def test_agent_prediction_uses_reported_workload():
    """A loaded fast server loses to an idle slower one."""
    tb = standard_testbed(n_servers=2, seed=1)  # s0=50, s1=100 Mflop/s
    tb.host("zeus1").set_background_load(4.0)  # s1 five-fold slowdown
    tb.settle(30.0)  # let the workload report arrive
    a, b = linsys(400)
    tb.solve("c0", "linsys/dgesv", [a, b])
    assert tb.client("c0").records[-1].server_id == "s0"


def test_ablation_blind_agent_picks_loaded_server():
    tb = standard_testbed(n_servers=2, seed=1, use_workload=False)
    tb.host("zeus1").set_background_load(4.0)
    tb.settle(30.0)
    a, b = linsys(400)
    tb.solve("c0", "linsys/dgesv", [a, b])
    # blind to load: still picks the nominally faster s1
    assert tb.client("c0").records[-1].server_id == "s1"


# ----------------------------------------------------------------------
# failures and retries
# ----------------------------------------------------------------------
def failure_testbed(**kwargs):
    return standard_testbed(
        n_servers=3,
        seed=2,
        client_cfg=ClientConfig(
            max_retries=3, timeout_floor=5.0, timeout_factor=3.0
        ),
        **kwargs,
    )


def test_crashed_server_triggers_retry_and_success():
    tb = failure_testbed()
    tb.settle()
    # the fastest (preferred) server dies before the request
    tb.transport.crash(server_address("s2"))
    a, b = linsys(128)
    (x,) = tb.solve("c0", "linsys/dgesv", [a, b])
    assert np.allclose(a @ x, b, atol=1e-8)
    record = tb.client("c0").records[-1]
    assert record.retries == 1
    assert record.attempts[0].outcome == "timeout"
    assert record.attempts[0].server_id == "s2"
    assert record.attempts[1].outcome == "ok"


def test_failure_report_marks_server_suspect():
    tb = failure_testbed()
    tb.settle()
    tb.transport.crash(server_address("s2"))
    a, b = linsys(128)
    tb.solve("c0", "linsys/dgesv", [a, b])
    assert not tb.agent.table.get("s2").alive
    assert tb.agent.failures_reported == 1


def test_suspect_server_excluded_from_next_query():
    tb = failure_testbed()
    tb.settle()
    tb.transport.crash(server_address("s2"))
    a, b = linsys(128)
    tb.solve("c0", "linsys/dgesv", [a, b])
    tb.solve("c0", "linsys/dgesv", [a, b])
    second = tb.client("c0").records[-1]
    assert second.retries == 0  # no attempt went to the dead server
    assert all(a_.server_id != "s2" for a_ in second.attempts)


def test_all_servers_dead_fails_after_retries():
    tb = failure_testbed()
    tb.settle()
    for sid in ("s0", "s1", "s2"):
        tb.transport.crash(server_address(sid))
    a, b = linsys(64)
    handle = tb.submit("c0", "linsys/dgesv", [a, b])
    tb.wait_all([handle])
    assert handle.status is RequestStatus.FAILED
    with pytest.raises(RequestFailed):
        handle.result()
    record = handle.record
    assert len(record.attempts) <= 3


def test_mid_computation_crash_recovers():
    tb = failure_testbed()
    tb.settle()
    a, b = linsys(600)  # long enough to crash mid-flight
    handle = tb.submit("c0", "linsys/dgesv", [a, b])
    injector = FailureInjector(tb.transport)
    injector.crash_at(tb.kernel.now + 2.0, server_address("s2"))
    tb.wait_all([handle])
    assert handle.status is RequestStatus.DONE
    (x,) = handle.result()
    assert np.allclose(a @ x, b, atol=1e-7)
    assert handle.record.retries >= 1


def test_revived_server_rejoins_after_reregistration():
    tb = standard_testbed(
        n_servers=2,
        seed=3,
        server_cfg=ServerConfig(
            reregister_interval=50.0,
            workload=WorkloadPolicy(time_step=10.0, threshold=10.0),
        ),
        client_cfg=ClientConfig(max_retries=3, timeout_floor=5.0),
    )
    tb.settle()
    tb.transport.crash(server_address("s1"))
    a, b = linsys(64)
    tb.solve("c0", "linsys/dgesv", [a, b])  # times out on s1, marks suspect
    assert not tb.agent.table.get("s1").alive
    tb.transport.revive(server_address("s1"))
    tb.run(until=tb.kernel.now + 120.0)  # re-registration + reports
    assert tb.agent.table.get("s1").alive


def test_agent_crash_fails_requests_with_timeout():
    tb = standard_testbed(
        n_servers=1, seed=4, client_cfg=ClientConfig(agent_timeout=20.0)
    )
    tb.settle()
    tb.transport.crash("agent")
    handle = tb.submit("c0", "linsys/dgesv", list(linsys(32)))
    tb.wait_all([handle])
    assert handle.status is RequestStatus.FAILED


def test_server_error_propagates_and_retries():
    """A singular system makes every server fail it; the client retries
    then reports the structured error."""
    tb = failure_testbed()
    tb.settle()
    a = np.ones((8, 8))  # singular
    b = np.ones(8)
    handle = tb.submit("c0", "linsys/dgesv", [a, b])
    tb.wait_all([handle])
    assert handle.status is RequestStatus.FAILED
    record = handle.record
    assert all(at.outcome == "error" for at in record.attempts)
    assert "Singular" in record.attempts[0].detail


# ----------------------------------------------------------------------
# record timelines
# ----------------------------------------------------------------------
def test_record_breakdown_is_consistent():
    tb = standard_testbed(n_servers=2, seed=5)
    tb.settle()
    a, b = linsys(256)
    tb.solve("c0", "linsys/dgesv", [a, b])
    record = tb.client("c0").records[-1]
    assert record.negotiation_seconds > 0
    assert record.compute_seconds > 0
    assert record.transfer_seconds > 0
    total = record.total_seconds
    parts = (
        record.negotiation_seconds
        + record.compute_seconds
        + record.transfer_seconds
    )
    # parts exclude only the describe round-trip on the first request
    assert parts <= total
    assert parts > 0.5 * total


def test_compute_seconds_scale_with_problem_size():
    tb = standard_testbed(n_servers=1, seed=6)
    tb.settle()
    times = []
    for n in (64, 128, 256):
        a, b = linsys(n)
        tb.solve("c0", "linsys/dgesv", [a, b])
        times.append(tb.client("c0").records[-1].compute_seconds)
    assert times[0] < times[1] < times[2]
    # n^3 scaling: each doubling is ~8x
    assert times[2] / times[1] == pytest.approx(8.0, rel=0.15)


def test_determinism_same_seed_same_timeline():
    def run(seed):
        tb = standard_testbed(n_servers=3, seed=seed)
        tb.settle()
        rng = np.random.default_rng(9)
        out = []
        for n in (32, 64, 96):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            tb.solve("c0", "linsys/dgesv", [a, b])
            out.append(tb.client("c0").records[-1].total_seconds)
        return out

    assert run(7) == run(7)


def test_link_contention_slows_transfers():
    """Two clients sharing one link to the same server contend."""

    def run(two_clients):
        clients = [ClientDef("c0", "ch")] + (
            [ClientDef("c1", "ch")] if two_clients else []
        )
        tb = build_testbed(
            hosts=[HostDef("ch", 20.0), HostDef("ah", 50.0), HostDef("sh", 100.0)],
            servers=[ServerDef("s0", "sh", cfg=ServerConfig(max_concurrent=4))],
            clients=clients,
            agent_host="ah",
            default_link=LinkDef("*", "*", latency=1e-3, bandwidth=1.25e6),
        )
        tb.settle()
        rng = np.random.default_rng(1)
        n = 500
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        handles = [tb.submit("c0", "linsys/dgesv", [a, b])]
        if two_clients:
            handles.append(tb.submit("c1", "linsys/dgesv", [a, b]))
        tb.wait_all(handles)
        return handles[-1].record.total_seconds

    solo = run(False)
    contended = run(True)  # c1 queues behind c0 on the shared wire
    assert contended > solo


def test_agent_link_table_matches_the_topology():
    """The agent's table (explicit links plus one default) gives every
    host pair the parameters of the link its messages travel."""
    hosts = [HostDef(h, 50.0) for h in ("ah", "ch", "s1", "s2", "s3")]

    def build(default_link, links):
        return build_testbed(
            hosts=hosts,
            servers=[ServerDef("s1", "s1"), ServerDef("s2", "s2")],
            clients=[ClientDef("c0", "ch")],
            agent_host="ah",
            links=links,
            default_link=default_link,
        )

    links = [
        LinkDef("s2", "ch", latency=5e-3, bandwidth=1e6),  # unsorted pair
        LinkDef("ch", "s1", latency=1e-3, bandwidth=2e6),
        LinkDef("s1", "ch", latency=2e-3, bandwidth=3e6),  # redefined: wins
        LinkDef("ah", "s3", latency=0, bandwidth=4e6),  # int latency
    ]
    tb = build(LinkDef("*", "*", latency=7e-4, bandwidth=9e6), links)
    names = [h.name for h in hosts]
    for a in names:
        for b in names:
            if a == b:
                continue
            est = tb.agent.network.link(a, b)
            link = tb.topology.link(a, b)
            assert (est.latency, est.bandwidth) == (
                link.latency, link.bandwidth
            ), (a, b)
            assert type(est.latency) is float
    assert tb.agent.network.link("ch", "s1").latency == 2e-3

    full = [LinkDef(a, b) for i, a in enumerate(names) for b in names[i + 1:]
            if {a, b} != {"s2", "s3"}]
    tb = build(None, full)
    with pytest.raises(ConfigError):
        tb.agent.network.link("s2", "s3")
    assert tb.agent.network.link("s3", "ah").latency == LinkDef("", "").latency
