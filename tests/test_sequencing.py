"""Tests for the object store, pinned submits, store-once sequences of
pinned calls, and the learned-network feedback loop."""

import numpy as np
import pytest

from repro.config import ClientConfig, ServerConfig
from repro.core.predictor import (
    LearnedNetworkInfo,
    LinkEstimate,
    StaticNetworkInfo,
)
from repro.core.request import RequestStatus
from repro.errors import ConfigError, RequestFailed
from repro.protocol.messages import DataHandle
from repro.testbed import (
    ClientDef,
    HostDef,
    LinkDef,
    ServerDef,
    build_testbed,
    server_address,
    standard_testbed,
)

RNG = np.random.default_rng(55)


@pytest.fixture()
def tb():
    world = standard_testbed(n_servers=2, seed=66)
    world.settle()
    return world


def wait(world):
    return world.transport.run_until


# ----------------------------------------------------------------------
# object store
# ----------------------------------------------------------------------
def test_store_and_reference(tb):
    client = tb.client("c0")
    a = RNG.standard_normal((64, 64)) + 64 * np.eye(64)
    a_ref = wait(tb)(client.store(server_address("s1"), "A", a))
    assert a_ref.nbytes > 64 * 64 * 8
    assert tb.server("s1").cached_objects == 1
    x = RNG.standard_normal(64)
    handle = client.submit(
        "blas/dgemv", [DataHandle(key="A"), x], server=server_address("s1"),
        server_id="s1",
    )
    tb.wait_all([handle])
    (y,) = handle.result()
    assert np.allclose(y, a @ x)


def test_unknown_ref_is_structured_error(tb):
    client = tb.client("c0")
    handle = client.submit(
        "blas/dgemv", [DataHandle(key="never-stored"), np.ones(4)],
        server=server_address("s0"), server_id="s0",
    )
    tb.wait_all([handle])
    assert handle.status is RequestStatus.FAILED
    with pytest.raises(RequestFailed, match="pinned"):
        handle.result()
    assert "never-stored" in handle.record.attempts[0].detail


def test_store_overwrite_replaces_bytes(tb):
    client = tb.client("c0")
    addr = server_address("s0")
    wait(tb)(client.store(addr, "k", np.zeros(1000)))
    before = tb.server("s0").cached_bytes
    wait(tb)(client.store(addr, "k", np.zeros(10)))
    assert tb.server("s0").cached_objects == 1
    assert tb.server("s0").cached_bytes < before


def test_delete_stored_idempotent(tb):
    client = tb.client("c0")
    addr = server_address("s0")
    wait(tb)(client.store(addr, "k", np.zeros(100)))
    freed = wait(tb)(client.delete_stored(addr, "k"))
    assert freed > 800
    again = wait(tb)(client.delete_stored(addr, "k"))
    assert again == 0
    assert tb.server("s0").cached_bytes == 0


def test_store_cache_cap_refuses():
    world = build_testbed(
        hosts=[HostDef("ch", 20.0), HostDef("ah", 50.0), HostDef("sh", 100.0)],
        servers=[ServerDef(
            "s0", "sh", cfg=ServerConfig(object_cache_bytes=1000)
        )],
        clients=[ClientDef("c0", "ch")],
        agent_host="ah",
    )
    world.settle()
    client = world.client("c0")
    promise = client.store(server_address("s0"), "big", np.zeros(10_000))
    world.run(until=world.kernel.now + 60.0)
    with pytest.raises(RequestFailed, match="cache full"):
        promise.result()
    assert world.server("s0").cached_objects == 0


def test_store_to_dead_server_times_out():
    world = standard_testbed(
        n_servers=1, seed=67,
        client_cfg=ClientConfig(server_timeout=10.0, timeout_floor=5.0),
    )
    world.settle()
    world.transport.crash(server_address("s0"))
    promise = world.client("c0").store(
        server_address("s0"), "k", np.zeros(10)
    )
    world.run(until=world.kernel.now + 30.0)
    with pytest.raises(RequestFailed, match="did not ack"):
        promise.result()


def test_pinned_request_no_failover():
    world = standard_testbed(
        n_servers=2, seed=68,
        client_cfg=ClientConfig(server_timeout=10.0),
    )
    world.settle()
    world.transport.crash(server_address("s0"))
    a = RNG.standard_normal((8, 8)) + 8 * np.eye(8)
    handle = world.client("c0").submit(
        "linsys/dgesv", [a, np.ones(8)], server=server_address("s0"),
        server_id="s0",
    )
    world.wait_all([handle], limit=world.kernel.now + 120.0)
    assert handle.status is RequestStatus.FAILED  # s1 was NOT tried


def test_pinned_validates_locally_when_no_refs(tb):
    client = tb.client("c0")
    # warm the spec cache
    a = RNG.standard_normal((8, 8)) + 8 * np.eye(8)
    tb.solve("c0", "linsys/dgesv", [a, np.ones(8)])
    handle = client.submit(
        "linsys/dgesv", [a, np.ones(9)], server=server_address("s0"),
        server_id="s0",
    )
    tb.wait_all([handle])
    assert handle.status is RequestStatus.FAILED
    assert "size symbol" in handle.record.error


# ----------------------------------------------------------------------
# a sequence: query once, store once, pinned calls by reference
# ----------------------------------------------------------------------
def test_query_candidates_pins_the_agent_choice(tb):
    candidates = wait(tb)(
        tb.client("c0").query_candidates("linsys/dgesv", {"n": 256})
    )
    assert candidates[0].server_id == "s1"  # the faster of the two


def test_sequence_store_solve_release(tb):
    client = tb.client("c0")
    best = wait(tb)(client.query_candidates("blas/dgemv", {"m": 32, "n": 32}))[0]
    a = RNG.standard_normal((32, 32))
    a_ref = wait(tb)(client.store(best.address, "A", a))
    for _ in range(3):
        x = RNG.standard_normal(32)
        handle = client.submit(
            "blas/dgemv", [a_ref, x], server=best.address,
            server_id=best.server_id, payloads={"A": a},
        )
        (y,) = wait(tb)(handle.promise)
        assert np.allclose(y, a @ x)
    freed = wait(tb)(client.delete_stored(best.address, "A"))
    assert freed == a_ref.nbytes > 0
    assert tb.server(best.server_id).cached_objects == 0


def test_query_candidates_api(tb):
    promise = tb.client("c0").query_candidates("linsys/dgesv", {"n": 128})
    candidates = wait(tb)(promise)
    assert [c.server_id for c in candidates][0] == "s1"
    assert all(c.predicted_seconds > 0 for c in candidates)


def test_query_candidates_unknown_problem(tb):
    promise = tb.client("c0").query_candidates("zzz", {})
    tb.run(until=tb.kernel.now + 5.0)
    with pytest.raises(RequestFailed):
        promise.result()


# ----------------------------------------------------------------------
# LearnedNetworkInfo
# ----------------------------------------------------------------------
def test_learned_network_prior_passthrough():
    prior = StaticNetworkInfo(default=LinkEstimate(0.01, 1e6))
    net = LearnedNetworkInfo(prior)
    assert net.link("a", "b").bandwidth == 1e6
    assert net.learned_bandwidth("a", "b") is None


def test_learned_network_observation_overrides_bandwidth_not_latency():
    prior = StaticNetworkInfo(default=LinkEstimate(0.01, 1e6))
    net = LearnedNetworkInfo(prior, alpha=1.0)
    net.observe("a", "b", nbytes=2e6, seconds=1.0)
    link = net.link("a", "b")
    assert link.bandwidth == pytest.approx(2e6)
    assert link.latency == 0.01
    assert net.observations == 1


def test_learned_network_symmetric_key():
    net = LearnedNetworkInfo(StaticNetworkInfo(default=LinkEstimate(0.0, 1.0)))
    net.observe("b", "a", nbytes=100, seconds=1.0)
    assert net.learned_bandwidth("a", "b") == pytest.approx(100.0)


def test_learned_network_ewma():
    net = LearnedNetworkInfo(
        StaticNetworkInfo(default=LinkEstimate(0.0, 1.0)), alpha=0.5
    )
    net.observe("a", "b", 100, 1.0)   # 100
    net.observe("a", "b", 200, 1.0)   # 0.5*100 + 0.5*200 = 150
    assert net.learned_bandwidth("a", "b") == pytest.approx(150.0)


def test_learned_network_ignores_degenerate_reports():
    net = LearnedNetworkInfo(StaticNetworkInfo(default=LinkEstimate(0.0, 1.0)))
    net.observe("a", "b", 0, 1.0)
    net.observe("a", "b", 10, 0.0)
    assert net.observations == 0


def test_learned_network_alpha_validation():
    prior = StaticNetworkInfo(default=LinkEstimate(0.0, 1.0))
    with pytest.raises(ConfigError):
        LearnedNetworkInfo(prior, alpha=0.0)
    with pytest.raises(ConfigError):
        LearnedNetworkInfo(prior, alpha=1.5)


def test_transfer_reports_reach_learning_agent():
    prior = StaticNetworkInfo(default=LinkEstimate(2e-3, 12.5e6))  # wrong bw
    net = LearnedNetworkInfo(prior, alpha=0.5)
    world = build_testbed(
        hosts=[HostDef("ch", 20.0), HostDef("ah", 50.0), HostDef("sh", 100.0)],
        servers=[ServerDef("s0", "sh")],
        clients=[ClientDef("c0", "ch")],
        agent_host="ah",
        default_link=LinkDef("*", "*", latency=2e-3, bandwidth=1.25e6),
        network_override=net,
    )
    world.settle()
    a = RNG.standard_normal((256, 256)) + 256 * np.eye(256)
    world.solve("c0", "linsys/dgesv", [a, np.ones(256)])
    world.run(until=world.kernel.now + 5.0)
    learned = net.learned_bandwidth("ch", "sh")
    assert learned is not None
    assert abs(learned - 1.25e6) / 1.25e6 < 0.2
