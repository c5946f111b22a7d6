"""The client's control exchanges: who shares an answer, who waits.

Every control exchange is one call on one table, keyed by what its
reply is matched on.  Only an identical lookup joins a call in flight;
anything else on a busy key waits its turn.  Each test in the first
three sections fails on the client that kept a waiter list per
operation:

* two operations on one ``(server, key)`` were merged — the second was
  never sent and resolved with the first one's ack;
* two ``fetch_result`` lookups of one request under different
  attributions shared one answer;
* a pinned submit ignored ``ClientConfig.default_qos``.

The pinned-submit section also pins what a second entry point for
pinned requests got wrong: it took no ``qos``, shipped handle-bearing
arguments unvalidated, and shipped unknown problems undescribed.
"""

import numpy as np
import pytest

from repro.config import ClientConfig, ServerConfig, SimConfig
from repro.errors import (
    BadArgumentsError,
    MissingObjectError,
    NetSolveError,
    ProblemNotFoundError,
    RequestFailed,
)
from repro.protocol.messages import (
    DataHandle,
    DeleteObject,
    FetchResult,
    SolveRequest,
    StoreObject,
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

S0 = server_address("s0")


def sent_by(tb, client_id="c0"):
    """Record every message the client's node sends from now on."""
    node = tb.transport.node(f"client/{client_id}")
    sent = []
    send = node.send

    def recording(dest, msg):
        sent.append((dest, msg))
        send(dest, msg)

    node.send = recording
    return sent


def of_type(sent, cls):
    return [msg for _dest, msg in sent if isinstance(msg, cls)]


def settle(tb, *promises):
    tb.run(until=tb.kernel.now + 5.0)
    assert all(p.done for p in promises)


@pytest.fixture()
def tb():
    world = standard_testbed(n_servers=1, seed=5)
    world.settle()
    return world


# ----------------------------------------------------------------------
# operations on one stored key apply in call order
# ----------------------------------------------------------------------
def test_back_to_back_stores_both_apply(tb):
    client = tb.client("c0")
    sent = sent_by(tb)
    small = client.store(S0, "k", np.ones(4))
    big = client.store(S0, "k", np.full(1000, 7.0))
    settle(tb, small, big)
    assert len(of_type(sent, StoreObject)) == 2
    assert small.result().nbytes < big.result().nbytes
    fetched = tb.fetch("c0", "k", address=S0)
    assert fetched.shape == (1000,) and fetched[0] == 7.0
    assert tb.client("c0").store_ops == 2


def test_store_then_delete_leaves_nothing_resident(tb):
    client = tb.client("c0")
    sent = sent_by(tb)
    stored = client.store(S0, "j", np.ones(10))
    deleted = client.delete_stored(S0, "j")
    settle(tb, stored, deleted)
    assert [type(m) for m in of_type(sent, (StoreObject, DeleteObject))] == [
        StoreObject, DeleteObject,
    ]
    assert deleted.result() == stored.result().nbytes  # the bytes it freed
    assert tb.server("s0").cached_objects == 0
    with pytest.raises(MissingObjectError):
        tb.fetch("c0", "j", address=S0)


def test_each_operation_resolves_with_its_own_ack(tb):
    client = tb.client("c0")
    small = client.store(S0, "h", np.ones(3))
    big = client.store(S0, "h", np.ones(6))
    gone = client.delete_stored(S0, "h")
    again = client.delete_stored(S0, "h")
    settle(tb, small, big, gone, again)
    assert small.result().key == "h" and small.result().shape == (3,)
    assert big.result().shape == (6,)
    assert big.result().nbytes > small.result().nbytes
    assert gone.result() == big.result().nbytes
    assert again.result() == 0


def test_queued_operation_times_out_on_its_own_clock():
    """A queued operation's deadline starts when it is sent, so a dead
    server costs each operation one full ``server_timeout``."""
    tb = standard_testbed(
        n_servers=1, seed=5,
        client_cfg=ClientConfig(server_timeout=5.0, timeout_floor=1.0),
    )
    tb.settle()
    client = tb.client("c0")
    tb.transport.crash(S0)
    t0 = tb.kernel.now
    first = client.store(S0, "k", np.ones(4))
    second = client.delete_stored(S0, "k")
    tb.run(until=t0 + 6.0)
    assert first.done and not second.done
    tb.run(until=t0 + 11.0)
    for promise in (first, second):
        with pytest.raises(RequestFailed, match="did not ack"):
            promise.result()
    assert client.store_timeouts == 2
    assert len(client._deadlines) == 0


# ----------------------------------------------------------------------
# fetch_result: only identical lookups share an answer
# ----------------------------------------------------------------------
def two_client_world(tmp_path):
    tb = build_testbed(
        hosts=[HostDef("apollo", 20.0), HostDef("hermes", 50.0),
               HostDef("zeus0", 100.0)],
        servers=[ServerDef(
            server_id="s0", host="zeus0",
            cfg=ServerConfig(store_path=str(tmp_path / "jobs.sqlite")),
        )],
        clients=[ClientDef("c0", "apollo"), ClientDef("c1", "apollo")],
        agent_host="hermes",
        default_link=LinkDef("*", "*"),
        sim=SimConfig(seed=3),
    )
    tb.settle()
    rng = np.random.default_rng(9)
    a = rng.standard_normal((48, 48)) + 48 * np.eye(48)
    tb.solve("c0", "linsys/dgesv", [a, rng.standard_normal(48)])
    return tb, tb.client("c0").records[-1].request_id


def test_fetch_result_attributions_are_not_merged(tmp_path):
    tb, rid = two_client_world(tmp_path)
    try:
        client = tb.client("c1")
        sent = sent_by(tb, "c1")
        theirs = client.fetch_result(S0, rid, client="client/c0")
        mine = client.fetch_result(S0, rid)
        settle(tb, theirs, mine)
        assert [m.client for m in of_type(sent, FetchResult)] == [
            "client/c0", "",
        ]
        assert theirs.result().status == "done"
        assert mine.result().status == "unknown"
    finally:
        tb.server("s0").on_shutdown()


def test_identical_fetch_results_share_one_lookup(tmp_path):
    tb, rid = two_client_world(tmp_path)
    try:
        client = tb.client("c1")
        sent = sent_by(tb, "c1")
        first = client.fetch_result(S0, rid, client="client/c0")
        other = client.fetch_result(S0, rid)
        second = client.fetch_result(S0, rid, client="client/c0")
        settle(tb, first, other, second)
        assert len(of_type(sent, FetchResult)) == 2
        assert first.result() is second.result()
        assert other.result().status == "unknown"
        assert client.fetches == 2
    finally:
        tb.server("s0").on_shutdown()


# ----------------------------------------------------------------------
# a pinned submit is a submit: QoS, validation and describe included
# ----------------------------------------------------------------------
def test_pinned_submit_carries_default_qos():
    # the configured default class, then an explicit one
    for default_qos, qos in (("interactive", ""), ("", "interactive")):
        tb = standard_testbed(
            n_servers=1, seed=5,
            client_cfg=ClientConfig(default_qos=default_qos),
        )
        tb.settle()
        sent = sent_by(tb)
        a = np.eye(4) * 4.0
        brokered = tb.submit("c0", "linsys/dgesv", [a, np.ones(4)], qos=qos)
        pinned = tb.client("c0").submit(
            "linsys/dgesv", [a, np.ones(4)], server=S0, server_id="s0",
            qos=qos,
        )
        tb.wait_all([brokered, pinned])
        assert [m.qos for m in of_type(sent, SolveRequest)] == [
            "interactive", "interactive",
        ]


def test_pinned_handle_with_the_wrong_shape_rejects_locally(tb):
    client = tb.client("c0")
    tb.transport.run_until(client.describe("blas/dgemv"))
    node = tb.transport.node("client/c0")
    before = node.bytes_sent
    handle = client.submit(
        "blas/dgemv",
        [DataHandle(key="A", address=S0, shape=(6, 6)), np.ones(5)],
        server=S0, server_id="s0",
    )
    assert handle.done
    with pytest.raises(BadArgumentsError):
        handle.result()
    assert node.bytes_sent == before
    assert client.attempts == 0


def test_pinned_unknown_problem_is_described_not_shipped(tb):
    client = tb.client("c0")
    sent = sent_by(tb)
    handle = client.submit("zzz/none", [np.ones(3)], server=S0,
                           server_id="s0")
    settle(tb, handle.promise)
    with pytest.raises(ProblemNotFoundError):
        handle.result()
    assert of_type(sent, SolveRequest) == []
    assert client.attempts == 0


# ----------------------------------------------------------------------
# calls answered on the spot still settle through the one path
# ----------------------------------------------------------------------
def test_unroutable_calls_reject_at_once(tb):
    client = tb.client("c0")
    with pytest.raises(NetSolveError, match="needs a server address"):
        client.fetch("bare-key").result()
    with pytest.raises(NetSolveError, match="needs a server address"):
        client.submit_dag([{"id": "n", "problem": "blas/ddot",
                            "inputs": (np.ones(2), np.ones(2))}]).result()
    assert client._calls == {}


def test_describe_of_a_cached_spec_resolves_at_once(tb):
    client = tb.client("c0")
    spec = tb.transport.run_until(client.describe("blas/ddot"))
    again = client.describe("blas/ddot")
    assert again.done and again.result() is spec
