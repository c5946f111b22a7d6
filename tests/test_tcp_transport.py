"""Integration tests over real localhost TCP sockets.

The same agent/server/client components that run in simulation run here
over actual sockets and the transport's loop thread — proving the
protocol logic is transport-independent.
"""

import numpy as np
import pytest

from repro.capi import NS_OK, netsl
from repro.config import ClientConfig, ServerConfig, WorkloadPolicy
from repro.core.agent import Agent
from repro.core.client import NetSolveClient
from repro.core.predictor import LinkEstimate, StaticNetworkInfo
from repro.core.server import ComputationalServer
from repro.errors import TransportError
from repro.matlab import MatlabNetSolve
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import Ping, Pong
from repro.protocol.tcp import TcpSession, TcpTransport, ThreadPromise
from repro.protocol.transport import Component

RNG = np.random.default_rng(101)
WAIT = 30.0


def _deploy(transport):
    """An agent, two servers and a client on ``transport``."""
    network = StaticNetworkInfo(default=LinkEstimate(latency=1e-4, bandwidth=1e9))
    agent = Agent(network=network)
    transport.add_node("agent", agent, port=0)
    servers = []
    for i, mflops in enumerate((200.0, 400.0)):
        server = ComputationalServer(
            server_id=f"s{i}",
            agent_address="agent",
            registry=builtin_registry(),
            mflops=mflops,
            host=transport.host_name,
            cfg=ServerConfig(
                workload=WorkloadPolicy(time_step=0.2, threshold=10.0)
            ),
        )
        transport.add_node(f"server/s{i}", server, port=0)
        servers.append(server)
    client = NetSolveClient(
        client_id="c0",
        agent_address="agent",
        cfg=ClientConfig(agent_timeout=10.0, timeout_floor=10.0),
    )
    client_node = transport.add_node("client/c0", client, port=0)
    return agent, servers, TcpSession(client_node, timeout=WAIT)


@pytest.fixture()
def deployment():
    with TcpTransport() as transport:
        yield transport, *_deploy(transport)


def wait_for(predicate, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_servers_register_over_tcp(deployment):
    _transport, agent, _servers, _session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    assert set(e.server_id for e in agent.table.entries()) == {"s0", "s1"}


def test_blocking_solve_over_tcp(deployment):
    _t, agent, _s, session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    n = 60
    a = RNG.standard_normal((n, n)) + n * np.eye(n)
    b = RNG.standard_normal(n)
    handle = session.submit("linsys/dgesv", [a, b])
    (x,) = handle.promise.wait(WAIT)
    assert np.allclose(a @ x, b, atol=1e-8)


def test_capi_over_tcp(deployment):
    _t, agent, _s, session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    a = RNG.standard_normal((20, 20)) + 20 * np.eye(20)
    b = RNG.standard_normal(20)
    status, (x,) = netsl(session, "linsys/dgesv", a, b)
    assert status == NS_OK
    assert np.allclose(a @ x, b, atol=1e-8)


def test_matlab_over_tcp(deployment):
    _t, agent, _s, session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    ml = MatlabNetSolve(session)
    r = ml.netsolve("ddot", np.arange(5.0), np.arange(5.0))
    assert r == pytest.approx(30.0)


def test_workload_reports_flow_over_tcp(deployment):
    _t, agent, _s, _session = deployment
    assert wait_for(lambda: agent.reports_received >= 2, timeout=15.0)


def test_concurrent_requests_over_tcp(deployment):
    _t, agent, _s, session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    handles = []
    for _ in range(4):
        n = 30
        a = RNG.standard_normal((n, n)) + n * np.eye(n)
        b = RNG.standard_normal(n)
        handles.append((session.submit("linsys/dgesv", [a, b]), a, b))
    for handle, a, b in handles:
        (x,) = handle.promise.wait(WAIT)
        assert np.allclose(a @ x, b, atol=1e-8)


def test_raw_ping_pong_over_tcp():
    class Recorder(Component):
        def __init__(self):
            self.pongs = []

        def on_message(self, src, msg):
            if isinstance(msg, Ping):
                self.node.send(src, Pong(nonce=msg.nonce))
            elif isinstance(msg, Pong):
                self.pongs.append(msg.nonce)

    with TcpTransport() as transport:
        a = Recorder()
        b = Recorder()
        na = transport.add_node("a", a)
        transport.add_node("b", b)
        na.send("b", Ping(nonce=5))
        assert wait_for(lambda: a.pongs == [5])


def test_unknown_destination_is_dropped_not_fatal():
    with TcpTransport() as transport:
        node = transport.add_node("a", _Sink())
        node.send("ghost", Ping())  # must not raise


class _Sink(Component):
    def on_message(self, src, msg):
        pass


def test_duplicate_address_rejected():
    with TcpTransport() as transport:
        transport.add_node("a", _Sink())
        with pytest.raises(TransportError):
            transport.add_node("a", _Sink())


def test_thread_promise_timeout():
    p = ThreadPromise()
    with pytest.raises(TransportError, match="timed out"):
        p.wait(0.05)


def test_thread_promise_cross_thread_resolution():
    import threading

    p = ThreadPromise()
    threading.Timer(0.05, lambda: p.resolve("late")).start()
    assert p.wait(5.0) == "late"


def test_malformed_bytes_do_not_kill_listener():
    import socket

    with TcpTransport() as transport:
        recorder = _Sink()
        node = transport.add_node("a", recorder)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(b"GARBAGE GARBAGE GARBAGE")
        # node still serves well-formed traffic afterwards
        b = TcpTransport()
        try:
            sender = b.add_node("z", _Sink())
            b.register_remote("a", "127.0.0.1", node.port)
            sender.send("a", Ping())
        finally:
            b.close()


def test_malformed_frames_are_counted_drops():
    # a hostile or broken peer costs a connection and a counter tick,
    # never the node: a frame cut short mid-body and a well-formed frame
    # of an unknown message type each count once, and the node keeps
    # delivering what follows
    import socket
    import struct

    from repro.protocol.codec import (
        HEADER, MAGIC, PROTOCOL_VERSION, encode_message,
    )
    from repro.trace.instruments import MetricsRegistry

    class Recorder(Component):
        def __init__(self):
            self.nonces = []

        def on_message(self, src, msg):
            self.nonces.append(msg.nonce)

    def envelope(frame: bytes) -> bytes:
        src, ret = b"raw-peer", b"127.0.0.1:9"
        return (
            struct.pack("<I", len(src)) + src
            + struct.pack("<I", len(ret)) + ret + frame
        )

    metrics = MetricsRegistry()
    with TcpTransport(metrics=metrics) as transport:
        recorder = Recorder()
        node = transport.add_node("a", recorder)
        assert transport.messages_malformed == 0
        whole = encode_message(Ping(nonce=1))
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(envelope(whole[:-3]))  # truncated, then hang-up
        assert wait_for(lambda: transport.messages_malformed == 1)
        unknown = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, 999, len(whole) - HEADER.size
        )
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(envelope(unknown + whole[HEADER.size:]))
            conn.settimeout(5.0)
            assert conn.recv(1) == b""  # connection dropped
        assert wait_for(lambda: transport.messages_malformed == 2)
        assert metrics.counter("wire.malformed").value == 2
        assert node.alive and recorder.nonces == []
        # the next well-formed message is delivered
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(envelope(encode_message(Ping(nonce=42))))
            assert wait_for(lambda: recorder.nonces == [42])
        assert transport.messages_malformed == 2


def test_forged_envelope_length_dropped_without_allocation():
    # a hostile 4 GiB envelope-length claim must be rejected *before*
    # any buffer is sized from it: the listener hangs up immediately
    # (no multi-second read-timeout stall on a giant allocation) and
    # keeps serving well-formed peers
    import socket
    import struct
    import time

    with TcpTransport() as transport:
        recorder = _Sink()
        node = transport.add_node("a", recorder)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(struct.pack("<I", 0xFFFFFFF0))
            conn.settimeout(2.0)
            t0 = time.monotonic()
            assert conn.recv(1) == b""  # dropped, not absorbed
            assert time.monotonic() - t0 < 2.0
        b = TcpTransport()
        try:
            sender = b.add_node("z", _Sink())
            b.register_remote("a", "127.0.0.1", node.port)
            sender.send("a", Ping())
        finally:
            b.close()


def test_object_store_and_sequencing_over_tcp(deployment):
    """Store once, refer after (store + pinned DataHandle) over real
    sockets."""
    _t, agent, _s, session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    client = session.client
    node = session.node

    a = RNG.standard_normal((40, 40)) + 40 * np.eye(40)
    store_promise = node.call(lambda: client.store("server/s1", "seq/A", a))
    a_ref = store_promise.wait(WAIT)
    assert a_ref.key == "seq/A" and a_ref.address == "server/s1"
    assert a_ref.nbytes > 40 * 40 * 8

    x = RNG.standard_normal(40)
    handle = node.call(lambda: client.submit(
        "blas/dgemv", [a_ref, x], server="server/s1", server_id="s1",
    ))
    (y,) = handle.promise.wait(WAIT)
    assert np.allclose(y, a @ x)

    delete_promise = node.call(
        lambda: client.delete_stored("server/s1", "seq/A")
    )
    assert delete_promise.wait(WAIT) == a_ref.nbytes


def _open_fds() -> int:
    import os

    return len(os.listdir("/proc/self/fd"))


def test_connection_reused_across_sends():
    """Consecutive messages to one peer ride a single pooled socket."""

    class Counter(Component):
        def __init__(self):
            self.nonces = []

        def on_message(self, src, msg):
            self.nonces.append(msg.nonce)

    with TcpTransport() as transport:
        receiver = Counter()
        transport.add_node("rx", receiver)
        sender = transport.add_node("tx", _Sink())
        for i in range(8):
            sender.send("rx", Ping(nonce=i))
        assert wait_for(lambda: len(receiver.nonces) == 8)
        # messages on one connection arrive in order
        assert receiver.nonces == list(range(8))
        assert sender._pool.dials == 1
        assert sender._pool.reuses == 7


def test_pool_reconnects_after_peer_restart():
    import time

    class Counter(Component):
        def __init__(self):
            self.count = 0

        def on_message(self, src, msg):
            self.count += 1

    t_rx = TcpTransport()
    t_tx = TcpTransport()
    try:
        rx = Counter()
        node_rx = t_rx.add_node("rx", rx)
        port = node_rx.port
        sender = t_tx.add_node("tx", _Sink())
        t_tx.register_remote("rx", "127.0.0.1", port)
        sender.send("rx", Ping())
        assert wait_for(lambda: rx.count == 1)
        # restart the peer on the same port: pooled socket is now dead
        node_rx.shutdown()
        del t_rx.nodes["rx"]
        rx2 = Counter()
        node_rx2 = t_rx.add_node("rx", rx2, port=port)
        assert node_rx2.port == port
        time.sleep(0.1)  # let the FIN reach the sender's pooled socket
        sender.send("rx", Ping())
        assert wait_for(lambda: rx2.count == 1)
        assert sender._pool.dials == 2
    finally:
        t_tx.close()
        t_rx.close()


def test_pool_closes_no_descriptor_leak():
    before = _open_fds()
    for _ in range(3):
        with TcpTransport() as transport:
            receiver = _Sink()
            transport.add_node("rx", receiver)
            sender = transport.add_node("tx", _Sink())
            for i in range(5):
                sender.send("rx", Ping(nonce=i))
            wait_for(lambda: True, timeout=0.05)
    # close shuts every socket, the loop's selector and its wake-up pair
    assert wait_for(lambda: _open_fds() == before, timeout=5.0), (
        f"fds before={before} after={_open_fds()}"
    )


def test_pool_bounded_size():
    with TcpTransport(pool_max=2) as transport:
        sender = transport.add_node("tx", _Sink())
        for i in range(5):
            transport.add_node(f"rx{i}", _Sink())
        for i in range(5):
            sender.send(f"rx{i}", Ping())
        assert len(sender._pool._conns) <= 2


def test_pool_idle_timeout_redials():
    import time

    with TcpTransport(pool_idle_timeout=0.05) as transport:
        receiver = _Sink()
        transport.add_node("rx", receiver)
        sender = transport.add_node("tx", _Sink())
        sender.send("rx", Ping())
        time.sleep(0.15)  # pooled socket expires
        sender.send("rx", Ping())
        assert sender._pool.dials == 2
        assert sender._pool.reuses == 0


def test_every_dialled_socket_sets_tcp_nodelay():
    # nothing flows back on an outbound link but ACKs, so Nagle would
    # hold a message's tail for the peer's delayed ACK
    import socket

    with TcpTransport() as transport:
        sender = transport.add_node("tx", _Sink())
        for name in ("rx0", "rx1"):
            transport.add_node(name, _Sink())

        def dial_all():
            conns = [sender._pool.dial(transport.resolve(name))
                     for name in ("rx0", "rx1", "rx0")]  # a redial too
            return [c.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    for c in conns]

        assert all(sender.call(dial_all))


def test_large_payload_sendmsg_roundtrip():
    """A multi-megabyte SolveRequest survives the scatter/gather path."""
    from repro.protocol.messages import SolveRequest

    class Catcher(Component):
        def __init__(self):
            self.got = None

        def on_message(self, src, msg):
            self.got = msg

    with TcpTransport() as transport:
        catcher = Catcher()
        transport.add_node("rx", catcher)
        sender = transport.add_node("tx", _Sink())
        a = RNG.standard_normal((512, 512))
        sender.send("rx", SolveRequest(request_id=3, problem="p", inputs=(a,)))
        assert wait_for(lambda: catcher.got is not None)
        assert np.array_equal(catcher.got.inputs[0], a)
        assert catcher.got.inputs[0].flags.writeable


def test_describe_over_tcp(deployment):
    _t, agent, _s, session = deployment
    assert wait_for(lambda: agent.registrations >= 2)
    promise = session.node.call(lambda: session.client.describe("eigen/symm"))
    spec = promise.wait(WAIT)
    assert spec.name == "eigen/symm"


# ----------------------------------------------------------------------
# regression: TcpSession.drive must not busy-poll plain promises, and
# its timeout error must name the request being waited on
# ----------------------------------------------------------------------
def _bare_session(timeout: float):
    """A TcpSession over a client node with no agent behind it."""
    transport = TcpTransport()
    client = NetSolveClient(client_id="cx", agent_address="agent")
    node = transport.add_node("client/cx", client, port=0)
    return transport, TcpSession(node, timeout=timeout)


def test_drive_waits_on_plain_promise_without_polling():
    import threading
    import time

    from repro.protocol.transport import Promise

    transport, session = _bare_session(timeout=10.0)
    try:
        promise = Promise()  # deliberately NOT a ThreadPromise
        threading.Timer(0.05, lambda: promise.resolve("late")).start()
        t0 = time.monotonic()
        assert session.drive_result(promise) == "late"
        # condition-variable wake-up, not a wall-clock poll against the
        # full session deadline
        assert time.monotonic() - t0 < 5.0
        # an already-settled promise returns immediately
        done = Promise()
        done.resolve(7)
        assert session.drive_result(done) == 7
    finally:
        transport.close()


def test_drive_timeout_names_the_request():
    from repro.core.client import RequestHandle
    from repro.core.request import RequestRecord
    from repro.protocol.transport import Promise

    transport, session = _bare_session(timeout=0.05)
    try:
        record = RequestRecord(request_id=7, problem="linsys/dgesv", sizes={})
        handle = RequestHandle(record, Promise())  # never settles
        with pytest.raises(TransportError, match=r"request 7.*linsys/dgesv"):
            session.drive(handle)
        # a bare promise still times out, with a generic identity
        with pytest.raises(TransportError, match="Promise"):
            session.drive(Promise())
    finally:
        transport.close()


def test_drive_accepts_request_handles():
    import threading

    from repro.core.client import RequestHandle
    from repro.core.request import RequestRecord

    transport, session = _bare_session(timeout=10.0)
    try:
        record = RequestRecord(request_id=9, problem="p", sizes={})
        promise = ThreadPromise()
        handle = RequestHandle(record, promise)
        threading.Timer(0.05, lambda: promise.resolve(("ok",))).start()
        session.drive(handle)
        assert handle.result() == ("ok",)
    finally:
        transport.close()


# ----------------------------------------------------------------------
# inbound reader: raw sockets against a live node
# ----------------------------------------------------------------------
def _enveloped(msg, src=b"raw-peer", ret=b"127.0.0.1:9") -> bytes:
    import struct

    from repro.protocol.codec import encode_message

    return (
        struct.pack("<I", len(src)) + src
        + struct.pack("<I", len(ret)) + ret + encode_message(msg)
    )


class _Catcher(Component):
    def __init__(self):
        self.got = []

    def on_message(self, src, msg):
        self.got.append(msg)


@pytest.fixture()
def listener():
    with TcpTransport() as transport:
        catcher = _Catcher()
        node = transport.add_node("rx", catcher)
        yield transport, node, catcher


def test_reader_delivers_frames_written_together_in_order(listener):
    import socket

    from repro.protocol.messages import SolveRequest

    _transport, node, catcher = listener

    def middle(k):
        return SolveRequest(
            request_id=2, problem="p", inputs=(np.ones(k, dtype=bool),)
        )

    # size the middle frame so the third record's envelope straddles the
    # end of the reader's 64 KiB receive buffer
    head = len(_enveloped(Ping(nonce=1)))
    k = (1 << 16) - head - len(_enveloped(middle(0))) - 6
    records = [Ping(nonce=1), middle(k), Ping(nonce=3)]
    with socket.create_connection(("127.0.0.1", node.port)) as conn:
        conn.sendall(b"".join(_enveloped(m) for m in records))
        assert wait_for(lambda: len(catcher.got) == 3)
    first, second, third = catcher.got
    assert (first, third) == (Ping(nonce=1), Ping(nonce=3))
    assert second.request_id == 2
    assert np.array_equal(second.inputs[0], np.ones(k, dtype=bool))


def test_reader_delivers_a_frame_dribbled_byte_by_byte(listener):
    import socket
    import time

    _transport, node, catcher = listener
    data = _enveloped(Ping(nonce=9))
    with socket.create_connection(("127.0.0.1", node.port)) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(data)):
            conn.sendall(data[i:i + 1])
            time.sleep(0.001)
        assert wait_for(lambda: catcher.got == [Ping(nonce=9)])


def test_reader_roundtrips_a_body_beyond_one_chunk(listener):
    import socket

    from repro.protocol.messages import SolveRequest

    transport, node, catcher = listener
    a = RNG.standard_normal(5 * (1 << 20) // 8)  # 5 MiB: past the 4 MiB chunk
    with socket.create_connection(("127.0.0.1", node.port)) as conn:
        conn.sendall(
            _enveloped(SolveRequest(request_id=5, problem="p", inputs=(a,)))
        )
        assert wait_for(lambda: len(catcher.got) == 1, timeout=WAIT)
    got = catcher.got[0].inputs[0]
    assert got.tobytes() == a.tobytes()
    assert got.flags.writeable
    assert transport.messages_malformed == 0


@pytest.mark.parametrize("cut", [6, -2], ids=["mid_envelope", "mid_body"])
def test_reader_drops_a_frame_stalled_mid_body(monkeypatch, cut):
    import socket

    from repro.protocol import tcp

    monkeypatch.setattr(tcp, "_CONNECT_TIMEOUT", 0.2)
    with TcpTransport() as transport:
        catcher = _Catcher()
        node = transport.add_node("rx", catcher)
        data = _enveloped(Ping(nonce=1))
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(data[:cut])  # frame cut short, connection held open
            conn.settimeout(5.0)
            assert conn.recv(1) == b""  # the listener gives up on it
        assert wait_for(lambda: transport.messages_malformed == 1)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(_enveloped(Ping(nonce=2)))
            assert wait_for(lambda: catcher.got == [Ping(nonce=2)])
        assert transport.messages_malformed == 1


def test_reader_keeps_a_connection_idle_between_messages(monkeypatch):
    # the mid-frame stall limit must not apply between messages
    import socket
    import time

    from repro.protocol import tcp

    monkeypatch.setattr(tcp, "_CONNECT_TIMEOUT", 0.2)
    with TcpTransport() as transport:
        catcher = _Catcher()
        node = transport.add_node("rx", catcher)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(_enveloped(Ping(nonce=1)))
            assert wait_for(lambda: catcher.got == [Ping(nonce=1)])
            time.sleep(0.5)
            conn.sendall(_enveloped(Ping(nonce=2)))
            assert wait_for(lambda: len(catcher.got) == 2)
        assert catcher.got == [Ping(nonce=1), Ping(nonce=2)]
        assert transport.messages_malformed == 0


def test_reader_learns_each_new_return_path(listener):
    import socket

    transport, node, catcher = listener
    with socket.create_connection(("127.0.0.1", node.port)) as conn:
        for port in (9, 9, 10):
            ret = f"127.0.0.1:{port}".encode()
            conn.sendall(_enveloped(Ping(nonce=port), ret=ret))
        assert wait_for(lambda: len(catcher.got) == 3)
    assert transport.resolve("raw-peer") == ("127.0.0.1", 10)


def test_reader_stall_deadline_runs_from_the_last_bytes_received(monkeypatch):
    # the stall deadline restarts with every read: a peer that trickles a
    # frame out over several deadlines is slow, not stalled
    import socket
    import time

    from repro.protocol import tcp

    monkeypatch.setattr(tcp, "_CONNECT_TIMEOUT", 0.2)
    with TcpTransport() as transport:
        catcher = _Catcher()
        node = transport.add_node("rx", catcher)
        data = _enveloped(Ping(nonce=7))
        step = max(1, len(data) // 16)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(0, len(data), step):
                conn.sendall(data[i:i + step])
                time.sleep(0.05)
            assert wait_for(lambda: catcher.got == [Ping(nonce=7)])
        assert transport.messages_malformed == 0


def test_pool_counters_exact_under_concurrent_sends():
    import threading
    import time

    class YieldingInt(int):
        # yields the GIL between an increment's read and its write, the
        # window where an unlocked ``+= 1`` from another thread is lost
        def __add__(self, other):
            time.sleep(0)
            return YieldingInt(int(self) + other)

    threads, sends = 8, 50
    with TcpTransport() as transport:
        transport.add_node("rx", _Sink())
        sender = transport.add_node("tx", _Sink())
        pool = sender._pool
        pool.dials, pool.reuses = YieldingInt(0), YieldingInt(0)
        start = threading.Barrier(threads)

        def blast():
            start.wait()
            for i in range(sends):
                sender.send("rx", Ping(nonce=i))

        workers = [threading.Thread(target=blast) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert pool.dials + pool.reuses == threads * sends


# ----------------------------------------------------------------------
# the loop: one thread per transport runs sockets, timers and dispatch
# ----------------------------------------------------------------------
def test_timers_fire_in_due_order():
    fired = []
    with TcpTransport() as transport:
        node = transport.add_node("t", _Sink())

        def arm():
            for delay in (0.12, 0.03, 0.09, 0.0, 0.06):
                node.call_after(delay, lambda d=delay: fired.append(d))

        node.call(arm)
        assert wait_for(lambda: len(fired) == 5)
    assert fired == [0.0, 0.03, 0.06, 0.09, 0.12]


def test_a_timer_cancelled_before_it_is_due_never_fires():
    fired = []
    with TcpTransport() as transport:
        node = transport.add_node("t", _Sink())
        base = transport.kernel.pending()

        def arm():
            doomed = node.call_after(0.05, lambda: fired.append("doomed"))
            node.call_after(0.15, lambda: fired.append("kept"))
            doomed.cancel()
            doomed.cancel()  # idempotent

        node.call(arm)
        assert wait_for(lambda: fired == ["kept"])
        assert transport.kernel.pending() == base
    assert fired == ["kept"]


def test_timer_heap_compaction_keeps_the_heap_bounded():
    from repro.simnet.kernel import EventKernel

    # a deadline table cancels almost every timer it arms; dead entries
    # far in the future must not pile up in the loop's kernel
    with TcpTransport() as transport:
        node = transport.add_node("t", _Sink())
        kernel = transport.kernel
        base = kernel.pending()

        def churn():
            peak = 0
            keeper = node.call_after(60.0, lambda: None)
            for _ in range(8 * EventKernel.COMPACT_MIN):
                node.call_after(60.0, lambda: None).cancel()
                peak = max(peak, len(kernel._heap))
            return keeper, peak

        keeper, peak = node.call(churn)
        assert kernel.pending() == base + 1
        assert peak <= EventKernel.COMPACT_MIN
        assert len(kernel._heap) < EventKernel.COMPACT_MIN
        node.call(keeper.cancel)
        assert kernel.pending() == base


def test_timer_counts_stay_exact_under_concurrent_arm_cancel_and_fire():
    import collections
    import sys
    import threading

    # four threads arm and cancel through the loop while it fires; a lost
    # update leaves the kernel's live count off its baseline at the end
    threads, per = 4, 250
    fired = collections.Counter()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with TcpTransport() as transport:
            node = transport.add_node("t", _Sink())
            base = transport.kernel.pending()
            start = threading.Barrier(threads)

            def arm(i, key):
                if i % 3:
                    node.call_after(0.001 * (i % 4),
                                    lambda: fired.update([key]))
                else:
                    node.call_after(
                        30.0, lambda: fired.update([key])
                    ).cancel()

            def churn(k):
                start.wait(timeout=10)
                for i in range(per):
                    node.call(lambda i=i: arm(i, (k, i)))

            workers = [threading.Thread(target=churn, args=(k,))
                       for k in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(30)
            assert not any(w.is_alive() for w in workers)
            kept = {(k, i) for k in range(threads) for i in range(per) if i % 3}
            assert wait_for(lambda: set(fired) == kept)
            assert transport.kernel.pending() == base
            assert set(fired.values()) == {1}
    finally:
        sys.setswitchinterval(switch)


def test_a_raising_timer_callback_is_counted_and_later_timers_fire():
    from repro.trace.instruments import MetricsRegistry

    fired = []

    def boom():
        raise RuntimeError("callback bug")

    metrics = MetricsRegistry()
    with TcpTransport(metrics=metrics) as transport:
        node = transport.add_node("t", _Sink())

        def arm():
            node.call_after(0.0, boom)
            node.call_after(0.05, lambda: fired.append(1))

        node.call(arm)
        assert wait_for(lambda: fired == [1])
        node.call(lambda: node.call_after(0.0, lambda: fired.append(2)))
        assert wait_for(lambda: fired == [1, 2])
        assert transport.handler_errors == 1
        assert metrics.get("wire.handler_errors").value == 1


def test_close_ends_the_loop_and_refuses_new_timers():
    from repro.errors import TransportClosed

    fired = []
    transport = TcpTransport()
    try:
        node = transport.add_node("t", _Sink())
        node.call(lambda: node.call_after(30.0, lambda: fired.append(1)))
        node.shutdown()
        with pytest.raises(TransportClosed):
            node.call(lambda: node.call_after(0.0, lambda: fired.append(2)))
    finally:
        transport.close()
    assert not transport._thread.is_alive()
    with pytest.raises(TransportClosed):
        node.call(lambda: None)
    transport.close()  # idempotent
    assert fired == []


def test_node_shutdown_cancels_its_timers_in_the_transport_kernel():
    fired = []
    with TcpTransport() as transport:
        def pending():
            return transport.call(transport.kernel.pending)

        assert pending() == 1  # the transport's own connection sweep
        node = transport.add_node("t", _Sink())
        node.call(lambda: node.call_after(30.0, lambda: fired.append(1)))
        assert pending() == 2
        node.shutdown()
        assert pending() == 1
        assert len(node._timers) == 0
    assert fired == []


def test_one_loop_thread_plus_the_compute_workers_that_ran():
    import threading

    before = set(threading.enumerate())
    fds = _open_fds()
    transport = TcpTransport()
    try:
        agent, _servers, session = _deploy(transport)
        assert wait_for(lambda: agent.registrations >= 2)
        for n in (12, 24, 36):
            a = RNG.standard_normal((n, n)) + n * np.eye(n)
            b = RNG.standard_normal(n)
            status, (x,) = netsl(session, "linsys/dgesv", a, b)
            assert status == NS_OK and np.allclose(a @ x, b, atol=1e-8)
        started = {t for t in threading.enumerate() if t not in before}
        workers = {t for node in transport.nodes.values()
                   for t in node._compute_pool._threads}
        assert workers, "no compute worker ran"
        assert started == {transport._thread} | workers
        assert transport._thread.name == "tcp-loop"
    finally:
        transport.close()
    assert not transport._thread.is_alive()
    assert wait_for(lambda: not any(t.is_alive() for t in started))
    assert _open_fds() == fds


def test_two_nodes_of_one_transport_swap_8mb_frames_at_once():
    # both writes outrun the socket buffers and queue; the readers are the
    # same loop, so a blocking write would deadlock here
    from repro.protocol.messages import SolveRequest

    big = {"a": RNG.standard_normal(1 << 20), "b": RNG.standard_normal(1 << 20)}
    with TcpTransport() as transport:
        catchers = {name: _Catcher() for name in "ab"}
        nodes = {name: transport.add_node(name, catchers[name]) for name in "ab"}
        seen_by_timer = []

        def swap():
            for src, dest in (("a", "b"), ("b", "a")):
                nodes[src].send(dest, SolveRequest(
                    request_id=1, problem="p", inputs=(big[src],)
                ))
            # fires on the loop's next turn, with both frames in flight
            nodes["a"].call_after(0.0, lambda: seen_by_timer.append(
                [len(c.got) for c in catchers.values()]
            ))
            return [conn.outbox != [] for node in nodes.values()
                    for conn in node._pool._conns.values()]

        assert nodes["a"].call(swap) == [True, True]
        assert wait_for(
            lambda: all(len(c.got) == 1 for c in catchers.values()),
            timeout=WAIT,
        )
        assert seen_by_timer == [[0, 0]]
        nodes["a"].send("b", Ping(nonce=3))  # the connections still serve
        assert wait_for(lambda: len(catchers["b"].got) == 2)
    assert catchers["b"].got[0].inputs[0].tobytes() == big["a"].tobytes()
    assert catchers["a"].got[0].inputs[0].tobytes() == big["b"].tobytes()
    assert transport.messages_malformed == 0


def test_a_foreign_submit_and_a_loop_timer_never_run_together():
    import time

    class Probe(NetSolveClient):
        """Counts entries into its critical section that found it busy."""

        def __init__(self):
            super().__init__(client_id="cp", agent_address="agent")
            self.busy = False
            self.overlaps = self.ticks = 0

        def critical(self):
            if self.busy:
                self.overlaps += 1
            self.busy = True
            time.sleep(0.0005)  # lets any other thread in
            self.busy = False

        def on_bind(self):
            super().on_bind()
            self.node.call_after(0.0, self.tick)

        def tick(self):
            self.critical()
            self.ticks += 1
            if self.ticks < 200:
                self.node.call_after(0.0, self.tick)

        def submit(self, problem, args, *, qos=""):
            self.critical()
            return problem

    with TcpTransport() as transport:
        probe = Probe()
        session = TcpSession(transport.add_node("client/cp", probe))
        for _ in range(200):
            assert session.submit("p", []) == "p"
        assert wait_for(lambda: probe.ticks == 200)
    assert probe.overlaps == 0


@pytest.mark.parametrize("probe", ["solve-reply-to", "store-key"])
def test_a_handler_fault_is_counted_and_the_server_keeps_serving(probe):
    # hostile values the codec lets through: SolveRequest(reply_to={...})
    # blows up in the compute completion (an unhashable reply address;
    # a plain int is an unknown address now, and its reply is dropped),
    # StoreObject(key=5) in the message handler, where it also drops the
    # connection.  Either way the fault is counted once and the next
    # valid request is answered
    import socket

    from repro.protocol.messages import SolveReply, SolveRequest, StoreObject
    from repro.trace.instruments import MetricsRegistry

    a, b = np.eye(3) * 2.0, np.ones(3)
    hostile = {
        "solve-reply-to": SolveRequest(
            request_id=1, problem="linsys/dgesv", inputs=(a, b),
            reply_to={"to": 3},
        ),
        "store-key": StoreObject(key=5, value=np.ones(3)),
    }[probe]
    metrics = MetricsRegistry()
    with TcpTransport(metrics=metrics) as transport:
        server = ComputationalServer(
            server_id="s0",
            agent_address="agent",  # unresolvable: registrations drop
            registry=builtin_registry().subset(("linsys/dgesv",)),
            mflops=100.0,
            host=transport.host_name,
        )
        node = transport.add_node("server/s0", server)
        catcher = _Catcher()
        transport.add_node("rx", catcher)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(_enveloped(hostile))
            assert wait_for(lambda: transport.handler_errors == 1)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(_enveloped(SolveRequest(
                request_id=2, problem="linsys/dgesv", inputs=(a, b),
                reply_to="rx",
            )))
            assert wait_for(lambda: len(catcher.got) == 1)
        (reply,) = catcher.got
        assert isinstance(reply, SolveReply) and reply.ok
        assert np.allclose(reply.outputs[0], 0.5)
        assert node.alive
        assert transport.handler_errors == 1
        assert metrics.get("wire.handler_errors").value == 1
