"""Real-socket transport: the same components over localhost TCP.

**Threads.**  Each :class:`TcpTransport` runs one I/O loop thread,
``tcp-loop``: it owns every node's sockets, every timer, all message
dispatch and all compute completions, so the sans-IO components run on
one thread and hold no locks.  It waits in :mod:`selectors` until the
next timer is due; timers sit on an
:class:`~repro.simnet.kernel.EventKernel` that the loop advances to the
monotonic clock.  Compute runs on each node's bounded
:class:`~repro.core.executors.WorkerPool` (or a server's process pool),
and completions come back through the loop's wake-up socket, as does
any other thread's ``TcpNode.call(fn)`` (``TcpSession.submit`` uses
it).  A process hosting one transport runs one loop thread plus the
compute workers that ran.

**Frames.**  Inbound, envelopes (sender's logical address + return
endpoint) and codec headers are parsed in a reusable buffer, and each
frame body is received straight into its own buffer, since decoded
arrays may alias it; hostile lengths are rejected before allocating,
and a peer stalled mid-frame for ``_CONNECT_TIMEOUT`` is dropped.
Outbound, each destination has one persistent non-blocking connection:
a message leaves in one ``sendmsg`` of the envelope and the codec's iov
parts, and an unsent tail waits in the connection's outbox until the
socket drains, so a multi-megabyte frame never blocks the loop.  Every
dialled socket sets ``TCP_NODELAY``: nothing flows back on these links
but ACKs, so Nagle's algorithm would hold a message's short tail until
the peer's delayed ACK (40 ms on Linux) instead of sending it.  Idle
connections expire, dead ones are redialled on the next send, and the
pool is bounded.  An exception out of a handler, timer or completion is
counted (``wire.handler_errors``); a handler fault also drops its
connection, as a malformed frame does (``wire.malformed``).

This transport exists to prove the protocol is real: the integration
tests run a full agent/server/client deployment over actual sockets and
get bit-identical results to the simulated runs.
"""

from __future__ import annotations

import collections
import errno
import functools
import os
import selectors
import socket
import struct
import threading
import time
from typing import Any, Callable, Optional

from ..core.executors import WorkerPool
from ..errors import TransportClosed, TransportError
from ..simnet.kernel import EventKernel, Timer, TimerGroup
from ..trace.instruments import Metric, MetricsRegistry, track
from .codec import HEADER, MAX_BODY, decode_message, encode_message_iov
from .messages import Message
from .transport import WIRE_METRICS, Component, Node, Promise, _node_total

__all__ = ["TcpNode", "TcpTransport", "ThreadPromise", "TcpSession"]

_ENVELOPE = struct.Struct("<I")
#: addresses and return endpoints are short strings; an envelope length
#: beyond this is a hostile or corrupt peer, dropped before allocating
_MAX_ENVELOPE = 4096
_ACCEPT_BACKLOG = 64
#: how long a connection may stall mid-frame (inbound) or with unsent
#: bytes, its dial included (outbound)
_CONNECT_TIMEOUT = 5.0
#: per-connection receive buffer: fits an envelope plus codec header
_RECV_BUFFER = 1 << 16
#: larger bodies grow chunk by chunk: a forged length wastes one at most
_BODY_CHUNK = 1 << 22
#: outbound sockets unused this long are closed instead of reused
_POOL_IDLE_TIMEOUT = 30.0
#: pooled outbound sockets per node; least-recently-used beyond this close
_POOL_MAX = 32
#: keep sendmsg iov counts well under the kernel's IOV_MAX
_SENDMSG_MAX_BUFFERS = 256
#: compute-pool threads per node unless the deployment says otherwise
_DEFAULT_COMPUTE_WORKERS = 4
#: how long ``close`` waits for the loop thread to finish
_LOOP_JOIN_TIMEOUT = 5.0
#: resolved once: ``os.getloadavg`` does not exist on non-UNIX builds,
#: and the periodic workload sampler should not re-discover that (or
#: re-run the import machinery) every tick
_HAS_LOADAVG = hasattr(os, "getloadavg")


class ThreadPromise(Promise):
    """Promise with a thread-blocking ``wait``."""

    def __init__(self) -> None:
        super().__init__()
        self._event = threading.Event()
        self.on_settled(lambda _p: self._event.set())

    def wait(self, timeout: float | None = None) -> Any:
        """Block the calling thread until settled; returns the value or
        raises the stored error (or TransportError on timeout)."""
        if not self._event.wait(timeout):
            raise TransportError(f"promise wait timed out after {timeout}s")
        return self.result()


def _read_exact_into(conn: socket.socket, view: memoryview) -> int:
    """Receive what ``conn`` has ready (0 bytes for none); raises once
    the peer has hung up."""
    try:
        got = conn.recv_into(view)
    except BlockingIOError:
        return 0
    if not got:
        raise TransportError("peer closed mid-frame")
    return got


def _read_exact(conn: socket.socket, n: int, prefix) -> tuple[bytearray, int]:
    """A fresh ``n``-byte frame buffer: ``prefix``, then what ``conn`` has
    ready of the rest; returns it and how much of it is filled."""
    buf = bytearray(n)
    filled = len(prefix)
    buf[:filled] = prefix
    if filled < n:
        filled += _read_exact_into(conn, memoryview(buf)[filled:])
    return buf, filled


def _sendmsg_all(conn: socket.socket, buffers: list) -> int:
    """``sendmsg`` until ``buffers`` are out or the socket would block;
    written ones leave the list (a part cut short, its head)."""
    total = 0
    while buffers:
        try:
            sent = conn.sendmsg(buffers[:_SENDMSG_MAX_BUFFERS])
        except BlockingIOError:
            break
        total += sent
        done = 0
        for head in buffers:
            if head.nbytes > sent:
                break
            sent -= head.nbytes
            done += 1
        del buffers[:done]
        if sent:
            buffers[0] = buffers[0][sent:]
    return total


def _forget(selector: selectors.BaseSelector, sock: socket.socket) -> None:
    try:  # a second call is a no-op
        selector.unregister(sock)
    except (KeyError, ValueError):
        pass
    sock.close()


class _Outbound:
    """A pooled connection.  Bytes the socket would not take yet wait in
    ``outbox`` (as views of the sender's arrays) for ``EVENT_WRITE``."""

    __slots__ = ("pool", "key", "sock", "outbox", "last")

    def __init__(self, pool: "_ConnPool", key: tuple[str, int],
                 sock: socket.socket):
        self.pool, self.key, self.sock = pool, key, sock
        self.outbox: list = []
        self.last = time.monotonic()

    def write(self, buffers: list) -> bool:
        """Send or queue one message; False if the connection is dead."""
        if self.outbox:
            self.outbox += buffers  # behind the queued tail, in order
            return True
        self.last = time.monotonic()
        pending = list(buffers)  # ``buffers`` stays whole for a redial
        try:
            _sendmsg_all(self.sock, pending)
        except OSError:
            self.close()
            return False
        if pending:
            self.outbox = pending
            self.pool.selector.modify(
                self.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, self
            )
        return True

    def _ready(self, events: int) -> None:
        try:
            if events & selectors.EVENT_READ:
                # peers never talk back on these one-way links: readable
                # means EOF or reset, and the next send redials
                raise ConnectionError("peer closed")
            _sendmsg_all(self.sock, self.outbox)
        except OSError:
            self.close()
            return
        self.last = time.monotonic()
        if not self.outbox:
            self.pool.selector.modify(self.sock, selectors.EVENT_READ, self)

    def expire(self, now: float) -> None:
        if self.outbox and now - self.last > _CONNECT_TIMEOUT:
            self.close()  # a stalled dial or receiver: drop what waits

    def close(self) -> None:
        if self.pool._conns.get(self.key) is self:
            del self.pool._conns[self.key]
        _forget(self.pool.selector, self.sock)


class _ConnPool:
    """A node's outbound connections by (ip, port), least recent first."""

    def __init__(self, selector: selectors.BaseSelector, idle_timeout: float,
                 max_size: int):
        self.selector = selector
        self.idle_timeout = idle_timeout
        self.max_size = max_size
        self._conns: dict[tuple[str, int], _Outbound] = {}
        self.dials = 0
        self.reuses = 0

    def reuse(self, key: tuple[str, int]) -> _Outbound | None:
        conn = self._conns.pop(key, None)
        if conn is None:
            return None
        self._conns[key] = conn  # now the most recently used
        if not conn.outbox and time.monotonic() - conn.last > self.idle_timeout:
            conn.close()
            return None
        self.reuses += 1
        return conn

    def dial(self, key: tuple[str, int]) -> _Outbound | None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        try:
            err = sock.connect_ex(key)
        except OSError:
            err = errno.EINVAL
        if err not in (0, errno.EINPROGRESS):
            sock.close()
            return None
        self.dials += 1
        conn = self._conns[key] = _Outbound(self, key, sock)
        self.selector.register(sock, selectors.EVENT_READ, conn)
        idle = [c for c in self._conns.values()
                if not c.outbox and c is not conn]
        for old in idle[:max(0, len(self._conns) - self.max_size)]:
            old.close()
        return conn

    def close(self) -> None:
        for conn in list(self._conns.values()):
            conn.close()


class _Inbound:
    """An accepted connection: envelopes and headers parsed in a reusable
    buffer, each body received into its own buffer at its final size
    (past ``_BODY_CHUNK``, grown chunk by chunk)."""

    __slots__ = ("node", "sock", "buf", "pos", "end", "frame", "filled",
                 "total", "src", "ret", "peer", "last")

    def __init__(self, node: "TcpNode", sock: socket.socket):
        self.node, self.sock = node, sock
        self.buf = memoryview(bytearray(_RECV_BUFFER))
        self.pos = self.end = 0  # unread bytes are buf[pos:end]
        self.frame: bytearray | None = None  # the body being received
        self.filled = self.total = 0
        self.src = self.ret = ""
        self.peer: tuple[str, str] | None = None
        self.last = time.monotonic()

    def _mid_frame(self) -> bool:
        return self.frame is not None or self.pos < self.end

    def _ready(self, _events: int) -> None:
        node = self.node
        try:
            self._receive()
            while (message := self._message()) is not None:
                if not node.alive or node.component is None:
                    break
                node.messages_delivered += 1
                try:
                    node.component.on_message(*message)
                except Exception:
                    # a handler fault: counted, and the connection dropped
                    node.transport.handler_errors += 1
                    break
            else:
                return
        except BlockingIOError:
            return
        except Exception:
            # a hang-up or reset, or a hostile length, bad envelope,
            # undecodable or cut-short frame: mid-frame it counts as
            # malformed, unless our own teardown cut it short
            if node.alive and self._mid_frame():
                node.transport.messages_malformed += 1
        self.close()

    def _receive(self) -> None:
        """One read: into the frame being filled, else into the buffer."""
        frame = self.frame
        if frame is not None:
            if self.filled == len(frame):
                frame += bytes(min(self.total - self.filled, _BODY_CHUNK))
            got = _read_exact_into(self.sock, memoryview(frame)[self.filled:])
            self.filled += got
        else:
            unread = self.end - self.pos  # slide it down: room to read
            self.buf[:unread] = self.buf[self.pos:self.end]
            self.pos, self.end = 0, unread
            got = self.sock.recv_into(self.buf[unread:])
            if not got:
                raise TransportError("peer closed")
            self.end += got
        if got:
            self.last = time.monotonic()

    def _message(self) -> tuple[str, Message] | None:
        """The next complete ``(src, message)``, or None for now."""
        if self.frame is None and not self._start():
            return None
        if self.filled < self.total:
            return None
        # ndarrays alias the frame where aligned for their dtype, else copy
        msg = decode_message(self.frame)
        if (self.src, self.ret) != self.peer:
            # learn the return path (no-op in-process)
            ip, port_text = self.ret.rsplit(":", 1)
            self.node.transport.learn_peer(self.src, ip, int(port_text))
            self.peer = (self.src, self.ret)
        self.frame = None
        return self.src, msg

    def _start(self) -> bool:
        """Parse the next envelope and header in the buffer and allocate
        the frame (False until they are in); hostile lengths raise."""
        buf, at, end = self.buf, self.pos, self.end
        fields = []
        for _ in range(2):  # the source address, then the return endpoint
            if end - at < _ENVELOPE.size:
                return False
            (n,) = _ENVELOPE.unpack_from(buf, at)
            if n > _MAX_ENVELOPE:
                raise TransportError("envelope length over limit")
            at += _ENVELOPE.size + n
            fields.append(buf[at - n:at])
        if end - at < HEADER.size:
            return False
        length = HEADER.unpack_from(buf, at)[3]
        if length > MAX_BODY:
            raise TransportError("frame body length over limit")
        self.src, self.ret = str(fields[0], "utf-8"), str(fields[1], "ascii")
        self.total = HEADER.size + length
        first = min(self.total, HEADER.size + _BODY_CHUNK)
        took = min(at + first, end)  # still unread if the read raises
        self.frame, self.filled = _read_exact(self.sock, first, buf[at:took])
        self.pos = took
        return True

    def expire(self, now: float) -> None:
        if self._mid_frame():
            if now - self.last > _CONNECT_TIMEOUT:
                self.node.transport.messages_malformed += 1
                self.close()
        elif now - self.last > self.node.transport._idle_budget:
            self.close()  # idle well past any pooled sender's timeout

    def close(self, *, abort: bool = False) -> None:
        self.node._inbound.discard(self)
        if abort:
            # no TIME_WAIT holding the port, and senders' pooled sockets
            # see the death instead of hanging half-open
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                 struct.pack("ii", 1, 0))
        _forget(self.node.transport._selector, self.sock)


class TcpNode(Node):
    """A component endpoint on a real socket, served by the loop."""

    #: a real-socket node runs completions on OS threads, so a server
    #: may opt into the process-executor lane (the sim node cannot: its
    #: virtual clock would not account for child-process work)
    supports_process_pool = True

    def __init__(
        self,
        transport: "TcpTransport",
        address: str,
        port: int,
        *,
        compute_workers: int = _DEFAULT_COMPUTE_WORKERS,
    ):
        self.transport = transport
        self.address = address
        self.host_name = transport.host_name
        self.component: Component | None = None
        self.alive = True
        self.compute_workers = max(1, int(compute_workers))
        #: bounded compute pool; its threads start with the first
        #: compute(), so nodes that never run one (clients, agents) pay
        #: for an empty queue only
        self._compute_pool = WorkerPool(
            self.compute_workers, name=f"compute-{address}"
        )
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((transport.bind_ip, port))
        self._listener.listen(_ACCEPT_BACKLOG)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._pool = _ConnPool(transport._selector, transport.pool_idle_timeout,
                               transport.pool_max)
        self._inbound: set[_Inbound] = set()
        #: this node's armed timers in the transport's kernel; shutdown
        #: cancels them
        self._timers = TimerGroup(transport.kernel)
        # envelope prefix (our logical address + dial-back endpoint) is
        # identical on every message: build it exactly once
        src = self.address.encode("utf-8")
        ret = f"{transport.advertise_ip}:{self.port}".encode("ascii")
        self._envelope = memoryview(b"".join(
            (_ENVELOPE.pack(len(src)), src, _ENVELOPE.pack(len(ret)), ret)
        ))

    # ------------------------------------------------------------------
    # Node API
    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self.transport.epoch

    def call(self, fn: Callable[[], Any]) -> Any:
        """:meth:`TcpTransport.call`: the way in for other threads."""
        return self.transport.call(fn)

    def send(self, dest: str, msg: Message) -> None:
        if not self.alive:
            return
        if threading.get_ident() != self.transport._loop_id:
            self.call(lambda: self.send(dest, msg))
            return
        try:
            key = self.transport.resolve(dest)
        except TransportError:
            return  # unknown destination: drop, like a bad DNS name
        buffers = [self._envelope]
        for part in encode_message_iov(msg):
            buffers.append(part if isinstance(part, memoryview)
                           else memoryview(part).cast("B"))
        conn = self._pool.reuse(key)
        if conn is None or not conn.write(buffers):  # none, or a stale peer
            conn = self._pool.dial(key)
            if conn is None or not conn.write(buffers):
                self.messages_dropped += 1
                return  # unreachable peer == dropped message
        nbytes = sum(b.nbytes for b in buffers)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.transport._frame_bytes.observe(nbytes)

    def call_after(self, delay: float, fn: Callable[[], None]) -> Timer:
        if threading.get_ident() != self.transport._loop_id:
            return self.call(lambda: self.call_after(delay, fn))
        if not self.alive:
            raise TransportClosed(f"node {self.address!r} is down")
        return self._timers.call_at(
            self.now() + delay, functools.partial(self._guarded, fn)
        )

    def compute(
        self,
        flops: float,
        thunk: Callable[[], Any],
        done: Callable[[Any, float], None],
    ) -> None:
        """Run ``thunk`` on the node's bounded pool; ``done`` runs on the
        loop.  A submission finding every worker busy is counted."""
        if not self.alive:
            raise TransportClosed(f"node {self.address!r} is down")

        def run() -> None:
            t0 = time.perf_counter()
            try:
                result: Any = thunk()
            except Exception as exc:
                result = exc
            elapsed = time.perf_counter() - t0
            self.post(lambda: done(result, elapsed))

        self._compute_pool.submit(run)

    def post(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop while the node is alive (completions
        from other threads); an exception out of it is counted."""
        self.transport._post(functools.partial(self._guarded, fn))

    def _guarded(self, fn: Callable[[], None]) -> None:
        if self.alive:
            try:
                fn()
            except Exception:
                self.transport.handler_errors += 1

    def sample_workload(self) -> float:
        """100 x the 1-minute UNIX load average of this machine."""
        if _HAS_LOADAVG:
            try:
                return 100.0 * os.getloadavg()[0]
            except OSError:  # pragma: no cover - sampling hiccup
                return 0.0
        return 0.0  # pragma: no cover - non-UNIX

    def endpoint_of(self, address: str) -> str:
        try:
            ip, port = self.transport.resolve(address)
        except TransportError:
            return ""
        return f"{ip}:{port}"

    def restart_component(self) -> None:
        """Run the component's ``on_restart`` on the loop (a live daemon's
        "it hiccuped, reset it"); periodics supersede older timers."""
        def restart() -> None:
            if not self.alive:
                raise TransportClosed(f"node {self.address!r} is down")
            if self.component is None:
                raise TransportError(f"node {self.address!r} has no component")
            self.component.on_restart()

        self.call(restart)

    def learn_endpoint(self, address: str, endpoint: str) -> None:
        try:
            ip, port_text = endpoint.rsplit(":", 1)
            self.transport.learn_peer(address, ip, int(port_text))
        except ValueError:
            pass  # malformed endpoint: keep whatever we had

    def promise(self) -> ThreadPromise:
        return ThreadPromise()

    # ------------------------------------------------------------------
    def _ready(self, _events: int) -> None:
        """The listener is readable: accept one connection."""
        try:
            sock, _peer = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Inbound(self, sock)
        self._inbound.add(conn)
        self.transport._selector.register(sock, selectors.EVENT_READ, conn)

    def shutdown(self) -> None:
        """Drop timers and completions and close the sockets (inbound
        ones abortively: the port is free at once).  Idempotent."""
        try:
            self.call(self._shutdown)
        except TransportClosed:
            pass  # the transport's close already shut every node

    def _shutdown(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self._timers.cancel_all()
        if self.component is not None:
            # release component-owned resources (executor pools, stores)
            # before the transport's own; on_shutdown is idempotent
            self.component.on_shutdown()
        self._compute_pool.shutdown()
        self._pool.close()
        _forget(self.transport._selector, self._listener)
        for conn in list(self._inbound):
            conn.close(abort=True)


class TcpTransport:
    """A directory of TCP nodes on this machine and their loop thread."""

    METRICS = WIRE_METRICS + (
        Metric("server.pool_saturated", "pool_saturated",
               "compute submissions that found every pool worker busy"),
        Metric("wire.handler_errors", "handler_errors",
               "exceptions that escaped a component entry point"),
    )
    messages_sent = _node_total("messages_sent")
    bytes_sent = _node_total("bytes_sent")
    messages_delivered = _node_total("messages_delivered")
    messages_dropped = _node_total("messages_dropped")
    #: real sockets lose nothing by injection
    messages_lost = 0

    pool_saturated = _node_total("_compute_pool.saturated")

    def __init__(
        self,
        *,
        bind_ip: str = "127.0.0.1",
        host_name: str | None = None,
        advertise_ip: str | None = None,
        pool_idle_timeout: float = _POOL_IDLE_TIMEOUT,
        pool_max: int = _POOL_MAX,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.bind_ip = bind_ip
        track(self, metrics)
        #: the IP peers should dial back; defaults to the bind address
        self.advertise_ip = advertise_ip or bind_ip
        self.host_name = host_name or socket.gethostname()
        if pool_idle_timeout <= 0:
            raise TransportError("pool_idle_timeout must be positive")
        if pool_max < 1:
            raise TransportError("pool_max must be >= 1")
        self.pool_idle_timeout = pool_idle_timeout
        self.pool_max = pool_max
        #: inbound connections idle between messages this long close:
        #: well past any pooled sender's own idle timeout
        self._idle_budget = pool_idle_timeout * 2 + 1.0
        self.epoch = time.monotonic()
        self.nodes: dict[str, TcpNode] = {}
        self._directory: dict[str, tuple[str, int]] = {}
        #: guards ``nodes`` against concurrent ``add_node``, and the call
        #: queue against ``close``
        self._lock = threading.Lock()
        #: every node's timers, in seconds since ``epoch``
        self.kernel = EventKernel()
        self.kernel.call_after(_CONNECT_TIMEOUT / 2, self._expire_connections)
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self)
        self._calls: collections.deque = collections.deque()
        self._woken = self._closed = False
        self._thread = threading.Thread(target=self._run, name="tcp-loop",
                                        daemon=True)
        self._thread.start()
        self._loop_id = self._thread.ident

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        kernel, select, epoch = self.kernel, self._selector.select, self.epoch
        while not self._closed:
            try:
                kernel.run(until=time.monotonic() - epoch)
                due = kernel.peek()
                wait = None if due is None else due - time.monotonic() + epoch
                for key, events in select(wait):
                    key.data._ready(events)
            except Exception:  # pragma: no cover - every entry guards itself
                self.handler_errors += 1
        with self._lock:
            calls, self._calls = self._calls, collections.deque()
        for fn in calls:  # queued before close: run, so no caller hangs
            fn()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    def _ready(self, _events: int) -> None:
        """The wake-up socket is readable: run what other threads queued."""
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass
        with self._lock:
            self._woken = False
        calls = self._calls
        while calls:
            calls.popleft()()

    def _post(self, fn: Callable[[], None]) -> bool:
        """Queue ``fn`` for the loop from any thread; False once closed."""
        with self._lock:
            if self._closed:
                return False
            self._calls.append(fn)
            if self._woken:
                return True
            self._woken = True
        self._wake_w.send(b"\0")  # one byte per wake-up: never blocks
        return True

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the loop thread and return its result (or raise
        its exception); inline when already on the loop."""
        if threading.get_ident() == self._loop_id:
            return fn()
        done, outcome = threading.Lock(), []
        done.acquire()

        def run() -> None:
            try:
                outcome.append((fn(), None))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome.append((None, exc))
            done.release()

        if not self._post(run):
            raise TransportClosed("transport is closed")
        done.acquire()
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    def _expire_connections(self) -> None:
        # re-arm first: one failing sweep must not end the cycle
        self.kernel.call_after(_CONNECT_TIMEOUT / 2, self._expire_connections)
        now = time.monotonic()
        for node in list(self.nodes.values()):
            for conn in [*node._inbound, *node._pool._conns.values()]:
                conn.expire(now)

    # ------------------------------------------------------------------
    def add_node(
        self,
        address: str,
        component: Component,
        *,
        port: int = 0,
        compute_workers: int = _DEFAULT_COMPUTE_WORKERS,
    ) -> TcpNode:
        with self._lock:
            if address in self.nodes:
                raise TransportError(f"duplicate node address {address!r}")
            node = TcpNode(self, address, port, compute_workers=compute_workers)
            self.nodes[address] = node
            self._directory[address] = (self.bind_ip, node.port)
        node.component = component

        def start() -> None:
            self._selector.register(node._listener, selectors.EVENT_READ, node)
            component.bind(node)

        self.call(start)
        return node

    def register_remote(self, address: str, ip: str, port: int) -> None:
        """Add a node living in another process to the directory."""
        self._directory[address] = (ip, port)

    def learn_peer(self, address: str, ip: str, port: int) -> None:
        """Record a sender's return path, never shadowing local nodes or
        explicit ``register_remote`` entries for local addresses."""
        if address not in self.nodes:
            self._directory[address] = (ip, port)

    def resolve(self, address: str) -> tuple[str, int]:
        try:
            return self._directory[address]
        except KeyError:
            raise TransportError(f"unknown address {address!r}") from None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every node down and end the loop thread; idempotent."""
        def shut_all() -> None:
            for node in list(self.nodes.values()):
                node._shutdown()
            with self._lock:
                self._closed = True  # the loop ends after this call

        try:
            self.call(shut_all)
        except TransportClosed:
            return
        if threading.get_ident() != self._loop_id:
            self._thread.join(_LOOP_JOIN_TIMEOUT)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _describe_waited(promise) -> str:
    """A waited-on promise for a timeout error: a client request by id
    and problem, anything else by class."""
    record = getattr(promise, "record", None)
    if record is not None:
        return (
            f"request {record.request_id} ({record.problem!r}, "
            f"status {record.status.name.lower()})"
        )
    return type(promise).__name__


class TcpSession:
    """:class:`repro.capi.Session` flavour for TCP deployments."""

    def __init__(self, client_node: TcpNode, timeout: float = 60.0):
        from ..core.client import NetSolveClient

        if not isinstance(client_node.component, NetSolveClient):
            raise TransportError("node does not host a NetSolveClient")
        self.node = client_node
        self.client = client_node.component
        self.timeout = timeout

    def submit(self, problem: str, args: list, *, qos: str = "") -> Any:
        """Submit from any thread: the call runs on the node's loop."""
        return self.node.call(
            lambda: self.client.submit(problem, args, qos=qos)
        )

    def list_problems(self, prefix: str = "") -> Any:
        return self.node.call(lambda: self.client.list_problems(prefix))

    def drive_result(self, promise) -> Any:
        """Wait on a promise and return its value (CLI convenience)."""
        self.drive(promise)
        return promise.result()

    def drive(self, promise) -> None:
        """Park on an event until ``promise`` (or a client request
        handle's) settles; past the session timeout, name it and raise."""
        target = getattr(promise, "promise", promise)
        settled = threading.Event()
        target.on_settled(lambda _p: settled.set())
        if target.done:
            # settled on the loop while the callback went in: it may have
            # landed after the loop took the callback list
            settled.set()
        if not settled.wait(self.timeout):
            raise TransportError(
                f"timed out after {self.timeout:g}s waiting on "
                f"{_describe_waited(promise)}"
            )
