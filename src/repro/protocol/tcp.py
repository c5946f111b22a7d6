"""Real-socket transport: the same components over localhost TCP.

Each node owns a listening socket and an accept thread.  Outbound
traffic rides a per-destination **persistent connection pool**: the
first message to a peer dials it, later messages reuse the socket (idle
connections expire, dead ones are detected and redialed, the pool is
bounded).  A connection carries any number of messages, each framed as
an envelope (sender's logical address + return endpoint) followed by
one codec frame — the envelope bytes are precomputed once per node, and
each message goes out with a single ``socket.sendmsg()`` scatter/gather
call straight from the codec's iov parts, so large ndarray payloads are
never concatenated into one big buffer.  Component entry points
(message dispatch, timers, compute completions, and user-thread calls
like ``client.submit``) are serialized by a per-node re-entrant lock,
so the sans-IO state machines need no thread awareness of their own.
An exception that escapes one is counted (``wire.handler_errors``), and
the thread that ran it carries on.

Threads are spent only where they buy parallelism or block on a socket:
one accept thread per node, one reader per inbound connection, the
compute pool, and one timer thread per node that fires every
``call_after`` in due order off a deadline heap (started by the first
timer, so nodes that never arm one run no timer thread).

This transport exists to prove the protocol is real: the integration
tests run a full agent/server/client deployment over actual sockets and
get bit-identical results to the simulated runs.
"""

from __future__ import annotations

import heapq
import itertools
import os
import select
import socket
import struct
import threading
import time
from typing import Any, Callable, Optional

from ..core.executors import WorkerPool
from ..errors import TransportClosed, TransportError
from ..simnet.kernel import EventKernel
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
#: dial timeout, and how long an inbound read may stall mid-frame
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
#: how long ``shutdown`` waits for a timer callback that is still running
_TIMER_JOIN_TIMEOUT = 5.0
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


def _read_exact_into(conn: socket.socket, view: memoryview) -> None:
    while view.nbytes:
        got = conn.recv_into(view, view.nbytes)
        if not got:
            raise TransportError("peer closed mid-frame")
        view = view[got:]


def _read_exact(conn: socket.socket, n: int, prefix=b"") -> bytearray:
    """A fresh ``n``-byte buffer: ``prefix``, then the rest off ``conn``."""
    if len(prefix) == n:
        return bytearray(prefix)
    buf = bytearray(n)
    buf[:len(prefix)] = prefix
    _read_exact_into(conn, memoryview(buf)[len(prefix):])
    return buf


def _sendmsg_all(conn: socket.socket, parts: list) -> int:
    """Drain a buffer list through ``sendmsg``, handling short writes;
    returns the bytes written."""
    buffers = [memoryview(p).cast("B") if not isinstance(p, memoryview) else p
               for p in parts]
    total = 0
    while buffers:
        sent = conn.sendmsg(buffers[:_SENDMSG_MAX_BUFFERS])
        total += sent
        while sent:
            head = buffers[0]
            if head.nbytes <= sent:
                sent -= head.nbytes
                buffers.pop(0)
            else:
                buffers[0] = head[sent:]
                sent = 0
    return total


class _ConnPool:
    """Per-node cache of outbound sockets keyed by (ip, port).

    ``acquire`` checks a socket *out* (concurrent sends to one peer get
    their own connections; surplus ones close on release), verifies the
    peer has not hung up — on these one-way links readability can only
    mean EOF or reset — and discards idle-expired entries.
    """

    def __init__(self, idle_timeout: float, max_size: int):
        self.idle_timeout = idle_timeout
        self.max_size = max_size
        self._lock = threading.Lock()
        self._conns: dict[tuple[str, int], tuple[socket.socket, float]] = {}
        self.dials = 0
        self.reuses = 0

    def acquire(self, key: tuple[str, int]) -> socket.socket | None:
        with self._lock:
            entry = self._conns.pop(key, None)
        if entry is None:
            return None
        conn, last_used = entry
        if time.monotonic() - last_used > self.idle_timeout or not self._alive(conn):
            _close_quietly(conn)
            return None
        with self._lock:  # concurrent senders share the counters
            self.reuses += 1
        return conn

    @staticmethod
    def _alive(conn: socket.socket) -> bool:
        try:
            readable, _, _ = select.select([conn], [], [], 0)
        except (OSError, ValueError):
            return False
        return not readable  # peers never talk back: readable == closed

    def release(self, key: tuple[str, int], conn: socket.socket) -> None:
        with self._lock:
            if key in self._conns:
                extra = [conn]  # a concurrent send already parked one
            else:
                self._conns[key] = (conn, time.monotonic())
                extra = []
                while len(self._conns) > self.max_size:
                    oldest_key = min(
                        self._conns, key=lambda k: self._conns[k][1]
                    )
                    old, _t = self._conns.pop(oldest_key)
                    extra.append(old)
        for old in extra:
            _close_quietly(old)

    def close(self) -> None:
        with self._lock:
            conns = [c for c, _t in self._conns.values()]
            self._conns.clear()
        for conn in conns:
            _close_quietly(conn)


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class _FrameReader:
    """Buffered reader for one inbound connection: envelopes and headers
    are parsed in place out of a reusable buffer; each frame gets its own
    buffer at its final size, since decoded arrays may alias it."""

    __slots__ = ("conn", "buf", "pos", "end")

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.buf = memoryview(bytearray(_RECV_BUFFER))
        self.pos = self.end = 0  # unread bytes are buf[pos:end]

    def wait(self, idle_budget: float) -> bool:
        """Block until the next message starts; False once the peer hangs
        up or its socket timeouts add up past ``idle_budget``."""
        if self.pos < self.end:
            return True
        self.pos = self.end = 0
        idle_until = time.monotonic() + idle_budget
        while True:
            try:
                self.end = self.conn.recv_into(self.buf)
                return self.end > 0
            except TimeoutError:
                if time.monotonic() >= idle_until:
                    return False

    def _take(self, n: int) -> memoryview:
        """The next ``n`` buffered bytes (``n`` fits the buffer)."""
        while self.end - self.pos < n:
            if self.pos + n > len(self.buf):  # slide the unread tail down
                unread = self.end - self.pos
                self.buf[:unread] = self.buf[self.pos:self.end]
                self.pos, self.end = 0, unread
            got = self.conn.recv_into(self.buf[self.end:])
            if not got:
                raise TransportError("peer closed mid-frame")
            self.end += got
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def message(self) -> tuple[str, str, Message]:
        """Read one enveloped frame: ``(src, return endpoint, message)``.
        Raises on anything malformed, before allocating what a hostile
        length asks for."""
        (src_len,) = _ENVELOPE.unpack(self._take(_ENVELOPE.size))
        if src_len > _MAX_ENVELOPE:
            raise TransportError("envelope source length over limit")
        src = str(self._take(src_len), "utf-8")
        (ret_len,) = _ENVELOPE.unpack(self._take(_ENVELOPE.size))
        if ret_len > _MAX_ENVELOPE:
            raise TransportError("envelope return length over limit")
        ret = str(self._take(ret_len), "ascii")
        _magic, _ver, _type, length = HEADER.unpack(self._take(HEADER.size))
        if length > MAX_BODY:
            raise TransportError("frame body length over limit")
        total = HEADER.size + length
        start = self.pos - HEADER.size
        first = min(total, HEADER.size + _BODY_CHUNK)
        self.pos = min(start + first, self.end)
        frame = _read_exact(self.conn, first, self.buf[start:self.pos])
        while len(frame) < total:
            grown = len(frame)
            frame += bytes(min(total - grown, _BODY_CHUNK))
            _read_exact_into(self.conn, memoryview(frame)[grown:])
        # ndarrays alias the frame where aligned for their dtype, else copy
        return src, ret, decode_message(frame)


class _Timer:
    """A timer armed on a node's heap; ``fn`` is ``None`` once it has
    fired or been cancelled, so a dead entry pins no closure."""

    __slots__ = ("fn", "_timers")

    def __init__(self, fn: Callable[[], None], timers: "_TimerHeap"):
        self.fn: Callable[[], None] | None = fn
        self._timers = timers

    def cancel(self) -> None:
        self._timers.cancel(self)


class _TimerHeap:
    """One thread firing a node's timers in due order.

    Entries are ``(due, seq, timer)`` on the monotonic clock; ``seq``
    keeps timers due at the same instant in arming order.  A cancelled
    entry stays until it reaches the top, or until the heap is rebuilt
    by :class:`~repro.simnet.kernel.EventKernel`'s rule (at least
    ``COMPACT_MIN`` entries, fewer than half of them live).  A fire pops
    its entry and lets go of the heap lock before it takes the node
    lock: ``call_after`` and ``cancel`` run under the node lock and take
    this one inside it, so the order is always node, then heap.
    """

    def __init__(self, node: "TcpNode"):
        self.node = node
        self.heap: list[tuple[float, int, _Timer]] = []
        #: entries in ``heap`` that are neither fired nor cancelled
        self.live = 0
        self._cond = threading.Condition(threading.Lock())
        self._seq = itertools.count()
        self._thread: threading.Thread | None = None
        self._closed = False

    def arm(self, delay: float, fn: Callable[[], None]) -> _Timer:
        timer = _Timer(fn, self)
        due = time.monotonic() + delay
        with self._cond:
            if self._closed:
                raise TransportClosed(f"node {self.node.address!r} is down")
            heap = self.heap
            heapq.heappush(heap, (due, next(self._seq), timer))
            self.live += 1
            if (len(heap) >= EventKernel.COMPACT_MIN
                    and self.live * 2 < len(heap)):
                heap[:] = [e for e in heap if e[2].fn is not None]
                heapq.heapify(heap)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=f"tcp-timer-{self.node.address}",
                    daemon=True,
                )
                self._thread.start()
            elif heap[0][2] is timer:
                self._cond.notify()  # due before whatever the thread awaits
        return timer

    def cancel(self, timer: _Timer) -> None:
        with self._cond:
            if timer.fn is not None:
                timer.fn = None
                self.live -= 1

    def _run(self) -> None:
        cond, heap = self._cond, self.heap
        while True:
            with cond:
                while True:
                    if self._closed:
                        return
                    if not heap:
                        cond.wait()
                        continue
                    due, _seq, timer = heap[0]
                    if timer.fn is None:
                        heapq.heappop(heap)
                        continue
                    wait = due - time.monotonic()
                    if wait > 0:
                        cond.wait(wait)
                        continue
                    heapq.heappop(heap)
                    fn, timer.fn = timer.fn, None
                    self.live -= 1
                    break
            self.node.post(fn)

    def close(self) -> None:
        """Drop every armed timer and end the thread; idempotent."""
        with self._cond:
            self._closed = True
            for _due, _seq, timer in self.heap:
                timer.fn = None
            self.heap.clear()
            self.live = 0
            self._cond.notify()
            thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(_TIMER_JOIN_TIMEOUT)


class TcpNode(Node):
    """A component endpoint on a real socket."""

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
        self.lock = threading.RLock()
        self.compute_workers = max(1, int(compute_workers))
        #: bounded compute pool; its threads start with the first
        #: compute(), so nodes that never run one (clients, agents) pay
        #: for an empty queue only
        self._compute_pool = WorkerPool(
            self.compute_workers, name=f"compute-{address}"
        )
        self.messages_sent = 0
        self.bytes_sent = 0
        #: counted under ``lock``, like the dispatch it precedes
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._timers = _TimerHeap(self)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((transport.bind_ip, port))
        self._listener.listen(_ACCEPT_BACKLOG)
        self.port = self._listener.getsockname()[1]
        self._pool = _ConnPool(transport.pool_idle_timeout, transport.pool_max)
        self._inbound: set[socket.socket] = set()
        self._inbound_lock = threading.Lock()
        # envelope prefix (our logical address + dial-back endpoint) is
        # identical on every message: build it exactly once
        src = self.address.encode("utf-8")
        ret = f"{transport.advertise_ip}:{self.port}".encode("ascii")
        self._envelope = b"".join(
            (_ENVELOPE.pack(len(src)), src, _ENVELOPE.pack(len(ret)), ret)
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-accept-{address}", daemon=True
        )

    def start(self) -> None:
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Node API
    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self.transport.epoch

    def send(self, dest: str, msg: Message) -> None:
        if not self.alive:
            return
        try:
            key = self.transport.resolve(dest)
        except TransportError:
            return  # unknown destination: drop, like a bad DNS name
        parts = [self._envelope, *encode_message_iov(msg)]
        conn = self._pool.acquire(key)
        if conn is not None:
            try:
                nbytes = _sendmsg_all(conn, parts)
            except OSError:
                _close_quietly(conn)  # stale peer: redial below
            else:
                self._pool.release(key, conn)
                self._count_sent(nbytes)
                return
        try:
            conn = socket.create_connection(key, timeout=_CONNECT_TIMEOUT)
            with self._pool._lock:  # concurrent senders share the counters
                self._pool.dials += 1
            nbytes = _sendmsg_all(conn, parts)
        except OSError:
            if conn is not None:
                _close_quietly(conn)
            self.messages_dropped += 1
            return  # unreachable peer == dropped message
        self._pool.release(key, conn)
        self._count_sent(nbytes)

    def _count_sent(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.transport._frame_bytes.observe(nbytes)

    def call_after(self, delay: float, fn: Callable[[], None]) -> _Timer:
        if not self.alive:
            raise TransportClosed(f"node {self.address!r} is down")
        return self._timers.arm(delay, fn)

    def compute(
        self,
        flops: float,
        thunk: Callable[[], Any],
        done: Callable[[Any, float], None],
    ) -> None:
        """Run ``thunk`` on the node's bounded compute pool.

        Replaces the old thread-per-request spawn: a burst now queues on
        ``compute_workers`` pool threads instead of forking an unbounded
        number of OS threads, and a submission that finds every worker
        busy shows in ``server.pool_saturated`` (the pool's own count).
        """
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
        """Run ``fn`` under the node lock while the node is alive (timer
        fires and foreign-thread completions); an exception out of it is
        counted, not raised."""
        with self.lock:
            if not self.alive:
                return
            try:
                fn()
            except Exception:
                self.transport._count_handler_error()

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
        """Drive the component's restart path on a live daemon.

        Runs ``on_restart`` under the node lock, serialized against
        message delivery and timer fires — the operational "the daemon
        hiccuped, reset it" path.  Timers armed before the restart may
        still fire afterwards (one already popped for firing can even
        race a cancel); restart-safe periodics supersede them by
        generation, which is exactly what the crash/revive lifecycle
        tests pin down.
        """
        with self.lock:
            if not self.alive:
                raise TransportClosed(f"node {self.address!r} is down")
            if self.component is None:
                raise TransportError(f"node {self.address!r} has no component")
            self.component.on_restart()

    def learn_endpoint(self, address: str, endpoint: str) -> None:
        try:
            ip, port_text = endpoint.rsplit(":", 1)
            self.transport.learn_peer(address, ip, int(port_text))
        except ValueError:
            pass  # malformed endpoint: keep whatever we had

    def promise(self) -> ThreadPromise:
        return ThreadPromise()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self.alive:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            # the mid-frame stall limit; idle time is budgeted on top of it
            conn.settimeout(_CONNECT_TIMEOUT)
            with self._inbound_lock:
                if not self.alive:
                    _close_quietly(conn)
                    return
                self._inbound.add(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                name=f"tcp-conn-{self.address}",
                daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        # idle between messages is normal for a pooled sender; allow well
        # past its idle timeout
        idle_budget = self.transport.pool_idle_timeout * 2 + 1.0
        reader, peer = _FrameReader(conn), None
        try:
            with conn:
                # a connection carries a message stream: loop until the
                # sender hangs up (or its pool expires the socket)
                while True:
                    try:
                        if not reader.wait(idle_budget):
                            return  # clean close or idle between messages
                    except OSError:
                        return
                    try:
                        src, ret, msg = reader.message()
                        if (src, ret) != peer:
                            # learn the return path (no-op in-process)
                            ip, port_text = ret.rsplit(":", 1)
                            self.transport.learn_peer(src, ip, int(port_text))
                            peer = (src, ret)
                    except Exception:
                        # malformed peer (hostile length, bad envelope,
                        # undecodable or cut-short frame): count it,
                        # drop the connection, stay up
                        if self.alive:  # our own teardown cuts reads short
                            self.transport._count_malformed()
                        return
                    with self.lock:
                        if not self.alive or self.component is None:
                            return
                        self.messages_delivered += 1
                        try:
                            self.component.on_message(src, msg)
                        except Exception:
                            # a handler fault: count it and drop the
                            # connection, as for a malformed frame
                            self.transport._count_handler_error()
                            return
        finally:
            with self._inbound_lock:
                self._inbound.discard(conn)

    def shutdown(self) -> None:
        with self.lock:
            self.alive = False
        self._timers.close()
        if self.component is not None:
            # release component-owned resources (executor pools, stores)
            # before the transport's own; on_shutdown is idempotent
            self.component.on_shutdown()
        self._compute_pool.shutdown()
        self._pool.close()
        try:
            # wake the blocked accept() so the close isn't deferred by
            # the interpreter's in-use fd protection (the port must be
            # genuinely free for an immediate restart)
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._inbound_lock:
            inbound = list(self._inbound)
            self._inbound.clear()
        for conn in inbound:
            try:
                # abortive close: no TIME_WAIT holding the port, and
                # senders' pooled sockets see the death instead of
                # hanging half-open
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            except OSError:  # pragma: no cover
                pass
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wake the serve thread
            except OSError:
                pass
            _close_quietly(conn)


class TcpTransport:
    """A directory of TCP nodes on this machine."""

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
        self.epoch = time.monotonic()
        self.nodes: dict[str, TcpNode] = {}
        self._directory: dict[str, tuple[str, int]] = {}
        self._lock = threading.Lock()

    def _count_malformed(self) -> None:
        # an inbound frame dropped as undecodable (hostile length, bad
        # envelope, decode failure): the connection dies, the node stays
        with self._lock:
            self.messages_malformed += 1

    def _count_handler_error(self) -> None:
        # an exception out of a message handler, timer callback or
        # compute completion: counted, and the thread that ran it lives
        with self._lock:
            self.handler_errors += 1

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
        node.start()
        with node.lock:
            component.bind(node)
        return node

    def register_remote(self, address: str, ip: str, port: int) -> None:
        """Add a node living in another process to the directory."""
        with self._lock:
            self._directory[address] = (ip, port)

    def learn_peer(self, address: str, ip: str, port: int) -> None:
        """Record a sender's return path, never shadowing local nodes or
        explicit ``register_remote`` entries for local addresses."""
        with self._lock:
            if address in self.nodes:
                return  # local node: the directory entry is already right
            self._directory[address] = (ip, port)

    def resolve(self, address: str) -> tuple[str, int]:
        with self._lock:
            try:
                return self._directory[address]
            except KeyError:
                raise TransportError(f"unknown address {address!r}") from None

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            nodes = list(self.nodes.values())
        for node in nodes:
            node.shutdown()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _describe_waited(promise) -> str:
    """Human-readable identity of a waited-on promise for timeout errors.

    A client :class:`RequestHandle` names its request id and problem;
    anything else falls back to the object's class name.
    """
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
        """Thread-safe submit through the node lock."""
        with self.node.lock:
            return self.client.submit(problem, args, qos=qos)

    def list_problems(self, prefix: str = "") -> Any:
        with self.node.lock:
            return self.client.list_problems(prefix)

    def drive_result(self, promise) -> Any:
        """Wait on a promise and return its value (CLI convenience)."""
        self.drive(promise)
        return promise.result()

    def drive(self, promise) -> None:
        """Block until ``promise`` settles or the session timeout passes.

        Accepts a bare :class:`~repro.protocol.transport.Promise` (any
        flavour, not just :class:`ThreadPromise`) or a client
        :class:`~repro.core.client.RequestHandle`.  The wait parks the
        calling thread on a condition variable armed through
        ``on_settled`` — no polling loop — and a timeout names the
        request being waited on.
        """
        target = getattr(promise, "promise", promise)
        settled = threading.Event()
        target.on_settled(lambda _p: settled.set())
        if not settled.wait(self.timeout):
            raise TransportError(
                f"timed out after {self.timeout:g}s waiting on "
                f"{_describe_waited(promise)}"
            )
