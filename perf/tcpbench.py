"""The four loopback-TCP workloads: small, large, farm and repeat.

One process holds the whole deployment: a ``TcpTransport`` bound to
127.0.0.1 (the host's loopback interface, not a real link) with one
agent, two computational servers advertising 200 and 400 Mflop/s over
the full builtin registry, and one ``NetSolveClient`` driven through a
``TcpSession`` by a single generator thread.  Every workload is a closed
loop: a caller's next request leaves only after a reply came back.
"""

from __future__ import annotations

import collections
import contextlib
import threading
import time

import numpy as np

from repro.capi import netslnb
from repro.config import AgentConfig, ClientConfig, ServerConfig, WorkloadPolicy
from repro.core.agent import Agent
from repro.core.client import NetSolveClient
from repro.core.predictor import LinkEstimate, StaticNetworkInfo
from repro.core.request import RequestStatus
from repro.core.server import ComputationalServer
from repro.problems.builtin import builtin_registry
from repro.protocol.tcp import TcpSession, TcpTransport

WAIT = 60.0
SERVER_MFLOPS = (200.0, 400.0)
REPEAT_CACHE_ENTRIES = 32
REPEAT_INSTANCES = 50


class Deployment:
    """Agent + two servers + one client on loopback sockets."""

    def __init__(self, *, max_concurrent=1, batch_max=1, cache=False):
        cache_entries = REPEAT_CACHE_ENTRIES if cache else 0
        server_cfg = ServerConfig(
            workload=WorkloadPolicy(time_step=0.5, threshold=10.0),
            max_concurrent=max_concurrent,
            batch_max=batch_max,
            cache_entries=cache_entries,
            cache_publish_bytes=65536 if cache else 0,
        )
        self.transport = TcpTransport()
        try:
            self.agent = Agent(
                network=StaticNetworkInfo(
                    default=LinkEstimate(latency=1e-4, bandwidth=1e9)
                ),
                cfg=AgentConfig(cache_entries=cache_entries),
            )
            self.transport.add_node("agent", self.agent, port=0)
            self.servers = []
            for i, mflops in enumerate(SERVER_MFLOPS):
                server = ComputationalServer(
                    server_id=f"s{i}", agent_address="agent",
                    registry=builtin_registry(), mflops=mflops,
                    host=self.transport.host_name, cfg=server_cfg,
                )
                self.transport.add_node(
                    f"server/s{i}", server, port=0,
                    compute_workers=max_concurrent,
                )
                self.servers.append(server)
            self.client = NetSolveClient(
                client_id="c0", agent_address="agent",
                cfg=ClientConfig(
                    agent_timeout=15.0, server_timeout=WAIT,
                    timeout_floor=15.0, cache_digest=cache,
                ),
            )
            self.client_node = self.transport.add_node(
                "client/c0", self.client, port=0
            )
            self.session = TcpSession(self.client_node, timeout=WAIT)
            deadline = time.monotonic() + WAIT
            while self.agent.registrations < len(SERVER_MFLOPS):
                if time.monotonic() > deadline:
                    raise RuntimeError("servers never registered over TCP")
                time.sleep(0.002)
        except BaseException:
            self.transport.close()
            raise

    def close(self) -> None:
        self.transport.close()


# ----------------------------------------------------------------------
# instances: (problem, args, check) with check(outputs) -> bool
# ----------------------------------------------------------------------
class Instance:
    __slots__ = ("problem", "args", "check")

    def __init__(self, problem, args, check):
        self.problem = problem
        self.args = args
        self.check = check


def dgesv_instance(rng, n: int) -> Instance:
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    tol = 1e-9 * (np.linalg.norm(a) + np.linalg.norm(b))

    def check(outputs) -> bool:
        (x,) = outputs
        return x.shape == b.shape and np.linalg.norm(a @ x - b) <= tol * max(
            1.0, np.linalg.norm(x)
        )

    return Instance("linsys/dgesv", [a, b], check)


def dgemm_instance(rng, n: int) -> Instance:
    """Checked against ``a @ b`` through a random projection (Freivalds):
    ``c @ r`` must equal ``(a @ b) @ r``.  One pass over the reply costs
    a fifth of an element-wise comparison, which at 1.18 MB would be 7%
    of the request being timed; a wrong entry anywhere in ``c`` still
    shows, since ``r`` has no zero component."""
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    r = rng.standard_normal(n)
    reference = (a @ b) @ r
    tol = 1e-9 * n * np.abs(reference).max()

    def check(outputs) -> bool:
        (c,) = outputs
        return c.shape == (n, n) and (
            np.abs(c @ r - reference).max() <= tol
        )

    return Instance("blas/dgemm", [a, b], check)


def fft_instance(rng, n: int) -> Instance:
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    reference = np.fft.fft(x)
    tol = 1e-10 * n * np.abs(reference).max()

    def check(outputs) -> bool:
        (y,) = outputs
        return y.shape == reference.shape and (
            np.abs(y - reference).max() <= tol
        )

    return Instance("signal/fft", [x], check)


def repeat_instance(rng, n: int) -> Instance:
    """dgesv whose every later reply must equal the first bit for bit,
    whether it was recomputed, served from a server cache or answered
    by the agent in one round trip."""
    inner = dgesv_instance(rng, n)
    first = []

    def check(outputs) -> bool:
        (x,) = outputs
        if not first:
            first.append(np.array(x, copy=True))
            return inner.check(outputs)
        return np.array_equal(x, first[0])

    return Instance(inner.problem, inner.args, check)


def zipf_80_20(n: int) -> np.ndarray:
    """Zipf probabilities over ``n`` ranks with the exponent at which
    the most popular fifth of them draws 80% of the requests."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    lo, hi = 0.0, 8.0
    for _ in range(60):
        s = (lo + hi) / 2.0
        w = ranks ** -s
        if w[: n // 5].sum() / w.sum() < 0.8:
            lo = s
        else:
            hi = s
    w = ranks ** -hi
    return w / w.sum()


class Plan:
    """What one tcp workload sends: a pool of instances, the order they
    are requested in (``length`` entries: the warm-up, then a trace the
    timed phases consume until their time is up), and how the
    deployment is configured."""

    def __init__(self, name, seed, *, warmup, length):
        rng = np.random.default_rng([seed, sum(name.encode())])
        self.name = name
        self.warmup = warmup
        self.window = 1
        self.deploy = {}
        if name == "tcp_small":
            self.pool = [dgesv_instance(rng, 16) for _ in range(64)]
            self.order = np.arange(length) % len(self.pool)
        elif name == "tcp_large":
            self.pool = [dgemm_instance(rng, 384) for _ in range(4)]
            self.order = np.arange(length) % len(self.pool)
        elif name == "tcp_farm":
            half = 16
            self.pool = [dgesv_instance(rng, 64) for _ in range(half)]
            self.pool += [fft_instance(rng, 1024) for _ in range(half)]
            # alternate the two problems, cycling within each half
            k = np.arange(length)
            self.order = (k % 2) * half + (k // 2) % half
            self.window = 16
            self.deploy = dict(max_concurrent=2, batch_max=8)
        elif name == "tcp_repeat":
            self.pool = [
                repeat_instance(rng, 128) for _ in range(REPEAT_INSTANCES)
            ]
            self.order = rng.choice(
                REPEAT_INSTANCES, size=length, p=zipf_80_20(REPEAT_INSTANCES)
            )
            self.deploy = dict(cache=True)
        else:
            raise KeyError(name)


class Tally:
    """Per-request latencies and the ledger of one measured phase."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.records: list = []


def drive(dep: Deployment, plan: Plan, start: int, tally: Tally, *,
          count: int | None = None, seconds: float | None = None,
          tracer=None) -> int:
    """Send ``plan.order[start:]`` through the session: ``count``
    requests, or as many as are submitted within ``seconds`` (the trace
    running out ends the phase too).  Returns where the trace was left.

    Window 1 is the blocking ``netsl`` call; a wider window keeps that
    many ``netslnb`` submits in flight from this one thread and collects
    replies as their promises settle.  Latency is submit to reply in
    hand; verification follows and is inside the phase's wall and CPU
    time, which the tally takes over the whole phase.
    """
    session = dep.session
    stop = len(plan.order) if count is None else start + count
    order = plan.order[start:stop]
    count = len(order)
    clock = time.perf_counter_ns
    cpu0, wall0 = time.process_time(), time.perf_counter()
    deadline = None if seconds is None else wall0 + seconds

    def open_for_more() -> bool:
        return deadline is None or time.perf_counter() < deadline

    verifying = (
        contextlib.nullcontext() if tracer is None
        else tracer.span("perf.tcpbench.verify")
    )

    def finish(instance, t0, t1, handle):
        tally.attempted += 1
        with verifying:
            good = handle.status is RequestStatus.DONE and bool(
                instance.check(handle.result())
            )
        if good:
            tally.latency_ns.append(t1 - t0)
        else:
            tally.failed += 1
        tally.records.append(handle.record)

    def close() -> int:
        tally.wall_s += time.perf_counter() - wall0
        tally.cpu_s += time.process_time() - cpu0
        return start + sent

    sent = 0
    if plan.window == 1:
        while sent < count and open_for_more():
            instance = plan.pool[order[sent]]
            t0 = clock()
            _st, handle = netslnb(session, instance.problem, *instance.args)
            session.drive(handle.promise)
            sent += 1
            finish(instance, t0, clock(), handle)
        return close()

    settled: collections.deque = collections.deque()
    wake = threading.Semaphore(0)
    done = in_flight = 0
    while True:
        while in_flight < plan.window and sent < count and open_for_more():
            instance = plan.pool[order[sent]]
            t0 = clock()
            _st, handle = netslnb(session, instance.problem, *instance.args)

            def on_settled(_p, instance=instance, t0=t0, handle=handle):
                settled.append((instance, t0, clock(), handle))
                wake.release()

            handle.promise.on_settled(on_settled)
            sent += 1
            in_flight += 1
        if not in_flight:
            return close()
        if not wake.acquire(timeout=WAIT):
            raise RuntimeError(
                f"{plan.name}: no reply within {WAIT:g}s "
                f"({done}/{sent} done, {in_flight} in flight)"
            )
        instance, t0, t1, handle = settled.popleft()
        in_flight -= 1
        done += 1
        finish(instance, t0, t1, handle)


def set_up(plan: Plan) -> tuple[Deployment, float, Tally]:
    """Build the deployment, wait for registration, warm it up."""
    t0 = time.perf_counter()
    dep = Deployment(**plan.deploy)
    try:
        warm = Tally()
        drive(dep, plan, 0, warm, count=plan.warmup)
    except BaseException:
        dep.close()
        raise
    return dep, time.perf_counter() - t0, warm
