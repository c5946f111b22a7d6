"""Concurrent executors, same-problem micro-batching, slot scheduling.

Covers the three layers of the concurrency work:

* **pools** — :class:`~repro.core.executors.WorkerPool` bounds its
  thread count, counts saturation, and refuses work after shutdown;
* **server** — ``max_concurrent > 1`` drains FIFO into parallel slots,
  ``batch_max > 1`` coalesces queued shape-compatible same-problem
  requests into one stacked kernel call with bit-identical per-item
  replies, and a restart mid-batch drops *every* member as stale;
* **scheduler** — registrations advertise slot counts, workload reports
  carry in-flight counts, and the MCT predictor charges workload per
  slot: a loaded multi-CPU box can out-rank an idle slower one, while
  ``slots=1`` reproduces the old arithmetic bit-for-bit.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.executors import WorkerPool
from repro.core.predictor import (
    LinkEstimate,
    StaticNetworkInfo,
    effective_mflops,
    predict,
    predict_batch,
)
from repro.errors import ConfigError, NetSolveError
from repro.problems.builtin import builtin_registry
from repro.problems.registry import ProblemRegistry
from repro.protocol.messages import (
    QueryReply,
    QueryRequest,
    RegisterServer,
    SolveReply,
    SolveRequest,
    WorkloadReport,
)
from repro.trace.instruments import Observability, render_snapshot

RNG = np.random.default_rng(99)


def linsys(n=64, seed=None):
    rng = RNG if seed is None else np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    return a, rng.standard_normal(n)


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
def test_worker_pool_bounds_threads_and_counts_saturation():
    hits = []
    pool = WorkerPool(2, name="t", on_saturated=lambda: hits.append(1))
    release = threading.Event()
    started = threading.Semaphore(0)

    def job():
        started.release()
        release.wait(10.0)

    pool.submit(job)
    pool.submit(job)
    assert started.acquire(timeout=10.0)
    assert started.acquire(timeout=10.0)
    assert pool.busy == 2
    # every further submission finds both workers busy: counted + hooked
    for _ in range(3):
        pool.submit(job)
    stats = pool.stats()
    assert stats["saturated"] == 3
    assert len(hits) == 3
    assert stats["peak_pending"] >= 1

    release.set()
    deadline = time.monotonic() + 10.0
    while pool.stats()["completed"] < 5 and time.monotonic() < deadline:
        time.sleep(0.01)
    stats = pool.stats()
    assert stats["completed"] == 5
    assert stats["submitted"] == 5
    assert stats["workers"] == 2  # never more threads than the bound
    pool.shutdown()


def test_worker_pool_spawns_for_a_task_dequeued_but_not_yet_busy():
    """A worker between dequeue and counting itself busy still holds a
    task, so the next submission must get the second worker instead of
    queueing behind the first."""

    class SlowGet:
        """A task queue whose ``get`` stalls after the dequeue."""

        def __init__(self):
            self._q = queue.SimpleQueue()
            self.put = self._q.put
            self.qsize = self._q.qsize

        def get(self):
            item = self._q.get()
            time.sleep(0.05)
            return item

    pool = WorkerPool(2, name="t")
    pool._tasks = SlowGet()
    release = threading.Event()
    b_started = threading.Event()
    try:
        pool.submit(lambda: release.wait(10.0))  # A
        time.sleep(0.01)
        pool.submit(b_started.set)  # B, while A's worker is mid-dequeue
        assert b_started.wait(2.0), "B queued behind the blocked A"
        assert len(pool._threads) == 2
        assert pool.stats()["saturated"] == 0
    finally:
        release.set()
        pool.shutdown()


def test_worker_pool_shutdown_and_validation():
    with pytest.raises(NetSolveError):
        WorkerPool(0)
    pool = WorkerPool(1)
    pool.shutdown()
    pool.shutdown()  # idempotent
    with pytest.raises(NetSolveError):
        pool.submit(lambda: None)


# ----------------------------------------------------------------------
# slot-aware predictor
# ----------------------------------------------------------------------
def test_effective_mflops_slots1_bit_identical():
    for peak, w in [(100.0, 0.0), (50.0, 37.2), (200.0, 300.0), (1.5, 99.9)]:
        assert effective_mflops(peak, w, slots=1) == peak * 100.0 / (100.0 + w)
        assert effective_mflops(peak, w) == effective_mflops(peak, w, slots=1)


def test_effective_mflops_multislot_capacity():
    # under capacity: a 4-slot box at load 3.0 still delivers full peak
    assert effective_mflops(200.0, 300.0, slots=4) == 200.0
    # over capacity: excess load degrades it proportionally
    assert effective_mflops(200.0, 500.0, slots=4) == 200.0 * 400.0 / 600.0
    with pytest.raises(NetSolveError):
        effective_mflops(100.0, 0.0, slots=0)


def test_predict_batch_matches_scalar_with_slots():
    rng = np.random.default_rng(5)
    n = 32
    flops, in_bytes, out_bytes = 3.7e8, 524288.0, 8192.0
    peaks = rng.uniform(10.0, 500.0, n)
    loads = rng.uniform(0.0, 600.0, n)
    latency = rng.uniform(1e-5, 1e-2, n)
    bandwidth = rng.uniform(1e6, 1e9, n)
    pending = rng.integers(0, 6, n)
    slots = rng.integers(1, 5, n)
    batch = predict_batch(
        flops=flops, input_bytes=in_bytes, output_bytes=out_bytes,
        latency=latency, bandwidth=bandwidth, peak_mflops=peaks,
        workload=loads, pending=pending, slots=slots,
    )
    for i in range(n):
        p = predict(
            flops=flops, input_bytes=in_bytes, output_bytes=out_bytes,
            link=LinkEstimate(latency=latency[i], bandwidth=bandwidth[i]),
            peak_mflops=peaks[i], workload=loads[i], slots=int(slots[i]),
        )
        # scalar reference: pending hints divide across slots, each
        # surviving round inflating the compute term by one service time
        rounds = int(pending[i]) // int(slots[i])
        total = p.send_seconds + p.compute_seconds * (1 + rounds) \
            + p.recv_seconds
        assert batch[i] == total, f"element {i} diverged from scalar path"


# ----------------------------------------------------------------------
# agent: slots flow through registration, reports, and ranking
# ----------------------------------------------------------------------
def make_agent_world():
    from repro.core.agent import Agent
    from repro.problems.pdl import render_pdl
    from repro.protocol.transport import Component, SimTransport
    from repro.simnet.kernel import EventKernel
    from repro.simnet.network import Topology
    from repro.simnet.rng import RngStreams

    class Probe(Component):
        def __init__(self):
            self.inbox = []

        def on_message(self, src, msg):
            self.inbox.append((src, msg))

        def last(self, cls):
            for _src, msg in reversed(self.inbox):
                if isinstance(msg, cls):
                    return msg
            return None

    kernel = EventKernel()
    topo = Topology(kernel)
    for h in ("ah", "bigbox", "idler", "ch"):
        topo.add_host(h, 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    net = StaticNetworkInfo(default=LinkEstimate(latency=1e-4, bandwidth=1e9))
    agent = Agent(network=net, rng=RngStreams(0).get("a"))
    transport.add_node("agent", "ah", agent)
    probe = Probe()
    transport.add_node("peer", "ch", probe)
    pdl = render_pdl(builtin_registry().subset(("linsys/dgesv",)).specs())
    return kernel, transport, agent, probe, pdl


def test_registration_carries_slots_and_reports_carry_inflight():
    kernel, transport, agent, probe, pdl = make_agent_world()
    transport.node("peer").send("agent", RegisterServer(
        server_id="s0", host="bigbox", mflops=200.0, problems_pdl=pdl,
        slots=4,
    ))
    kernel.run(until=1.0)
    entry = agent.table.get("s0")
    assert entry.slots == 4
    assert entry.inflight == 0
    transport.node("peer").send("agent", WorkloadReport(
        server_id="s0", workload=150.0, inflight=3,
    ))
    kernel.run(until=2.0)
    assert entry.workload == 150.0
    assert entry.inflight == 3


def test_loaded_multislot_server_outranks_idle_slow_one():
    """A 4-slot 200 Mflop/s box at load 3.0 still delivers full peak, so
    MCT must rank it ahead of an idle 100 Mflop/s single-slot server."""
    kernel, transport, agent, probe, pdl = make_agent_world()
    transport.node("peer").send("agent", RegisterServer(
        server_id="big", host="bigbox", mflops=200.0, problems_pdl=pdl,
        slots=4,
    ))
    transport.node("peer").send("agent", RegisterServer(
        server_id="idle", host="idler", mflops=100.0, problems_pdl=pdl,
        slots=1,
    ))
    kernel.run(until=1.0)
    transport.node("peer").send("agent", WorkloadReport(
        server_id="big", workload=300.0, inflight=3,
    ))
    kernel.run(until=2.0)
    transport.node("peer").send("agent", QueryRequest(
        problem="linsys/dgesv", sizes={"n": 256}, client_host="ch",
    ))
    kernel.run(until=3.0)
    reply = probe.last(QueryReply)
    assert reply is not None and reply.ok
    order = [c.server_id for c in reply.candidate_list()]
    assert order[0] == "big", (
        f"slot-blind ranking: {order} (load 3.0 on 4 CPUs is not load 3.0 "
        "on one)"
    )


# ----------------------------------------------------------------------
# server: concurrent slots and micro-batching (simulated)
# ----------------------------------------------------------------------
def make_server_world(cfg, *, cpus=1, observability=None):
    from repro.core.server import ComputationalServer
    from repro.protocol.transport import Component, SimTransport
    from repro.simnet.kernel import EventKernel
    from repro.simnet.network import Topology

    class Probe(Component):
        def __init__(self):
            self.inbox = []

        def on_message(self, src, msg):
            self.inbox.append((src, msg, self.node.now()))

        def of_type(self, cls):
            return [m for _s, m, _t in self.inbox if isinstance(m, cls)]

    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("sh", 100.0, cpus=cpus)
    topo.add_host("ph", 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    server = ComputationalServer(
        server_id="sv",
        agent_address="agent-probe",
        registry=builtin_registry().subset(("linsys/dgesv", "signal/fft")),
        mflops=100.0,
        host="sh",
        cfg=cfg,
        metrics=observability.metrics if observability else None,
    )
    probe = Probe()
    transport.add_node("agent-probe", "ph", Probe())
    transport.add_node("client-probe", "ph", probe)
    transport.add_node("server/sv", "sh", server)
    return kernel, transport, server, probe


def send_solve(transport, rid, problem="linsys/dgesv", args=None, n=256):
    if args is None:
        args = linsys(n, seed=rid)
    transport.node("client-probe").send(
        "server/sv",
        SolveRequest(
            request_id=rid, problem=problem, inputs=tuple(args),
            reply_to="client-probe",
        ),
    )


def test_drain_fills_multiple_slots_fifo():
    obs = Observability()
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=2), cpus=2, observability=obs,
    )
    for rid in range(1, 6):
        send_solve(transport, rid, n=192)
    kernel.run(until=0.01)
    assert server.executing == 2
    assert server.queue_depth == 3
    assert obs.metrics.get("server.executing").value == 2
    kernel.run(until=120.0)
    replies = probe.of_type(SolveReply)
    assert [r.request_id for r in replies] == [1, 2, 3, 4, 5]
    assert all(r.ok for r in replies)
    assert server.executing == 0
    assert obs.metrics.get("server.executing").value == 0
    # every queued request's wait was observed on its way out
    assert obs.metrics.get("server.queue_wait_seconds").count == 3
    assert server.batches == 0  # batching off by default


def test_multislot_server_on_multicpu_host_is_faster():
    def makespan(cpus, slots):
        kernel, transport, server, probe = make_server_world(
            ServerConfig(max_concurrent=slots), cpus=cpus,
        )
        for rid in range(1, 9):
            send_solve(transport, rid, n=256)
        kernel.run(until=600.0)
        replies = probe.of_type(SolveReply)
        assert len(replies) == 8 and all(r.ok for r in replies)
        return max(t for _s, _m, t in probe.inbox)

    serial = makespan(1, 1)
    parallel = makespan(4, 4)
    assert serial / parallel >= 2.0, (
        f"4 slots on 4 CPUs only {serial / parallel:.2f}x faster"
    )


def test_batching_coalesces_queued_same_problem_requests():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, batch_max=8),
    )
    args = {rid: linsys(96, seed=rid) for rid in range(1, 5)}
    for rid in range(1, 5):
        send_solve(transport, rid, args=args[rid])
    kernel.run(until=120.0)
    # request 1 ran alone (the queue was empty when it arrived); 2-4
    # were waiting together when the slot freed and shared one kernel
    assert server.batches == 1
    assert server.batched_requests == 3
    replies = {r.request_id: r for r in probe.of_type(SolveReply)}
    assert sorted(replies) == [1, 2, 3, 4]
    registry = builtin_registry()
    for rid, (a, b) in args.items():
        assert replies[rid].ok
        (expected,) = registry.execute("linsys/dgesv", [a, b])
        got = replies[rid].outputs[0]
        assert np.array_equal(got, expected), (
            f"request {rid}: batched result differs from the single path"
        )


def test_batching_skips_incompatible_shapes_without_reordering():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, batch_max=8),
    )
    send_solve(transport, 1, n=96)
    send_solve(transport, 2, n=96)
    send_solve(transport, 3, n=48)   # different n: cannot stack with 2/4
    send_solve(transport, 4, n=96)
    kernel.run(until=120.0)
    assert server.batches == 1
    assert server.batched_requests == 2  # head 2 + mate 4; 3 kept FIFO
    replies = probe.of_type(SolveReply)
    assert sorted(r.request_id for r in replies) == [1, 2, 3, 4]
    assert all(r.ok for r in replies)
    # 3 was not starved: it ran right after the batch it could not join
    order = [r.request_id for r in replies]
    assert order.index(3) > order.index(2)


def test_batch_max_caps_batch_size():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, batch_max=2),
    )
    for rid in range(1, 6):
        send_solve(transport, rid, n=96)
    kernel.run(until=120.0)
    assert len(probe.of_type(SolveReply)) == 5
    # 1 solo, then {2,3} and {4,5} as two capped batches
    assert server.batches == 2
    assert server.batched_requests == 4


def test_restart_mid_batch_drops_every_member_as_stale():
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, batch_max=8),
    )
    for rid in range(1, 5):
        send_solve(transport, rid, n=512)  # ~0.9s each at 100 Mflop/s
    kernel.run(until=1.2)  # request 1 done, batch of {2,3,4} in flight
    assert server.batches == 1 and server.executing == 1
    server.on_restart()
    kernel.run(until=120.0)
    assert server.stale_completions == 3
    assert server.executing == 0
    # the only replies are request 1's (pre-restart); 2-4 were forgotten
    assert [r.request_id for r in probe.of_type(SolveReply)] == [1]


def test_peak_queue_and_batch_metrics_surface_in_snapshot():
    obs = Observability()
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, batch_max=8), observability=obs,
    )
    for rid in range(1, 5):
        send_solve(transport, rid, n=96)
    kernel.run(until=120.0)
    snap = obs.metrics.snapshot()
    assert snap["gauges"]["server.peak_queue"] == 3
    assert server.peak_queue == 3
    assert snap["counters"]["server.batches"] == 1
    assert snap["counters"]["server.batched_requests"] == 3
    # the metrics CLI renders whatever is in the snapshot: the new
    # instruments appear without any tool-side changes
    text = render_snapshot(snap)
    assert "server.peak_queue" in text
    assert "server.batches" in text


def test_process_executor_gate_falls_back_in_simulation():
    """The sim node cannot account child-process work against virtual
    time, so ``executor="process"`` silently stays on the sim lane."""
    kernel, transport, server, probe = make_server_world(
        ServerConfig(max_concurrent=1, executor="process"),
    )
    assert not server._use_process_lane()
    send_solve(transport, 1, n=64)
    kernel.run(until=60.0)
    replies = probe.of_type(SolveReply)
    assert len(replies) == 1 and replies[0].ok
    server.shutdown_executors()  # no-op: the pool was never created


def test_process_executor_is_refused_without_fork(monkeypatch):
    """The process lane forks its children, so a platform without fork
    rejects ``executor="process"`` when the config is built, not at the
    first solve."""
    import multiprocessing

    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    with pytest.raises(ConfigError, match="fork"):
        ServerConfig(executor="process")
    ServerConfig(executor="thread")


# ----------------------------------------------------------------------
# real sockets: bounded compute pool and the process lane
# ----------------------------------------------------------------------
def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def make_tcp_server(cfg, *, metrics=None, compute_workers=4, registry=None):
    from repro.core.server import ComputationalServer
    from repro.protocol.tcp import TcpTransport
    from repro.protocol.transport import Component

    class Probe(Component):
        def __init__(self):
            self.replies = []

        def on_message(self, src, msg):
            self.replies.append(msg)

    transport = TcpTransport(metrics=metrics)
    server = ComputationalServer(
        server_id="tsv",
        agent_address="agent",  # unresolvable: registrations drop
        registry=registry or builtin_registry().subset(("linsys/dgesv",)),
        mflops=100.0,
        host=transport.host_name,
        cfg=cfg,
    )
    transport.add_node(
        "server/tsv", server, port=0, compute_workers=compute_workers
    )
    probe = Probe()
    transport.add_node("probe", probe, port=0)
    return transport, server, probe


def test_process_executor_solves_over_tcp():
    transport, server, probe = make_tcp_server(
        ServerConfig(max_concurrent=2, executor="process"),
    )
    try:
        assert server._use_process_lane()
        a, b = linsys(48, seed=7)
        transport.nodes["probe"].send("server/tsv", SolveRequest(
            request_id=1, problem="linsys/dgesv", inputs=(a, b),
            reply_to="probe",
        ))
        assert wait_for(lambda: len(probe.replies) >= 1)
        (reply,) = probe.replies
        assert isinstance(reply, SolveReply) and reply.ok
        assert np.allclose(a @ reply.outputs[0], b, atol=1e-8)
        assert server._process_pool is not None
    finally:
        server.shutdown_executors()
        transport.close()


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_both_lanes_run_the_servers_own_handlers(executor):
    """The process lane forks with the server's registry: a handler the
    server registered answers, not the builtin catalogue's solve."""
    registry = ProblemRegistry()
    registry.register(builtin_registry().spec("linsys/dgesv"),
                      lambda a, b: np.full(b.shape, 42.0))
    transport, server, probe = make_tcp_server(
        ServerConfig(max_concurrent=1, executor=executor), registry=registry,
    )
    try:
        transport.nodes["probe"].send("server/tsv", SolveRequest(
            request_id=1, problem="linsys/dgesv",
            inputs=(2.0 * np.eye(3), np.ones(3)), reply_to="probe",
        ))
        assert wait_for(lambda: len(probe.replies) >= 1)
        (reply,) = probe.replies
        assert isinstance(reply, SolveReply) and reply.ok
        assert reply.outputs[0].tolist() == [42.0, 42.0, 42.0]
        assert (server._process_pool is not None) == (executor == "process")
    finally:
        server.shutdown_executors()
        transport.close()


def _compute_threads(address="server/tsv"):
    return [
        t for t in threading.enumerate()
        if t.is_alive() and t.name.startswith(f"compute-{address}-worker")
    ]


def test_node_teardown_releases_worker_pool_threads():
    """Closing a TCP node must shut its compute WorkerPool down: the
    worker threads drain to their sentinels and exit instead of idling
    forever on the task queue (the leak this regression pins)."""
    transport, server, probe = make_tcp_server(
        ServerConfig(max_concurrent=2), compute_workers=2,
    )
    try:
        for rid in (1, 2):
            a, b = linsys(64, seed=rid)
            transport.nodes["probe"].send("server/tsv", SolveRequest(
                request_id=rid, problem="linsys/dgesv", inputs=(a, b),
                reply_to="probe",
            ))
        assert wait_for(lambda: len(probe.replies) >= 2)
        assert _compute_threads(), "expected live pool workers mid-run"
    finally:
        transport.close()
    assert wait_for(lambda: not _compute_threads()), (
        f"compute workers leaked past node shutdown: {_compute_threads()}"
    )


def test_restart_storm_does_not_accumulate_process_children():
    """A crash->revive storm on a process-lane server: every restart
    releases the old generation's ProcessPool (its in-flight work is
    stale anyway), so child processes cannot pile up incarnation after
    incarnation; the final teardown reaps everything."""
    import multiprocessing

    def children():
        return [p for p in multiprocessing.active_children()
                if p.is_alive()]

    baseline = len(children())
    transport, server, probe = make_tcp_server(
        ServerConfig(max_concurrent=2, workers=2, executor="process"),
    )
    node = transport.nodes["server/tsv"]
    try:
        for round_no in range(4):
            a, b = linsys(48, seed=round_no)
            done = len(probe.replies)
            transport.nodes["probe"].send("server/tsv", SolveRequest(
                request_id=round_no + 1, problem="linsys/dgesv",
                inputs=(a, b), reply_to="probe",
            ))
            assert wait_for(lambda: len(probe.replies) > done)
            assert server._process_pool is not None
            node.restart_component()
            assert server._process_pool is None  # released, reopens lazily
            # never more children than one generation's worth
            assert len(children()) - baseline <= 2, (
                f"round {round_no}: {len(children()) - baseline} children "
                "accumulated across restarts"
            )
    finally:
        transport.close()
    assert wait_for(lambda: len(children()) <= baseline, timeout=60.0), (
        "process-pool children leaked past transport close"
    )


def test_tcp_compute_pool_is_bounded_and_counts_saturation():
    from repro.problems.complexity import Complexity
    from repro.problems.spec import ObjectKind, ObjectSpec, ProblemSpec
    from repro.trace.instruments import MetricsRegistry

    # the kernel holds its worker until all three requests are in the
    # pool, so the later two always find it busy
    queued = threading.Event()

    def hold(x):
        queued.wait(30.0)
        return np.float64(x.sum())

    registry = ProblemRegistry()
    registry.register(ProblemSpec(
        name="test/hold",
        inputs=(ObjectSpec("x", ObjectKind.VECTOR, dims=("n",)),),
        outputs=(ObjectSpec("s", ObjectKind.SCALAR),),
        complexity=Complexity("n"),
    ), hold)
    metrics = MetricsRegistry()
    transport, server, probe = make_tcp_server(
        ServerConfig(max_concurrent=3), metrics=metrics, compute_workers=1,
        registry=registry,
    )
    try:
        for rid in range(1, 4):
            transport.nodes["probe"].send("server/tsv", SolveRequest(
                request_id=rid, problem="test/hold", inputs=(np.ones(4),),
                reply_to="probe",
            ))
        node = transport.nodes["server/tsv"]
        assert wait_for(lambda: node._compute_pool.stats()["submitted"] == 3)
        queued.set()
        assert wait_for(lambda: len(probe.replies) >= 3, timeout=60.0)
        assert all(r.ok for r in probe.replies)
        # the pool's completed counter ticks just *after* the reply is
        # sent, so give the last worker a beat to finish bookkeeping
        assert wait_for(lambda: node._compute_pool.stats()["completed"] == 3)
        stats = node._compute_pool.stats()
        # one worker served all three admitted requests...
        assert stats["workers"] == 1
        # ...and the submissions that found it busy are on the counter
        assert metrics.get("server.pool_saturated").value >= 1
        assert stats["saturated"] == metrics.get("server.pool_saturated").value
    finally:
        queued.set()
        transport.close()
