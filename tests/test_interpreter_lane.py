"""The interpreter lane: kernels that hold the GIL run one at a time.

Two kernels that keep the GIL gain nothing from running side by side in
one process and lose CPU to the convoy, so every handler not registered
with ``releases_gil=True`` runs inside one process-wide lock.  A kernel
that releases the GIL (``blas/dgemm``) still runs in parallel across a
server's slots.
"""

import threading
import time

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.server import ComputationalServer
from repro.numerics.threads import FREE_LANE, INTERPRETER_LANE
from repro.problems.builtin import builtin_registry
from repro.problems.complexity import Complexity
from repro.problems.registry import ProblemRegistry
from repro.problems.spec import ObjectKind, ObjectSpec, ProblemSpec
from repro.protocol.messages import SolveReply, SolveRequest
from repro.protocol.tcp import TcpTransport
from repro.protocol.transport import Component

WAIT = 30.0


def wait_for(predicate, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class _Probe(Component):
    def __init__(self):
        self.replies = []

    def on_message(self, src, msg):
        self.replies.append(msg)


def _spec():
    return ProblemSpec(
        name="test/hold",
        inputs=(ObjectSpec("x", ObjectKind.VECTOR, dims=("n",)),),
        outputs=(ObjectSpec("s", ObjectKind.SCALAR),),
        complexity=Complexity("n"),
    )


def _solve_two_at_once(handler, *, releases_gil):
    """Serve two requests for ``handler`` on a 2-slot TCP server."""
    registry = ProblemRegistry()
    registry.register(_spec(), handler, releases_gil=releases_gil)
    with TcpTransport() as transport:
        server = ComputationalServer(
            server_id="lane",
            agent_address="agent",  # unresolvable: registrations drop
            registry=registry,
            mflops=100.0,
            host=transport.host_name,
            cfg=ServerConfig(max_concurrent=2),
        )
        transport.add_node("server/lane", server, compute_workers=2)
        probe = _Probe()
        sender = transport.add_node("probe", probe)
        for rid in (1, 2):
            sender.send("server/lane", SolveRequest(
                request_id=rid, problem="test/hold",
                inputs=(np.ones(4),), reply_to="probe",
            ))
        assert wait_for(lambda: len(probe.replies) == 2)
    return probe.replies


def test_two_gil_bound_kernels_on_two_slots_never_overlap():
    guard = threading.Lock()
    active, peak, threads = [0], [0], set()

    def hold(x):
        with guard:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            threads.add(threading.current_thread().name)
        time.sleep(0.2)  # lets the GIL go: only the lane keeps them apart
        with guard:
            active[0] -= 1
        return np.float64(x.sum())

    replies = _solve_two_at_once(hold, releases_gil=False)
    assert all(isinstance(r, SolveReply) and r.ok for r in replies)
    assert len(threads) == 2  # both slots ran one...
    assert peak[0] == 1  # ...one after the other


def test_two_kernels_that_release_the_gil_overlap():
    # each call waits for the other inside the handler: only two calls
    # running at once get through the barrier
    barrier = threading.Barrier(2)

    def meet(x):
        barrier.wait(timeout=WAIT / 2)
        return np.float64(x.sum())

    replies = _solve_two_at_once(meet, releases_gil=True)
    assert all(isinstance(r, SolveReply) and r.ok for r in replies)
    assert not barrier.broken


def test_batch_with_a_singular_member_completes_through_the_fallback():
    # the stacked call fails inside the lane; the per-item fallback
    # takes the lane again for each member, so holding it across the
    # fallback would deadlock here
    rng = np.random.default_rng(5)
    n = 8
    good = [(rng.standard_normal((n, n)) + n * np.eye(n),
             rng.standard_normal(n)) for _ in range(2)]
    singular = (np.zeros((n, n)), np.ones(n))
    items = [good[0], singular, good[1]]
    out = []
    worker = threading.Thread(
        target=lambda: out.append(
            builtin_registry().execute_batch("linsys/dgesv", items)
        ),
        daemon=True,
    )
    worker.start()
    worker.join(WAIT)
    assert not worker.is_alive(), "execute_batch deadlocked in the lane"
    (results,) = out
    assert isinstance(results[1], Exception)
    for (a, b), result in zip(good, (results[0], results[2])):
        assert np.allclose(a @ result[0], b)
    assert not INTERPRETER_LANE.locked()


@pytest.mark.parametrize("names", [
    ("blas/dgemm", "linsys/dgesv"),
    ("linsys/dgesv",),
])
def test_subset_keeps_the_releases_gil_flag(names):
    full = builtin_registry()
    part = full.subset(names)
    for name in names:
        assert part.get(name).releases_gil == full.get(name).releases_gil
    assert full.get("blas/dgemm").lane is FREE_LANE
    assert part.get("linsys/dgesv").lane is INTERPRETER_LANE
    assert [n for n in full if full.get(n).releases_gil] == ["blas/dgemm"]


def test_a_process_pool_forked_while_a_kernel_holds_the_lane_still_solves():
    # a fork copies the lane in whatever state it is in; a child forked
    # while another thread runs a kernel must not inherit it held by a
    # thread it does not have
    import multiprocessing
    import queue

    from repro.core.executors import ProcessPool

    held, release = threading.Event(), threading.Event()

    def kernel():
        with INTERPRETER_LANE:
            held.set()
            release.wait(WAIT)

    holder = threading.Thread(target=kernel, daemon=True)
    holder.start()
    assert held.wait(WAIT)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)
    done = queue.Queue()
    before = set(multiprocessing.active_children())
    pool = ProcessPool(1, builtin_registry())
    try:
        pool.submit("linsys/dgesv", [a, b], lambda r, _t: done.put(r))
        result = done.get(timeout=WAIT)
    finally:
        release.set()
        holder.join(WAIT)
        pool.shutdown()
        for child in set(multiprocessing.active_children()) - before:
            child.terminate()  # a deadlocked child must not hang the run
    assert not holder.is_alive()
    assert np.allclose(a @ result[0], b)
