"""Data handles + request DAGs — iterative loops without re-shipping.

Claim: a >= 20-iteration iterative solver loop (x_{i+1} = A x_i, the
shape of every relaxation / power-iteration / time-stepping workload)
that stores its operand once and chains each step's kept output into
the next as a handle moves >= 10x fewer payload bytes than the
ship-everything baseline, with bit-identical numerics, and on the
simulator's slow LAN clears >= 3x its throughput.

* **Simulator** (virtual time, deterministic — the model of the
  claim): the ship-everything loop pays one matrix transfer per
  iteration over the slow canonical LAN; the reference loop stores the
  matrix once and runs the chain as one ``submit_dag`` — the client
  sends each step pinned to the matrix's server, once its predecessor
  has answered, so a step costs one control round trip and no payload.
* **Real sockets** (wall clock): the same two loops through one client
  against a single TCP server, payload bytes measured by the
  transport's own wire counters.  The byte ratio is gated; the speed-up
  is reported only: on loopback it mostly measures per-request overhead
  on the machine at hand (about 2x at smoke size and 3-4x at full size
  on a 2-vCPU box).

Writes ``benchmarks/results/BENCH_dag.json``.  Set ``BENCH_SMOKE=1``
for a quick CI run (smaller operands, same >= 20-iteration chain, same
asserts).
"""

import json
import os
import time

import numpy as np

from _harness import RESULTS_DIR, emit
from repro.dag import DagBuilder
from repro.problems.builtin import builtin_registry
from repro.testbed import standard_testbed
from repro.trace.instruments import MetricsRegistry, Observability

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

ITERS = 20                      # the acceptance floor: a real loop
SIM_N = 96 if SMOKE else 128
TCP_N = 512 if SMOKE else 768
TCP_REPS = 2                    # best-of to damp loopback jitter


def operand(rng, n):
    """A spectrally tame iteration matrix (entries ~ N(0, 1/n)) and a
    start vector: 20 applications neither explode nor vanish."""
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    x0 = rng.standard_normal(n)
    return a, x0


def chain_dag(handle, x0, iters):
    """x_{i+1} = A x_i as one DAG: the matrix rides as a handle, every
    edge is a NodeOutput the client fills with the predecessor's kept
    output — no payload repeats."""
    dag = DagBuilder()
    prev = None
    for i in range(iters):
        rhs = x0 if prev is None else prev.output(0)
        prev = dag.node(f"x{i}", "blas/dgemv", [handle, rhs])
    return dag.build()   # terminal node emits the final vector


# ----------------------------------------------------------------------
# simulator: full stack, virtual time
# ----------------------------------------------------------------------
def sim_loop() -> dict:
    rng = np.random.default_rng(51)
    a, x0 = operand(rng, SIM_N)
    out = {}

    # ship-everything: the brokered loop, one matrix transfer per step
    obs = Observability()
    tb = standard_testbed(n_servers=1, seed=53, observability=obs)
    tb.settle()
    bytes0 = obs.metrics.snapshot()["counters"].get("wire.bytes", 0)
    t0 = tb.kernel.now
    x_ship = x0
    for _ in range(ITERS):
        (x_ship,) = tb.solve("c0", "blas/dgemv", [a, x_ship])
    ship_s = tb.kernel.now - t0
    ship_bytes = (
        obs.metrics.snapshot()["counters"]["wire.bytes"] - bytes0
    )

    # reference path: store once, one DAG for the whole chain
    obs = Observability()
    tb = standard_testbed(n_servers=1, seed=53, observability=obs)
    tb.settle()
    bytes0 = obs.metrics.snapshot()["counters"].get("wire.bytes", 0)
    t0 = tb.kernel.now
    h = tb.store("c0", "s0", "A", a)
    (x_dag,) = tb.solve_dag("c0", chain_dag(h, x0, ITERS))
    dag_s = tb.kernel.now - t0
    dag_bytes = (
        obs.metrics.snapshot()["counters"]["wire.bytes"] - bytes0
    )

    assert np.array_equal(np.asarray(x_ship), np.asarray(x_dag)), \
        "reference path changed the numerics"
    out["ship"] = {"makespan_s": ship_s, "payload_bytes": int(ship_bytes),
                   "throughput_rps": ITERS / ship_s}
    out["dag"] = {"makespan_s": dag_s, "payload_bytes": int(dag_bytes),
                  "throughput_rps": ITERS / dag_s}
    out["byte_ratio"] = ship_bytes / dag_bytes
    out["speedup"] = ship_s / dag_s
    return out


# ----------------------------------------------------------------------
# real sockets: single server, wall clock
# ----------------------------------------------------------------------
def make_tcp_world():
    """One server and one client over loopback TCP.  The client has the
    dgemv spec installed and pins every request, so no agent is needed
    (the server's registrations go to an unresolvable name and drop)."""
    from repro.core.client import NetSolveClient
    from repro.core.server import ComputationalServer
    from repro.protocol.tcp import TcpSession, TcpTransport

    metrics = MetricsRegistry()
    transport = TcpTransport(metrics=metrics)
    registry = builtin_registry().subset(("blas/dgemv",))
    server = ComputationalServer(
        server_id="sv", agent_address="agent",
        registry=registry, mflops=100.0, host=transport.host_name,
    )
    transport.add_node("server/sv", server, port=0)
    client = NetSolveClient(client_id="c0", agent_address="agent")
    client.install_spec(registry.spec("blas/dgemv"))
    session = TcpSession(transport.add_node("client/c0", client, port=0),
                         timeout=120.0)
    return transport, metrics, session


def tcp_call(session, method, *args, **kwargs):
    """Start a client call on the node's loop and wait for its value."""
    pending = session.node.call(
        lambda: getattr(session.client, method)(*args, **kwargs)
    )
    return session.drive_result(pending)


def wire_bytes(metrics) -> int:
    return metrics.snapshot()["counters"].get("wire.bytes", 0)


def tcp_loop() -> dict:
    rng = np.random.default_rng(61)
    a, x0 = operand(rng, TCP_N)
    best = None
    for _ in range(TCP_REPS):
        # ship-everything, pinned to the one server
        transport, metrics, session = make_tcp_world()
        try:
            bytes0 = wire_bytes(metrics)
            t0 = time.perf_counter()
            x_ship = x0
            for _ in range(ITERS):
                (x_ship,) = tcp_call(session, "submit", "blas/dgemv",
                                     [a, x_ship], server="server/sv")
            ship_s = time.perf_counter() - t0
            ship_bytes = wire_bytes(metrics) - bytes0
        finally:
            transport.close()

        # store once + one DAG
        transport, metrics, session = make_tcp_world()
        try:
            bytes0 = wire_bytes(metrics)
            t0 = time.perf_counter()
            h = tcp_call(session, "store", "server/sv", "A", a)
            (x_dag,) = tcp_call(session, "submit_dag",
                                chain_dag(h, x0, ITERS))
            dag_s = time.perf_counter() - t0
            dag_bytes = wire_bytes(metrics) - bytes0
        finally:
            transport.close()

        assert np.array_equal(np.asarray(x_ship), np.asarray(x_dag)), \
            "reference path changed the numerics over TCP"
        run = {
            "ship": {"makespan_s": ship_s, "payload_bytes": int(ship_bytes),
                     "throughput_rps": ITERS / ship_s},
            "dag": {"makespan_s": dag_s, "payload_bytes": int(dag_bytes),
                    "throughput_rps": ITERS / dag_s},
            "byte_ratio": ship_bytes / dag_bytes,
            "speedup": ship_s / dag_s,
        }
        if best is None or run["speedup"] > best["speedup"]:
            best = run
    return best


# ----------------------------------------------------------------------
def test_dag_bench():
    sim = sim_loop()
    tcp = tcp_loop()

    def row(label, r):
        return (
            f"{label:>4} ship {r['ship']['makespan_s']:>9.3f} s "
            f"/ {r['ship']['payload_bytes'] / 1e6:>7.2f} MB   "
            f"dag {r['dag']['makespan_s']:>9.3f} s "
            f"/ {r['dag']['payload_bytes'] / 1e6:>7.2f} MB   "
            f"{r['speedup']:>5.1f}x faster, "
            f"{r['byte_ratio']:>5.1f}x fewer bytes"
        )

    lines = [
        (
            f"data handles + request DAGs: {ITERS}-iteration "
            f"x_(i+1) = A x_i loop, dgemv({SIM_N}) sim / "
            f"dgemv({TCP_N}) tcp, identical numerics both paths"
        ),
        "",
        row("sim", sim),
        row("tcp", tcp),
    ]
    emit("dag", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_dag.json").write_text(
        json.dumps(
            {
                "benchmark": "dag",
                "smoke": SMOKE,
                "iterations": ITERS,
                "sim": sim,
                "tcp": tcp,
            },
            indent=2,
        )
        + "\n"
    )

    # the loop really is >= 20 chained solves
    assert ITERS >= 20
    # bytes: the reference path re-ships nothing
    assert sim["byte_ratio"] >= 10.0, sim
    assert tcp["byte_ratio"] >= 10.0, tcp
    # throughput: on the slow LAN, 20 control round trips beat 20
    # matrix transfers (the TCP ratio is reported, not gated)
    assert sim["speedup"] >= 3.0, sim


if __name__ == "__main__":
    test_dag_bench()
    print("bench_dag: all assertions passed")
