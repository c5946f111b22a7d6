"""Server throughput — concurrent executors and same-problem batching.

Claim: the executor work buys throughput on two independent axes.

* **Worker scaling** — a server with ``max_concurrent = k`` slots on a
  ``k``-CPU host clears a same-sized flood ~``k``x faster than the
  single-slot baseline.  Measured twice: in the simulator (virtual
  time, deterministic — the model of the claim) and over real sockets
  (wall clock — whether the thread pool actually overlaps work; this
  axis needs real cores, and is reported rather than gated).
* **Micro-batching** — while the queue is saturated, stacking queued
  same-shape requests into one vectorized kernel call amortizes
  per-call dispatch: small-FFT floods clear >=3x faster at batch size 8
  at the kernel boundary, and the end-to-end TCP flood inherits a
  smaller but real share of that win (messaging is unchanged; only the
  compute shrinks).

Writes ``benchmarks/results/BENCH_server.json``.  Set ``BENCH_SMOKE=1``
for a quick CI run (smaller floods, same asserts).  Asserted: every
reply ok, the simulator's slot scaling, and that batching engages over
TCP.  The wall-clock ratios are reported, not asserted.
"""

import json
import os
import time

import numpy as np

from _harness import RESULTS_DIR, emit, linear_system
from repro.config import ServerConfig
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import SolveRequest, SolveReply
from repro.simnet.rng import RngStreams

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

SIM_JOBS = 8 if SMOKE else 16
SIM_N = 256                    # ~1.1e7 flops: 0.11 s at 100 Mflop/s
TCP_JOBS = 6 if SMOKE else 8
TCP_N = 384
FFT_N = 256
FFT_COUNT = 32 if SMOKE else 64
BATCH = 8


# ----------------------------------------------------------------------
# worlds
# ----------------------------------------------------------------------
def make_sim_world(cfg, *, cpus):
    from repro.core.server import ComputationalServer
    from repro.protocol.transport import Component, SimTransport
    from repro.simnet.kernel import EventKernel
    from repro.simnet.network import Topology

    class Probe(Component):
        def __init__(self):
            self.replies = []

        def on_message(self, src, msg):
            if isinstance(msg, SolveReply):
                self.replies.append((self.node.now(), msg))

    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("sh", 100.0, cpus=cpus)
    topo.add_host("ph", 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    server = ComputationalServer(
        server_id="sv", agent_address="agent-probe",
        registry=builtin_registry().subset(("linsys/dgesv", "signal/fft")),
        mflops=100.0, host="sh", cfg=cfg,
    )
    probe = Probe()
    transport.add_node("agent-probe", "ph", Probe())
    transport.add_node("client-probe", "ph", probe)
    transport.add_node("server/sv", "sh", server)
    return kernel, transport, server, probe


def make_tcp_world(cfg, *, compute_workers):
    from repro.core.server import ComputationalServer
    from repro.protocol.tcp import TcpTransport
    from repro.protocol.transport import Component

    class Probe(Component):
        def __init__(self):
            self.replies = []

        def on_message(self, src, msg):
            if isinstance(msg, SolveReply):
                self.replies.append(msg)

    transport = TcpTransport()
    server = ComputationalServer(
        server_id="sv", agent_address="agent",  # unresolvable: drops
        registry=builtin_registry().subset(("linsys/dgesv", "signal/fft")),
        mflops=100.0, host=transport.host_name, cfg=cfg,
    )
    transport.add_node(
        "server/sv", server, port=0, compute_workers=compute_workers
    )
    probe = Probe()
    transport.add_node("probe", probe, port=0)
    return transport, server, probe


def wait_for(predicate, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# ----------------------------------------------------------------------
# axis 1: worker scaling
# ----------------------------------------------------------------------
def sim_worker_scaling() -> dict:
    """Virtual-time makespan of one flood vs the server's slot count."""
    rng = RngStreams(7).get("bench.server")
    args = [linear_system(rng, SIM_N) for _ in range(SIM_JOBS)]
    out = {}
    for slots in (1, 2, 4):
        kernel, transport, server, probe = make_sim_world(
            ServerConfig(max_concurrent=slots), cpus=slots,
        )
        for rid, (a, b) in enumerate(args, start=1):
            transport.node("client-probe").send("server/sv", SolveRequest(
                request_id=rid, problem="linsys/dgesv", inputs=(a, b),
                reply_to="client-probe",
            ))
        kernel.run(until=3600.0)
        assert len(probe.replies) == SIM_JOBS
        assert all(m.ok for _t, m in probe.replies)
        makespan = max(t for t, _m in probe.replies)
        out[slots] = {
            "makespan_s": makespan,
            "throughput_rps": SIM_JOBS / makespan,
        }
    out["speedup_4_vs_1"] = out[1]["makespan_s"] / out[4]["makespan_s"]
    return out


def tcp_worker_scaling() -> dict:
    """Wall-clock makespan of the same flood over real sockets."""
    rng = RngStreams(7).get("bench.server.tcp")
    args = [linear_system(rng, TCP_N) for _ in range(TCP_JOBS)]
    out = {}
    for workers in (1, 4):
        transport, server, probe = make_tcp_world(
            ServerConfig(max_concurrent=workers), compute_workers=workers,
        )
        try:
            t0 = time.perf_counter()
            for rid, (a, b) in enumerate(args, start=1):
                transport.nodes["probe"].send("server/sv", SolveRequest(
                    request_id=rid, problem="linsys/dgesv", inputs=(a, b),
                    reply_to="probe",
                ))
            assert wait_for(lambda: len(probe.replies) >= TCP_JOBS)
            elapsed = time.perf_counter() - t0
            assert all(m.ok for m in probe.replies)
        finally:
            transport.close()
        out[workers] = {
            "makespan_s": elapsed,
            "throughput_rps": TCP_JOBS / elapsed,
        }
    out["speedup_4_vs_1"] = out[1]["makespan_s"] / out[4]["makespan_s"]
    return out


# ----------------------------------------------------------------------
# axis 2: same-problem micro-batching
# ----------------------------------------------------------------------
def batching_kernel() -> dict:
    """Registry-boundary cost of a small-FFT flood, stacked vs serial.

    Best-of-3 wall-clock on both lanes; the stacked lane runs the whole
    flood as ``FFT_COUNT / BATCH`` calls, each one pocketfft call over
    the stack.  Also reports dgesv n=96, whose stacked lane is one
    LAPACK ``gesv`` call through ``np.linalg.solve`` per batch.  Both
    kernels are compiled, so the stacked lane saves the per-call
    validation and dispatch around them, not kernel work.
    """
    reg = builtin_registry()
    rng = np.random.default_rng(7)
    xs = [rng.standard_normal(FFT_N) for _ in range(FFT_COUNT)]
    single = batched = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for x in xs:
            reg.execute("signal/fft", [x])
        single = min(single, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i in range(0, FFT_COUNT, BATCH):
            reg.execute_batch(
                "signal/fft", [[x] for x in xs[i:i + BATCH]]
            )
        batched = min(batched, time.perf_counter() - t0)

    mats = [linear_system(rng, 96) for _ in range(32)]
    d_single = d_batched = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for a, b in mats:
            reg.execute("linsys/dgesv", [a, b])
        d_single = min(d_single, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i in range(0, 32, BATCH):
            reg.execute_batch(
                "linsys/dgesv", [[a, b] for a, b in mats[i:i + BATCH]]
            )
        d_batched = min(d_batched, time.perf_counter() - t0)
    return {
        "fft": {
            "n": FFT_N, "count": FFT_COUNT, "batch": BATCH,
            "single_s": single, "batched_s": batched,
            "speedup": single / batched,
        },
        "dgesv": {
            "n": 96, "count": 32, "batch": BATCH,
            "single_s": d_single, "batched_s": d_batched,
            "speedup": d_single / d_batched,
        },
    }


def tcp_batching_flood() -> dict:
    """End-to-end TCP flood of small FFTs, batching on vs off.

    Single slot, single worker: the flood outruns the service rate, the
    queue builds, and with ``batch_max=BATCH`` the drain stacks waiting
    requests.  Messaging cost is identical in both modes — only the
    compute share shrinks — so the end-to-end win is necessarily below
    the kernel-boundary ratio.
    """
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal(FFT_N) for _ in range(FFT_COUNT)]
    out = {}
    for label, batch_max in (("off", 1), ("on", BATCH)):
        transport, server, probe = make_tcp_world(
            ServerConfig(max_concurrent=1, batch_max=batch_max),
            compute_workers=1,
        )
        try:
            t0 = time.perf_counter()
            for rid, x in enumerate(xs, start=1):
                transport.nodes["probe"].send("server/sv", SolveRequest(
                    request_id=rid, problem="signal/fft", inputs=(x,),
                    reply_to="probe",
                ))
            assert wait_for(lambda: len(probe.replies) >= FFT_COUNT)
            elapsed = time.perf_counter() - t0
            assert all(m.ok for m in probe.replies)
        finally:
            transport.close()
        out[label] = {
            "makespan_s": elapsed,
            "batches": server.batches,
            "batched_requests": server.batched_requests,
        }
    out["speedup_on_vs_off"] = (
        out["off"]["makespan_s"] / out["on"]["makespan_s"]
    )
    return out


# ----------------------------------------------------------------------
def test_server_throughput():
    sim = sim_worker_scaling()
    tcp = tcp_worker_scaling()
    kern = batching_kernel()
    flood = tcp_batching_flood()
    cores = os.cpu_count() or 1

    lines = [
        f"server throughput: {SIM_JOBS} x dgesv({SIM_N}) flood (sim), "
        f"{TCP_JOBS} x dgesv({TCP_N}) (tcp), "
        f"{FFT_COUNT} x fft({FFT_N}) batching flood",
        "",
        f"{'axis':>24} {'1-slot':>10} {'4-slot':>10} {'speedup':>8}",
        (
            f"{'sim makespan (virt s)':>24} "
            f"{sim[1]['makespan_s']:>10.3f} {sim[4]['makespan_s']:>10.3f} "
            f"{sim['speedup_4_vs_1']:>8.2f}"
        ),
        (
            f"{'tcp makespan (wall s)':>24} "
            f"{tcp[1]['makespan_s']:>10.3f} {tcp[4]['makespan_s']:>10.3f} "
            f"{tcp['speedup_4_vs_1']:>8.2f}"
        ),
        "",
        f"{'batching':>24} {'serial':>10} {'stacked':>10} {'speedup':>8}",
        (
            f"{'fft kernel (wall s)':>24} "
            f"{kern['fft']['single_s']:>10.4f} "
            f"{kern['fft']['batched_s']:>10.4f} "
            f"{kern['fft']['speedup']:>8.2f}"
        ),
        (
            f"{'dgesv kernel (wall s)':>24} "
            f"{kern['dgesv']['single_s']:>10.4f} "
            f"{kern['dgesv']['batched_s']:>10.4f} "
            f"{kern['dgesv']['speedup']:>8.2f}"
        ),
        (
            f"{'tcp flood (wall s)':>24} "
            f"{flood['off']['makespan_s']:>10.4f} "
            f"{flood['on']['makespan_s']:>10.4f} "
            f"{flood['speedup_on_vs_off']:>8.2f}"
        ),
        "",
        (
            f"tcp flood batched {flood['on']['batched_requests']}/"
            f"{FFT_COUNT} requests into {flood['on']['batches']} stacked "
            f"calls ({cores} core(s) on this machine)"
        ),
    ]
    emit("server_throughput", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_server.json").write_text(
        json.dumps(
            {
                "benchmark": "server_throughput",
                "smoke": SMOKE,
                "cpu_count": cores,
                "sim_scaling": sim,
                "tcp_scaling": tcp,
                "batching_kernel": kern,
                "tcp_batching": flood,
            },
            indent=2,
        )
        + "\n"
    )

    # Only exact results gate (every flood above also asserted that all
    # its replies came back ok).  Worker scaling: the simulator is the
    # deterministic model — 4 slots on 4 CPUs must clear the flood at
    # least 2x faster than 1 slot.
    assert sim["speedup_4_vs_1"] >= 2.0, sim
    assert sim[1]["makespan_s"] > sim[2]["makespan_s"] > sim[4]["makespan_s"]
    # end-to-end, batching must actually engage
    assert flood["on"]["batches"] > 0, flood
    # The wall-clock ratios — tcp["speedup_4_vs_1"], kern[*]["speedup"],
    # flood["speedup_on_vs_off"] — are reported in the table and the
    # JSON, not asserted: one run of each on a shared 2-vCPU box swings
    # past any threshold on an unchanged tree, so a red run said nothing
    # about the server.  perf/ (alternating pairs, spreads) owns
    # wall-clock verdicts.


if __name__ == "__main__":
    test_server_throughput()
    print("bench_server_throughput: all assertions passed")
