"""Result cache — repeat traffic at wire-latency cost.

Claim: under NEOS-style repeat traffic (an 80/20 Zipf trace — 80% of
requests re-ask the hottest 20% of distinct problems) the
content-addressed result cache collapses hit turnaround to wire
latency and multiplies aggregate throughput >= 5x, while costing
nothing when switched off.

* **Simulator** (virtual time, deterministic — the model of the
  claim): the full client -> agent -> server stack with the cache on
  answers warm repeats from the agent's hot cache in one RTT, within
  2x the analytic wire floor ``2 x (latency + per-message overhead)``.
* **Real sockets** (wall clock — the proof the fast path is real): a
  single TCP server with ``cache_entries`` set answers repeats without
  running the kernel, within ~2x a pure wire round trip measured
  through the very same stack (a ``FetchResult`` ping).

Writes ``benchmarks/results/BENCH_cache.json``.  Set ``BENCH_SMOKE=1``
for a quick CI run (shorter trace, same asserts).
"""

import json
import os
import threading
import time

import numpy as np

from _harness import RESULTS_DIR, emit, linear_system, ode_instance
from repro.config import ServerConfig
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import FetchResult, SolveReply, SolveRequest
from repro.testbed import DEFAULT_LATENCY, standard_testbed
from repro.trace.instruments import Observability

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

CACHE_ENTRIES = 64

# simulator trace: dgesv systems big enough that the wire + kernel cost
# of a full solve dwarfs the one-RTT hit path
SIM_N = 160
SIM_DISTINCT = 6 if SMOKE else 10
SIM_TRAFFIC = 50 if SMOKE else 100

# TCP trace: ode/linear is a Python-loop kernel (tiny frames, ~0.1 s of
# real compute) so hits measurably collapse to the socket round trip
ODE_D = 24
ODE_STEPS = 3000
TCP_DISTINCT = 3 if SMOKE else 5
TCP_TRAFFIC = 20 if SMOKE else 40
PINGS = 10


def zipf_trace(rng, distinct: int, count: int) -> list:
    """An 80/20 trace: 80% of draws land on the hottest 20% of items."""
    hot = max(1, distinct // 5)
    idxs = []
    for _ in range(count):
        if rng.random() < 0.8:
            idxs.append(int(rng.integers(hot)))
        else:
            idxs.append(int(hot + rng.integers(distinct - hot)))
    return idxs


# ----------------------------------------------------------------------
# simulator: full stack, virtual time
# ----------------------------------------------------------------------
def sim_repeat_traffic() -> dict:
    """The same Zipf trace driven sequentially, cache off vs on."""
    rng = np.random.default_rng(31)
    pool = [linear_system(rng, SIM_N) for _ in range(SIM_DISTINCT)]
    trace = zipf_trace(np.random.default_rng(32), SIM_DISTINCT, SIM_TRAFFIC)
    out = {}
    for label, entries in (("off", 0), ("on", CACHE_ENTRIES)):
        obs = Observability()
        tb = standard_testbed(
            n_servers=3, seed=29, cache_entries=entries, observability=obs
        )
        tb.settle()
        t0 = tb.kernel.now
        for idx in trace:
            a, b = pool[idx]
            (x,) = tb.solve("c0", "linsys/dgesv", [a, b])
            assert np.allclose(a @ x, b, atol=1e-8)
        makespan = tb.kernel.now - t0
        counters = obs.metrics.snapshot()["counters"]
        out[label] = {
            "makespan_s": makespan,
            "throughput_rps": SIM_TRAFFIC / makespan,
            "agent_hits": counters.get("agent.cache_hits", 0),
            "server_hits": counters.get("server.cache_hits", 0),
            "cached_replies": counters.get("client.cached_replies", 0),
        }
        if label == "on":
            # warm-hit turnaround: one more solve of the hottest item,
            # against the analytic wire floor of one client<->agent RTT
            hottest = max(set(trace), key=trace.count)
            a, b = pool[hottest]
            t0 = tb.kernel.now
            (x,) = tb.solve("c0", "linsys/dgesv", [a.copy(), b.copy()])
            out[label]["hit_turnaround_s"] = tb.kernel.now - t0
            out[label]["wire_floor_s"] = 2 * (
                DEFAULT_LATENCY + tb.sim.per_message_overhead
            )
            assert np.allclose(a @ x, b, atol=1e-8)
    out["speedup_on_vs_off"] = (
        out["off"]["makespan_s"] / out["on"]["makespan_s"]
    )
    return out


# ----------------------------------------------------------------------
# real sockets: single server, wall clock
# ----------------------------------------------------------------------
def make_tcp_world(cfg):
    from repro.core.server import ComputationalServer
    from repro.protocol.tcp import TcpTransport
    from repro.protocol.transport import Component

    class Probe(Component):
        def __init__(self):
            self.replies = []
            self.event = threading.Event()

        def on_message(self, src, msg):
            self.replies.append(msg)
            self.event.set()

    transport = TcpTransport()
    server = ComputationalServer(
        server_id="sv", agent_address="agent",  # unresolvable: drops
        registry=builtin_registry().subset(("ode/linear",)),
        mflops=100.0, host=transport.host_name, cfg=cfg,
    )
    transport.add_node("server/sv", server, port=0)
    probe = Probe()
    transport.add_node("probe", probe, port=0)
    return transport, server, probe


def tcp_roundtrip(transport, probe, msg) -> object:
    """Send one message to the server, block until its reply lands."""
    probe.event.clear()
    transport.nodes["probe"].send("server/sv", msg)
    assert probe.event.wait(120.0), "server never replied"
    return probe.replies[-1]


def tcp_solve(transport, probe, rid, inputs) -> SolveReply:
    reply = tcp_roundtrip(transport, probe, SolveRequest(
        request_id=rid, problem="ode/linear", inputs=tuple(inputs),
        reply_to="probe",
    ))
    assert isinstance(reply, SolveReply) and reply.ok, reply
    return reply


def tcp_repeat_traffic() -> dict:
    """Wall-clock makespan of the Zipf trace over real sockets."""
    rng = np.random.default_rng(41)
    pool = [
        ode_instance(rng, ODE_D, ODE_STEPS) for _ in range(TCP_DISTINCT)
    ]
    trace = zipf_trace(np.random.default_rng(42), TCP_DISTINCT, TCP_TRAFFIC)
    out = {}
    for label, entries in (("off", 0), ("on", CACHE_ENTRIES)):
        transport, server, probe = make_tcp_world(
            ServerConfig(cache_entries=entries)
        )
        try:
            t0 = time.perf_counter()
            for rid, idx in enumerate(trace, start=1):
                tcp_solve(transport, probe, rid, pool[idx])
            elapsed = time.perf_counter() - t0
            stats = server.result_cache.stats()
        finally:
            transport.close()
        out[label] = {
            "makespan_s": elapsed,
            "throughput_rps": TCP_TRAFFIC / elapsed,
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
        }
    out["speedup_on_vs_off"] = (
        out["off"]["makespan_s"] / out["on"]["makespan_s"]
    )
    return out


def tcp_hit_latency() -> dict:
    """Best-of-N hit turnaround vs a pure wire RTT on the same stack.

    The wire baseline is a ``FetchResult`` ping (no store configured,
    so the server answers ``unsupported`` immediately): same sockets,
    same codec, same dispatch — zero compute.  Minima are compared
    because a single wall-clock sample on loopback is jitter-bound.
    """
    rng = np.random.default_rng(43)
    inst = ode_instance(rng, ODE_D, ODE_STEPS)
    transport, server, probe = make_tcp_world(
        ServerConfig(cache_entries=8)
    )
    try:
        t0 = time.perf_counter()
        first = tcp_solve(transport, probe, 1, inst)
        compute_s = time.perf_counter() - t0
        assert not first.cached
        hits = []
        for i in range(PINGS):
            t0 = time.perf_counter()
            reply = tcp_solve(transport, probe, 2 + i, inst)
            hits.append(time.perf_counter() - t0)
            assert reply.cached, "repeat did not hit the cache"
            assert np.array_equal(reply.outputs[0], first.outputs[0])
        pings = []
        for i in range(PINGS):
            t0 = time.perf_counter()
            tcp_roundtrip(transport, probe, FetchResult(
                request_id=20_000 + i, client="probe",
            ))
            pings.append(time.perf_counter() - t0)
    finally:
        transport.close()
    return {
        "compute_s": compute_s,
        "hit_s": min(hits),
        "wire_s": min(pings),
        "hit_over_wire": min(hits) / min(pings),
    }


# ----------------------------------------------------------------------
def test_cache_bench():
    sim = sim_repeat_traffic()
    tcp = tcp_repeat_traffic()
    lat = tcp_hit_latency()

    lines = [
        (
            f"result cache: 80/20 Zipf trace, "
            f"{SIM_TRAFFIC} x dgesv({SIM_N}) over {SIM_DISTINCT} distinct "
            f"(sim), {TCP_TRAFFIC} x ode({ODE_D},{ODE_STEPS}) over "
            f"{TCP_DISTINCT} distinct (tcp)"
        ),
        "",
        f"{'trace':>22} {'cache off':>11} {'cache on':>11} {'speedup':>8}",
        (
            f"{'sim makespan (virt s)':>22} "
            f"{sim['off']['makespan_s']:>11.3f} "
            f"{sim['on']['makespan_s']:>11.3f} "
            f"{sim['speedup_on_vs_off']:>8.2f}"
        ),
        (
            f"{'tcp makespan (wall s)':>22} "
            f"{tcp['off']['makespan_s']:>11.3f} "
            f"{tcp['on']['makespan_s']:>11.3f} "
            f"{tcp['speedup_on_vs_off']:>8.2f}"
        ),
        "",
        (
            f"sim warm hit {sim['on']['hit_turnaround_s'] * 1e3:.2f} ms "
            f"vs wire floor {sim['on']['wire_floor_s'] * 1e3:.2f} ms "
            f"({sim['on']['hit_turnaround_s'] / sim['on']['wire_floor_s']:.2f}x); "
            f"agent hits {sim['on']['agent_hits']}, "
            f"server hits {sim['on']['server_hits']}"
        ),
        (
            f"tcp warm hit {lat['hit_s'] * 1e3:.2f} ms "
            f"vs wire rtt {lat['wire_s'] * 1e3:.2f} ms "
            f"({lat['hit_over_wire']:.2f}x); "
            f"cold compute {lat['compute_s'] * 1e3:.1f} ms"
        ),
    ]
    emit("cache", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_cache.json").write_text(
        json.dumps(
            {
                "benchmark": "cache",
                "smoke": SMOKE,
                "zipf": {"hot_share": 0.8, "hot_fraction": 0.2},
                "sim": sim,
                "tcp": tcp,
                "tcp_latency": lat,
            },
            indent=2,
        )
        + "\n"
    )

    # throughput: in virtual time repeat traffic must clear >= 5x faster
    # with the cache; over sockets the ratio is wall-clock and only
    # recorded, and the hit count below is the exact check
    assert sim["speedup_on_vs_off"] >= 5.0, sim
    # the trace really was mostly hits, and the baseline never cached
    assert sim["on"]["agent_hits"] + sim["on"]["server_hits"] >= (
        SIM_TRAFFIC - SIM_DISTINCT
    ), sim
    assert sim["off"]["agent_hits"] == sim["off"]["server_hits"] == 0, sim
    assert tcp["on"]["cache_hits"] >= TCP_TRAFFIC - TCP_DISTINCT, tcp
    assert tcp["off"]["cache_hits"] == tcp["off"]["cache_misses"] == 0, tcp
    # latency: a warm hit is a wire round trip, not a compute
    assert sim["on"]["hit_turnaround_s"] <= 2.0 * sim["on"]["wire_floor_s"], sim
    assert lat["hit_s"] <= 2.0 * lat["wire_s"] + 2e-3, lat
    assert lat["hit_s"] < lat["compute_s"] / 5, lat


if __name__ == "__main__":
    test_cache_bench()
    print("bench_cache: all assertions passed")
