"""Names, units, directions and bounds of every metric the benchmark
reports — the one table ``run.py``, ``compare.py``, the self-check and
``BENCHMARK.json`` agree on.
"""

from __future__ import annotations

import math
import statistics

#: workload -> why it is in the set (one line, at most 200 characters:
#: BENCHMARK.json carries the same text)
WORKLOADS = {
    "tcp_small": "dgesv n=16 over loopback TCP, 1 outstanding: smallest messages, so per-message cost (control-frame codec, send, dispatch, agent query, validation) is most of the result",
    "tcp_large": "dgemm 384x384 over loopback TCP, 1 outstanding: largest messages; numerics plus per-byte work (copies, sendmsg, socket reads), per-message cost diluted",
    "tcp_farm": "window of 16 submits, 2-slot servers with batching: the only workload where the server queue, batch gather, worker pool and lock/GIL contention do work",
    "tcp_repeat": "cache stack on, Zipf trace over 50 instances against 32 entries: agent one-RTT hits beside misses that digest, solve, insert, publish and evict",
    "sim_scale": "flash-crowd star farm in the simulator, raw SolveRequests, no agent or client: event kernel, frame sizing, server admission/shed and validation are the whole cost",
    "sim_brokered": "200-server brokered farm in the simulator with codec round trip, per-second workload reports and crash/revive: agent ranking, codec, client retry path",
}
assert all(len(why) <= 200 for why in WORKLOADS.values())

TCP_WORKLOADS = tuple(w for w in WORKLOADS if w.startswith("tcp_"))
SIM_WORKLOADS = tuple(w for w in WORKLOADS if w.startswith("sim_"))

#: the end-to-end metrics of the full report (``latest.json``,
#: ``compare.py``): name -> (unit, better, bound, workloads, exact).
#: ``bound`` is how far the median may worsen before it is a regression
#: and how closely two runs of one commit must agree; a spread wider
#: than it makes a comparison ``unresolved``, it does not widen the
#: bound.  ``exact`` results are fixed by the seed: a difference between
#: rounds is an error, not a spread.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, tuple(WORKLOADS), False),
    "req_per_s": ("1/s", "higher", 0.10, tuple(WORKLOADS), False),
    "cpu_ms_per_req": ("ms", "lower", 0.10, tuple(WORKLOADS), False),
    "solve_p50_ms": ("ms", "lower", 0.10, TCP_WORKLOADS, False),
    "solve_p99_ms": ("ms", "lower", 0.15, ("tcp_small",), False),
    "virtual_turnaround_p50_s": ("s", "lower", 0.005, SIM_WORKLOADS, True),
    "virtual_turnaround_p99_s": ("s", "lower", 0.005, SIM_WORKLOADS, True),
    "virtual_makespan_s": ("s", "lower", 0.005, SIM_WORKLOADS, True),
    "failed_share": ("share", "lower", 0.0, tuple(WORKLOADS), True),
    "peak_rss_mb": ("MB", "lower", 0.10, tuple(WORKLOADS), False),
}

#: setup_s may also move by this many seconds before it is a regression
SETUP_ABS_BOUND_S = 0.25

#: What ``BENCHMARK.json`` lists under ``end_to_end``, and so what the
#: one-line result of a single run carries.  That format wants every
#: metric on every workload, never zero, and a bound (at most 0.25) no
#: smaller than the quartile distance of ten runs on ten seeds - up to
#: 0.18 for the wall metrics on the reference box, 0.24 for set-up, 0.10
#: for memory.  That leaves out the tail (0.1-0.3), the failure share
#: (zero) and the virtual results (no meaning on tcp); ``solve_p50_ms``
#: is carried on ``sim_*`` as the virtual median turnaround, what a
#: simulated caller waits.  DRIVER_BOUND is the driver's gate, not the
#: report's: END_TO_END keeps the report's bounds.  See README.md.
DRIVER_END_TO_END = (
    "setup_s", "req_per_s", "cpu_ms_per_req", "solve_p50_ms", "peak_rss_mb",
)
DRIVER_BOUND = 0.25

#: per-layer metrics of the traced pass: name -> (unit, better)
PER_LAYER = {
    "codec.encode_us_per_req": ("us", "lower"),
    "codec.decode_us_per_req": ("us", "lower"),
    "codec.size_us_per_req": ("us", "lower"),
    "codec.frames_per_req": ("count", "lower"),
    "codec.wire_bytes_per_req": ("B", "lower"),
    "tcp.send_us_per_req": ("us", "lower"),
    "tcp.recv_us_per_req": ("us", "lower"),
    "tcp.timer_us_per_req": ("us", "lower"),
    "tcp.dials": ("count", "lower"),
    "tcp.reuse_share": ("share", "higher"),
    "simtransport.deliver_us_per_req": ("us", "lower"),
    "simnet.model_us_per_req": ("us", "lower"),
    "kernel.us_per_event": ("us", "lower"),
    "kernel.schedule_us_per_req": ("us", "lower"),
    "kernel.events_per_req": ("count", "lower"),
    "kernel.compactions": ("count", "lower"),
    "client.busy_us_per_req": ("us", "lower"),
    "client.negotiation_ms_p50": ("ms", "lower"),
    "client.transfer_ms_p50": ("ms", "lower"),
    "client.retries_per_req": ("count", "lower"),
    "client.solve_p99_ms": ("ms", "lower"),
    "agent.busy_us_per_query": ("us", "lower"),
    "registry.candidates_us_per_query": ("us", "lower"),
    "registry.write_us_per_req": ("us", "lower"),
    "agent.writes_per_query": ("count", "lower"),
    "predictor.batch_us_per_query": ("us", "lower"),
    "predictor.rel_err_p50": ("share", "lower"),
    "server.busy_us_per_req": ("us", "lower"),
    "server.sheds_per_req": ("count", "lower"),
    "server.batched_share": ("share", "higher"),
    "server.peak_queue": ("count", "lower"),
    "executors.pool_saturated": ("count", "lower"),
    "executors.peak_pending": ("count", "lower"),
    "spec.validate_us_per_req": ("us", "lower"),
    "spec.validations_per_req": ("count", "lower"),
    "numerics.execute_us_per_req": ("us", "lower"),
    "numerics.share_of_wall": ("share", "lower"),
    "digest.us_per_req": ("us", "lower"),
    "cache.get_us_per_req": ("us", "lower"),
    "cache.put_us_per_req": ("us", "lower"),
    "cache.agent_hit_share": ("share", "higher"),
    "cache.server_hit_share": ("share", "higher"),
    "cache.evictions": ("count", "lower"),
    "runtime.us_per_req": ("us", "lower"),
    "driver.us_per_req": ("us", "lower"),
    "other.us_per_req": ("us", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.spans_per_req": ("count", "lower"),
    "machine.calib_ms": ("ms", "lower"),
    "virtual_turnaround_p50_s": ("s", "lower"),
    "virtual_turnaround_p99_s": ("s", "lower"),
    "virtual_makespan_s": ("s", "lower"),
}

#: per-layer counts that repeat bit for bit for a given seed
#: on the simulator.  On tcp nothing is gated as exact: frames, bytes
#: and validations per request do repeat on tcp_small and tcp_large,
#: but workload reports follow wall-clock timers, tcp_farm interleaves
#: replies by thread timing, and on tcp_repeat a server's CacheInsert
#: races the client's next query to the agent, so hit counts move by a
#: few per thousand between runs of one seed.
EXACT_ON_SIM = (
    "codec.frames_per_req",
    "codec.wire_bytes_per_req",
    "kernel.events_per_req",
    "kernel.compactions",
    "client.retries_per_req",
    "agent.writes_per_query",
    "server.sheds_per_req",
    "server.peak_queue",
    "spec.validations_per_req",
)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """(max - min) / median, the run-to-run spread the report prints."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
