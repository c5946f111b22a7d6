"""Turn one traced phase into the per-layer table.

``_us_per_req`` is a layer's self time summed over the phase, divided
by the verified requests of the phase.  Counters come from the span
wrappers' counts and from the components' public counters, read before
and after the phase.  A layer that did not run on the workload reads
``None`` (printed ``null``).
"""

from __future__ import annotations

import statistics

from .metrics import PER_LAYER
from .trace import Tracer, layer_of

#: frames a wall-clock timer sends, not a request: their number depends
#: on how long a tcp phase took, so they stay out of the exact counts
TIMER_DRIVEN_FRAMES = frozenset(
    ("WorkloadReport", "RegisterServer", "RegisterAck", "Ping", "Pong")
)

_CODEC = "repro.protocol.codec."
_TCP = "repro.protocol.tcp."
_TABLE = "repro.core.registry.ServerTable."
_CACHE = "repro.store.cache.ResultCache."
_EXECUTE = "repro.problems.registry.ProblemRegistry.execute"


def _p50(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_table(
    tracer: Tracer,
    *,
    transport: str,
    verified: int,
    traced_wall_s: float,
    untraced_wall_per_req_s: float,
    records,
    counters: dict,
) -> dict:
    """The per-layer metrics of one traced phase.

    ``counters`` holds the public-surface deltas the caller collected:
    queries, events, compactions, sheds, served, batched, peak_queue,
    agent/server cache stats, dials/reuses, pool stats, turnaround
    percentiles and the virtual results.
    """
    agg = tracer.aggregate()
    counts = tracer.counts()
    sim = transport == "sim"
    v = max(verified, 1)

    def self_us(*names):
        hit = [agg[n] for n in names if n in agg]
        if not hit:
            return None
        return sum(e[1] for e in hit) / 1e3

    def per_req(value):
        return None if value is None else value / v

    by_layer: dict[str, float] = {}
    spans = 0
    for name, (count, self_ns, _total, _wall) in agg.items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + self_ns / 1e3
        spans += count

    def layer_us(layer):
        return by_layer.get(layer)

    queries = counters.get("queries") or 0

    def per_query(value):
        return None if value is None or not queries else value / queries

    frames = wire_bytes = 0
    for key, value in counts.items():
        if not isinstance(key, tuple):
            continue
        kind, mtype = key
        if not sim and mtype in TIMER_DRIVEN_FRAMES:
            continue
        if kind == "frames":
            frames += value
        elif kind == "wire_bytes":
            wire_bytes += value

    out: dict = dict.fromkeys(PER_LAYER)
    out["codec.encode_us_per_req"] = per_req(self_us(
        _CODEC + "encode_message_iov", _CODEC + "encode_value",
        _CODEC + "encoded_parts",
    ))
    out["codec.decode_us_per_req"] = per_req(self_us(
        _CODEC + "decode_message", _CODEC + "decode_value",
    ))
    out["codec.size_us_per_req"] = per_req(self_us(_CODEC + "frame_size"))
    out["codec.frames_per_req"] = frames / v
    out["codec.wire_bytes_per_req"] = wire_bytes / v
    if sim:
        out["simtransport.deliver_us_per_req"] = per_req(layer_us("simtransport"))
        out["simnet.model_us_per_req"] = per_req(layer_us("simnet"))
        events = counters["events"]
        out["kernel.us_per_event"] = (
            (self_us("repro.simnet.kernel.EventKernel.run") or 0.0)
            / max(events, 1)
        )
        out["kernel.schedule_us_per_req"] = per_req(
            self_us("repro.simnet.kernel.EventKernel.call_at")
        )
        out["kernel.events_per_req"] = events / v
        out["kernel.compactions"] = counters["compactions"]
    else:
        out["tcp.send_us_per_req"] = per_req(self_us(
            _TCP + "TcpNode.send", _TCP + "_sendmsg_all",
        ))
        out["tcp.timer_us_per_req"] = per_req(self_us(
            _TCP + "TcpNode.call_after"
        ))
        out["tcp.recv_us_per_req"] = per_req(self_us(
            _TCP + "_read_exact_into", _TCP + "_read_exact",
        ))
        dials, reuses = counters["dials"], counters["reuses"]
        out["tcp.dials"] = dials
        out["tcp.reuse_share"] = (
            reuses / (dials + reuses) if dials + reuses else None
        )
        pools = counters.get("pools") or []
        if pools:
            out["executors.pool_saturated"] = sum(p["saturated"] for p in pools)
            out["executors.peak_pending"] = max(p["peak_pending"] for p in pools)

    if records:
        out["client.busy_us_per_req"] = per_req(layer_us("client"))
        neg = _p50(r.negotiation_seconds for r in records)
        xfer = _p50(r.transfer_seconds for r in records)
        out["client.negotiation_ms_p50"] = None if neg is None else neg * 1e3
        out["client.transfer_ms_p50"] = None if xfer is None else xfer * 1e3
        out["client.retries_per_req"] = sum(r.retries for r in records) / v
        errors = []
        for r in records:
            a = r.successful_attempt
            if a is not None and a.elapsed and not a.cached:
                errors.append(abs(a.predicted_seconds - a.elapsed) / a.elapsed)
        out["predictor.rel_err_p50"] = _p50(errors)
    else:
        out["client.retries_per_req"] = counters.get("driver_retries", 0) / v
    out["client.solve_p99_ms"] = counters["turnaround_p99_ms"]

    if queries:
        out["agent.busy_us_per_query"] = per_query(layer_us("agent"))
        out["registry.candidates_us_per_query"] = per_query(
            self_us(_TABLE + "candidates_for")
        )
        out["registry.write_us_per_req"] = per_req(self_us(
            _TABLE + "register", _TABLE + "report_workload",
            _TABLE + "mark_failed",
        ) or 0.0)
        out["agent.writes_per_query"] = counts.get("registry_writes", 0) / queries
        out["predictor.batch_us_per_query"] = per_query(self_us(
            "repro.core.predictor.predict_batch"
        ))

    out["server.busy_us_per_req"] = per_req(layer_us("server"))
    out["server.sheds_per_req"] = counters["sheds"] / v
    served = counters["served"]
    out["server.batched_share"] = (
        counters["batched"] / served if served else None
    )
    out["server.peak_queue"] = counters["peak_queue"]
    out["spec.validate_us_per_req"] = per_req(layer_us("spec"))
    out["spec.validations_per_req"] = counts.get("validations", 0) / v
    out["numerics.execute_us_per_req"] = per_req(layer_us("numerics"))
    # the share is of wall time, so it takes the kernels' wall duration:
    # their thread's CPU time misses what BLAS worker threads did
    kernels = [
        agg[n][3] for n in (_EXECUTE, _EXECUTE + "_batch") if n in agg
    ]
    if kernels and untraced_wall_per_req_s > 0:
        out["numerics.share_of_wall"] = (
            sum(kernels) / 1e9 / v / untraced_wall_per_req_s
        )

    caches = counters.get("caches")
    if caches:
        out["digest.us_per_req"] = per_req(layer_us("digest"))
        out["cache.get_us_per_req"] = per_req(self_us(
            _CACHE + "get", _CACHE + "peek"
        ))
        out["cache.put_us_per_req"] = per_req(self_us(_CACHE + "put"))
        a, s = caches["agent"], caches["servers"]
        out["cache.agent_hit_share"] = a["hits"] / max(a["hits"] + a["misses"], 1)
        out["cache.server_hit_share"] = s["hits"] / max(s["hits"] + s["misses"], 1)
        out["cache.evictions"] = a["evictions"] + s["evictions"]

    out["runtime.us_per_req"] = per_req(layer_us("runtime"))
    out["driver.us_per_req"] = per_req(layer_us("driver"))
    out["other.us_per_req"] = (
        traced_wall_s * 1e6 - sum(by_layer.values())
    ) / v
    if untraced_wall_per_req_s > 0:
        out["trace.overhead_share"] = (
            traced_wall_s / v / untraced_wall_per_req_s - 1.0
        )
    out["trace.spans_per_req"] = spans / v
    for name in ("virtual_turnaround_p50_s", "virtual_turnaround_p99_s",
                 "virtual_makespan_s"):
        out[name] = counters.get(name)
    return out
