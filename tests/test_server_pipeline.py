"""Server request pipeline: the ledger closes, whatever the traffic.

One simulated server under the cross product of its pipeline-shaping
knobs — cache, batching, job store, queue bound, slots — is fed a seeded
random interleaving of every kind of request it knows (distinct,
identical, batch-compatible, wrong-arity, unknown-problem, missing-ref,
resident-ref, ``keep_result``), with a live restart
dropped in on some seeds.  At quiescence the books must balance: every
request answered at most once (exactly once without a restart), the
served/failed counters equal to the replies that left, every registry
reading equal to the sum of the attribute it reports over the servers
attached (a second, nearly idle server shares the registry), nothing
left queued, executing, in flight or half-run, and one job-store row per
settled request.

Beside the ledger sit the regressions for the three drifts the single
pipeline removed: re-entrant draining (a deep queue of cached or invalid
requests overflowed the stack), refs resolved twice on a cache-enabled
server, and replies that never reached the job store.
"""

import itertools
from operator import attrgetter

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.server import ComputationalServer
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import (
    Busy,
    DataHandle,
    FetchResult,
    ResultStatus,
    SolveReply,
    SolveRequest,
    StoreObject,
)
from repro.protocol.transport import Component, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology
from repro.simnet.rng import RngStreams
from repro.store import JobStore
from repro.trace.instruments import Observability

SERVER = "server/sv"
CLIENT = "client-probe"


class Probe(Component):
    def __init__(self):
        self.inbox = []

    def on_message(self, src, msg):
        self.inbox.append(msg)

    def of_type(self, cls):
        return [m for m in self.inbox if isinstance(m, cls)]


def make_world(cfg, *, host_mflops=0.25):
    """One server on a deliberately slow host (solves take virtual
    milliseconds, so bursts queue), one client probe, one agent probe."""
    obs = Observability()
    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("sh", host_mflops, cpus=cfg.max_concurrent)
    topo.add_host("ph", 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    server = ComputationalServer(
        server_id="sv",
        agent_address="agent-probe",
        registry=builtin_registry().subset(("linsys/dgesv",)),
        mflops=host_mflops,
        host="sh",
        cfg=cfg,
        metrics=obs.metrics,
    )
    probe = Probe()
    transport.add_node("agent-probe", "ph", Probe())
    transport.add_node(CLIENT, "ph", probe)
    transport.add_node(SERVER, "sh", server)
    return kernel, transport, server, probe, obs


def linsys(rng, n):
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


def solve(rid, inputs, *, problem="linsys/dgesv", **fields):
    return SolveRequest(
        request_id=rid, problem=problem, inputs=tuple(inputs),
        reply_to=CLIENT, **fields,
    )


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
KNOBS = list(itertools.product(
    (0, 8),      # cache_entries
    (1, 8),      # batch_max
    (False, True),  # store_path set
    (0, 4),      # max_queue
    (1, 2),      # max_concurrent
))
SEEDS = (11, 12, 13)
#: seeds on which the server is restarted mid-traffic
RESTART_SEEDS = (13,)
N_MESSAGES = 70
WINDOW = 0.12  # seconds of virtual time the arrivals are spread over


def traffic(seed):
    """``[(time, message)]`` plus the request ids it contains."""
    rng = RngStreams(seed).get("pipeline.traffic")
    shared = linsys(rng, 8)
    rids = itertools.count(1)
    qos_of = ("", "", "interactive", "background")
    sent_rids = []
    # one pinned operand for the resident-ref kind, stored up front
    resident, rhs = linsys(rng, 8)
    schedule = [(0.0, StoreObject(key="resident", value=resident))]

    def request(inputs, **fields):
        rid = next(rids)
        sent_rids.append(rid)
        qos = qos_of[rng.integers(len(qos_of))]
        return solve(rid, inputs, qos=qos, **fields)

    def make(kind):
        if kind == "distinct":
            return request(linsys(rng, int(rng.choice((6, 10, 12)))))
        if kind == "identical":
            return request((shared[0].copy(), shared[1].copy()))
        if kind == "batchable":
            return request(linsys(rng, 8))
        if kind == "wrong_arity":
            return request((np.eye(4),))
        if kind == "unknown_problem":
            return request(linsys(rng, 4), problem="eigen/symm")
        if kind == "missing_ref":
            return request((DataHandle(key="ghost"), rhs))
        if kind == "resident_ref":
            return request((DataHandle(key="resident"), rng.standard_normal(8)))
        if kind == "keep_result":
            return request(linsys(rng, 8), keep_result=True)
        assert kind == "singular"
        return request((np.zeros((8, 8)), np.ones(8)))

    kinds = (
        ["distinct"] * 3 + ["identical"] * 5 + ["batchable"] * 5
        + ["wrong_arity", "unknown_problem", "missing_ref", "resident_ref",
           "keep_result", "singular"]
    )
    t = 0.01
    for _ in range(N_MESSAGES):
        # bursts: most arrivals share an instant with their predecessor
        if rng.random() < 0.3:
            t += rng.exponential(WINDOW / (0.3 * N_MESSAGES))
        schedule.append((t, make(kinds[rng.integers(len(kinds))])))
    return schedule, sent_rids


def ledger_breaches(server, bystander, probe, obs, sent_rids, *,
                    restarted, store_path):
    """Every broken invariant at quiescence, as labelled text."""
    bad = []

    def check(ok, label):
        if not ok:
            bad.append(label)

    solve_replies = probe.of_type(SolveReply)
    busies = probe.of_type(Busy)

    answered = [m.request_id for m in solve_replies + busies]
    check(len(answered) == len(set(answered)),
          f"a request id was answered twice: {sorted(answered)}")
    check(set(answered) <= set(sent_rids), "reply to an id never sent")
    if not restarted:
        check(sorted(answered) == sorted(sent_rids),
              f"unanswered requests: {sorted(set(sent_rids) - set(answered))}")

    settled = server.requests_served + server.requests_failed
    check(settled == len(solve_replies),
          f"served+failed {settled} != {len(solve_replies)} replies")
    check(len(busies) == server.requests_shed, "Busy replies != requests_shed")
    check(sum(server.sheds_by_class.values()) == server.requests_shed,
          "sheds_by_class does not sum to requests_shed")

    check(server.executing == 0, f"executing {server.executing}")
    check(server.queue_depth == 0, f"queue_depth {server.queue_depth}")
    check(server._inflight == {}, f"_inflight {server._inflight}")
    check(server._queued_by_class == [0, 0, 0],
          f"_queued_by_class {server._queued_by_class}")

    # the registry holds no count of its own: each name reports one
    # attribute (the ones benches and perf/ read), summed over servers
    snap = obs.metrics.snapshot()
    servers = (server, bystander)
    check(bystander.requests_served == 1, "the bystander served nothing")
    reports = {
        "server.ok": "requests_served",
        "server.errors": "requests_failed",
        "server.sheds": "requests_shed",
        "server.batches": "batches",
        "server.batched_requests": "batched_requests",
        "server.coalesced": "coalesced_requests",
        "server.stale_drops": "stale_completions",
        "server.missing_objects": "objects.misses",
    }
    for name, attr in reports.items():
        total = sum(attrgetter(attr)(s) for s in servers)
        check(snap["counters"][name] == total,
              f"{name} {snap['counters'][name]} != sum of {attr} {total}")
    check(snap["gauges"]["server.peak_queue"]
          == max(s.peak_queue for s in servers),
          "server.peak_queue gauge != deepest peak_queue")
    for name in ("server.queue_depth", "server.executing"):
        check(snap["gauges"][name] == 0, f"{name} gauge {snap['gauges'][name]}")
    if not restarted:
        # bumped at three sites (cache-answered at admission, _start,
        # batch mates in _run), still once per settled request
        check(snap["counters"]["server.requests"] == settled + 1,
              f"server.requests {snap['counters']['server.requests']} != "
              f"settled {settled} + the bystander's 1")
    if server.cfg.max_queue == 0 and not restarted:
        # a ref is resolved once per request (a digesting server
        # resolves at admission, so a request it then sheds or loses to
        # a restart counts a miss without a reply — hence the guard)
        missing = [r for r in solve_replies if r.error_kind == "missing_object"]
        check(server.objects.misses == len(missing),
              f"objects.misses {server.objects.misses} != "
              f"{len(missing)} missing-object replies")

    if store_path:
        reader = JobStore(store_path)
        try:
            rows = reader.count()
        finally:
            reader.close()
        check(rows == settled, f"job rows {rows} != settled {settled}")
        check(snap["counters"]["server.store_records"] == settled,
              "server.store_records != settled")
    return bad


def run_traffic(cfg, seed):
    """Play ``traffic(seed)`` into a fresh world until quiescence."""
    kernel, transport, server, probe, obs = make_world(cfg)
    # a second server on the same registry, fed one solve whose reply
    # goes to the agent probe (the client probe's inbox stays the ledger)
    bystander = ComputationalServer(
        server_id="by", agent_address="agent-probe",
        registry=builtin_registry().subset(("linsys/dgesv",)),
        mflops=100.0, host="ph", metrics=obs.metrics,
    )
    transport.add_node("server/by", "ph", bystander)
    transport.node("agent-probe").send("server/by", SolveRequest(
        request_id=1, problem="linsys/dgesv",
        inputs=linsys(RngStreams(seed).get("pipeline.bystander"), 8),
    ))
    schedule, sent_rids = traffic(seed)
    client = transport.node(CLIENT)
    for when, msg in schedule:
        kernel.call_at(when, lambda msg=msg: client.send(SERVER, msg))
    if seed in RESTART_SEEDS:
        kernel.call_at(0.6 * WINDOW, server.on_restart)
    kernel.run(until=120.0)
    return server, bystander, probe, obs, sent_rids


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cache,batch_max,store,max_queue,slots", KNOBS)
def test_server_ledger_closes(tmp_path, cache, batch_max, store, max_queue,
                              slots, seed):
    store_path = str(tmp_path / "jobs.sqlite") if store else ""
    server, bystander, probe, obs, sent_rids = run_traffic(
        ServerConfig(
            cache_entries=cache, batch_max=batch_max, store_path=store_path,
            max_queue=max_queue, max_concurrent=slots,
            cache_publish_bytes=4096 if cache else 0,
        ), seed)
    try:
        breaches = ledger_breaches(
            server, bystander, probe, obs, sent_rids,
            restarted=seed in RESTART_SEEDS, store_path=store_path,
        )
    finally:
        server.on_shutdown()  # releases the SQLite handle
    assert not breaches, "\n".join(breaches)


def test_ledger_traffic_reaches_every_lifecycle():
    """Guard the guard: the corpus must actually exercise sheds,
    batches, coalescing, cache hits, stale drops, failures and kept
    results."""
    seen = dict.fromkeys(
        ("shed", "batches", "coalesced", "cache_hits", "stale", "failed",
         "kept"), 0,
    )
    for cache, batch_max, max_queue, slots in (
        (8, 8, 4, 1), (8, 1, 0, 2), (0, 8, 0, 1),
    ):
        for seed in SEEDS:
            server, _by, _probe, obs, _rids = run_traffic(ServerConfig(
                cache_entries=cache, batch_max=batch_max,
                max_queue=max_queue, max_concurrent=slots,
            ), seed)
            counters = obs.metrics.snapshot()["counters"]
            seen["shed"] += server.requests_shed
            seen["batches"] += server.batches
            seen["coalesced"] += server.coalesced_requests
            seen["cache_hits"] += counters["server.cache_hits"]
            seen["stale"] += server.stale_completions
            seen["failed"] += server.requests_failed
            seen["kept"] += counters["server.kept_results"]
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# drift (i): the drain is a loop, not a recursion
# ----------------------------------------------------------------------
DEEP = 2000


def flood(cfg, messages):
    """Send ``messages`` at t=0 to a server far too slow to keep up."""
    kernel, transport, server, probe, _obs = make_world(
        cfg, host_mflops=0.001
    )
    client = transport.node(CLIENT)
    for msg in messages:
        client.send(SERVER, msg)
    kernel.run(until=3600.0)
    return server, probe


def assert_each_answered_once(server, probe, count):
    replies = probe.of_type(SolveReply)
    assert sorted(r.request_id for r in replies) == list(range(1, count + 1))
    assert server.queue_depth == 0 and server.executing == 0
    return {r.request_id: r for r in replies}


def test_deep_queue_of_identical_requests_drains_from_the_cache():
    """Every queued duplicate settles from the cache the moment the one
    compute lands.  Re-entrant draining spent two stack frames per
    queued request here and died of RecursionError around 500."""
    a, b = linsys(RngStreams(1).get("pipeline.deep"), 8)
    server, probe = flood(
        ServerConfig(max_concurrent=1, cache_entries=8, max_queue=0),
        [solve(rid, (a, b)) for rid in range(1, DEEP + 1)],
    )
    replies = assert_each_answered_once(server, probe, DEEP)
    assert server.peak_queue == DEEP - 1
    assert all(r.ok for r in replies.values())
    assert [rid for rid, r in replies.items() if not r.cached] == [1]
    assert server.requests_served == DEEP


def test_deep_queue_of_invalid_requests_drains_flat():
    a, b = linsys(RngStreams(2).get("pipeline.deep"), 8)
    server, probe = flood(
        ServerConfig(max_concurrent=1, max_queue=0),
        [solve(1, (a, b))]
        + [solve(rid, (a,)) for rid in range(2, DEEP + 1)],
    )
    replies = assert_each_answered_once(server, probe, DEEP)
    assert replies[1].ok
    assert not any(replies[rid].ok for rid in range(2, DEEP + 1))
    assert server.requests_failed == DEEP - 1


# ----------------------------------------------------------------------
# drift (ii): a reference is resolved once, cache stack or not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache_entries", (0, 8))
def test_missing_ref_is_counted_once(cache_entries):
    kernel, transport, server, probe, obs = make_world(
        ServerConfig(cache_entries=cache_entries)
    )
    transport.node(CLIENT).send(
        SERVER, solve(1, (DataHandle(key="ghost"), np.ones(8)))
    )
    kernel.run(until=5.0)
    (reply,) = probe.of_type(SolveReply)
    assert reply.error_kind == "missing_object"
    assert reply.missing == ("ghost",)
    assert server.objects.misses == 1
    counters = obs.metrics.snapshot()["counters"]
    assert counters["server.missing_objects"] == 1


# ----------------------------------------------------------------------
# drift (iii): every SolveReply has a job-store row; Busy has none
# ----------------------------------------------------------------------
def test_every_reply_kind_reaches_the_job_store(tmp_path):
    kernel, transport, server, probe, _obs = make_world(
        ServerConfig(
            cache_entries=8, max_queue=1,
            store_path=str(tmp_path / "jobs.sqlite"),
        ),
        host_mflops=1.0,
    )
    client = transport.node(CLIENT)
    a, b = linsys(RngStreams(3).get("pipeline.store"), 8)
    client.send(SERVER, solve(1, (a, b)))
    kernel.run(until=10.0)
    # 2: served from the cache; 3-5: the three pre-compute failures
    client.send(SERVER, solve(2, (a.copy(), b.copy())))
    client.send(SERVER, solve(3, (a,)))
    client.send(SERVER, solve(4, (a, b), problem="eigen/symm"))
    client.send(SERVER, solve(5, (DataHandle(key="ghost"), b)))
    kernel.run(until=20.0)
    # 6 runs, 7 queues, 8 is shed: Busy is not an outcome
    for rid in (6, 7, 8):
        client.send(SERVER, solve(rid, linsys(RngStreams(rid).get("x"), 64)))
    kernel.run(until=60.0)
    replies = {r.request_id: r for r in probe.of_type(SolveReply)}
    assert sorted(replies) == [1, 2, 3, 4, 5, 6, 7]
    assert [m.request_id for m in probe.of_type(Busy)] == [8]
    assert replies[2].cached and not replies[1].cached

    for rid in range(1, 9):
        client.send(SERVER, FetchResult(request_id=rid))
    kernel.run(until=70.0)
    status = {s.request_id: s for s in probe.of_type(ResultStatus)}
    try:
        for rid in (1, 2, 6, 7):
            assert status[rid].status == "done", (rid, status[rid])
            assert np.array_equal(
                status[rid].outputs[0], replies[rid].outputs[0]
            )
        assert status[2].compute_seconds == 0.0 < status[1].compute_seconds
        for rid in (3, 4, 5):
            assert status[rid].status == "failed", (rid, status[rid])
            assert status[rid].detail == replies[rid].detail
        assert status[8].status == "unknown"
    finally:
        server.on_shutdown()
