"""The computational server.

Registers its problem catalogue with the agent (as PDL text on the
wire), reports workload under the hysteretic policy, and serves
``SolveRequest``\\ s: validate, execute through the problem registry as a
CPU job of the spec's advertised flop count, reply with outputs or a
structured error.  ``max_concurrent`` bounds simultaneous executions;
excess requests queue FIFO, mirroring the original's fork-per-request
server with a small process cap.

Overload protection and QoS: waiting requests sit in an earliest-
deadline-first heap, where each request's deadline is its arrival time
plus the per-class offset from ``qos_deadlines`` — ``interactive``
requests overtake ``batch`` and ``background`` ones, and single-class
traffic degenerates to plain FIFO.  ``max_queue`` bounds the queue — a
request arriving past the cap (or past its class's ``qos_shed`` share
of the cap) is *shed* with a retryable :class:`Busy` reply instead of
queueing forever, which is what lets clients spread a saturating
workload across the pool.  Every in-flight compute is stamped
with the server's *incarnation generation*; a restart bumps the
generation, so completion callbacks armed by a previous incarnation are
dropped instead of corrupting ``_executing`` or emitting stale replies.

Executors and batching: ``max_concurrent`` is also the server's *slot*
count, advertised in ``RegisterServer`` so the agent's MCT predictor can
charge workload per slot; every ``WorkloadReport`` carries the current
in-flight count for the same reason.  With ``batch_max > 1``, a drain
that finds shape-compatible same-problem requests waiting coalesces up
to ``batch_max`` of them into one stacked kernel call (occupying a
single slot) and fans the per-item results back as individual replies —
amortizing dispatch overhead exactly when the queue says the server is
saturated.  ``executor="process"`` opts GIL-bound single requests into a
child-process pool on transports whose nodes run real threads; batches
always ride the thread lane.

Result caching and persistence: with ``cache_entries > 0`` every
request is content-digested before admission — a hit answers straight
from the :class:`~repro.store.ResultCache` (``SolveReply.cached=True``),
skipping the queue, the worker pool and the kernel; a request whose
digest matches an *in-flight* compute joins it as a waiter instead of
burning a slot (stampede coalescing).  With ``store_path`` set,
completed outcomes are persisted to a SQLite :class:`~repro.store.JobStore`
keyed ``(reply_to, request_id)`` so they survive restarts and can be
recovered with ``FetchResult``; a memory-cache miss falls through to
the store by digest, warming the cache after a reboot.
"""

from __future__ import annotations

import heapq
import itertools
from math import ceil
from typing import Optional, Sequence

from ..config import ServerConfig
from ..errors import ConfigError, MissingObjectError, NetSolveError
from ..problems.pdl import render_pdl
from ..problems.registry import ProblemRegistry
from ..problems.spec import validate_inputs
from ..protocol.codec import decode_value, encode_value, encoded_size
from ..protocol.messages import (
    Busy,
    CacheInsert,
    DagNodeDone,
    DagReply,
    DataHandle,
    DeleteObject,
    FetchObject,
    FetchResult,
    NodeOutput,
    ObjectPayload,
    ObjectRef,
    Ping,
    Pong,
    RegisterAck,
    RegisterServer,
    ResultStatus,
    SolveReply,
    SolveRequest,
    StoreAck,
    StoreObject,
    SubmitDag,
    WorkloadReport,
)
from ..runtime import DeadlineTable, DispatchComponent, Periodic, handles
from ..store import HandleStore, JobStore, ResultCache, solve_digest
from ..trace.events import EventLog
from ..trace.instruments import MetricsRegistry
from .executors import ProcessPool
from .qos import QOS_CLASSES, qos_index
from .workload import WorkloadReporter

__all__ = ["ComputationalServer"]


class _ServerMetrics:
    """Pre-resolved instrument bundle; one ``is not None`` check per hook.

    Instruments are shared registry-wide, so a farm of servers reporting
    into one registry aggregates (queue-depth gauges sum via inc/dec).
    """

    __slots__ = (
        "requests", "ok", "errors", "queued", "sheds", "stale_drops",
        "stores", "store_rejects", "deletes", "queue_depth", "executing",
        "compute_seconds", "queue_wait_seconds", "batches",
        "batched_requests", "peak_queue", "cache_hits", "cache_misses",
        "cache_evictions", "cache_bytes_saved", "coalesced",
        "store_records", "store_hits", "fetches", "agent_failovers",
        "kept_results", "object_fetches", "missing_objects",
        "dags", "dag_nodes",
    )

    def __init__(self, registry: MetricsRegistry):
        self.requests = registry.counter(
            "server.requests", "solve requests accepted")
        self.ok = registry.counter("server.ok", "successful solve replies")
        self.errors = registry.counter("server.errors", "failed solve replies")
        self.queued = registry.counter(
            "server.queued", "requests held in the FIFO queue")
        self.sheds = registry.counter(
            "server.sheds", "requests refused with Busy (queue at max_queue)")
        self.stale_drops = registry.counter(
            "server.stale_drops",
            "compute completions from a previous incarnation dropped")
        self.stores = registry.counter(
            "server.stores", "objects stored in the sequencing cache")
        self.store_rejects = registry.counter(
            "server.store_rejects", "stores rejected (cache full / codec)")
        self.deletes = registry.counter(
            "server.deletes", "stored-object deletions")
        self.queue_depth = registry.gauge(
            "server.queue_depth", "requests waiting, all servers")
        self.executing = registry.gauge(
            "server.executing", "requests executing, all servers")
        self.compute_seconds = registry.histogram(
            "server.compute_seconds", help="per-request execution time")
        self.queue_wait_seconds = registry.histogram(
            "server.queue_wait_seconds", help="time spent queued before start")
        self.batches = registry.counter(
            "server.batches", "stacked same-problem kernel calls")
        self.batched_requests = registry.counter(
            "server.batched_requests", "requests served through a batch")
        self.peak_queue = registry.gauge(
            "server.peak_queue", "deepest any server's FIFO queue got")
        self.cache_hits = registry.counter(
            "server.cache_hits", "solves answered from the result cache")
        self.cache_misses = registry.counter(
            "server.cache_misses", "digested requests not found in cache")
        self.cache_evictions = registry.counter(
            "server.cache_evictions", "result-cache LRU evictions")
        self.cache_bytes_saved = registry.counter(
            "server.cache_bytes_saved",
            "encoded output bytes answered without recomputation")
        self.coalesced = registry.counter(
            "server.coalesced",
            "requests joined to an identical in-flight compute")
        self.store_records = registry.counter(
            "server.store_records", "job outcomes persisted to the store")
        self.store_hits = registry.counter(
            "server.store_hits",
            "cache misses answered from the persistent store")
        self.fetches = registry.counter(
            "server.fetches", "FetchResult lookups served")
        self.agent_failovers = registry.counter(
            "server.agent_failovers",
            "registrations rotated to the next agent on ack silence")
        self.kept_results = registry.counter(
            "server.kept_results",
            "outputs left resident and answered with DataHandles")
        self.object_fetches = registry.counter(
            "server.object_fetches", "FetchObject payload pulls served")
        self.missing_objects = registry.counter(
            "server.missing_objects",
            "referenced keys that were not resident (typed retryable error)")
        self.dags = registry.counter(
            "server.dags", "SubmitDag graphs accepted")
        self.dag_nodes = registry.counter(
            "server.dag_nodes", "DAG nodes executed to completion")


def _batch_signature(values) -> tuple:
    """Stacking-compatibility key for a validated input list.

    Two requests may share a batched kernel call only when every ndarray
    operand matches in shape *and* dtype (the batch kernels stack them
    along a new leading axis) and the scalar operands agree.
    """
    sig = []
    for v in values:
        if hasattr(v, "shape"):
            sig.append((v.shape, str(v.dtype)))
        else:
            sig.append(v)
    return tuple(sig)


#: transport-level source of DAG-internal solve requests; replies whose
#: ``reply_to`` starts with the prefix route back into the DAG executor
#: instead of the wire
_DAG_SRC = "@dag"
_DAG_PREFIX = "@dag/"


def _node_refs(value):
    """Every :class:`NodeOutput` reachable inside ``value`` (nested too)."""
    refs = []

    def walk(item):
        if isinstance(item, NodeOutput):
            refs.append(item)
        elif isinstance(item, (list, tuple)):
            for sub in item:
                walk(sub)
        elif isinstance(item, dict):
            for sub in item.values():
                walk(sub)

    walk(value)
    return refs


def _substitute(value, results):
    """``value`` with each :class:`NodeOutput` replaced by the produced
    output (a raw value, or the :class:`DataHandle` of a keep node)."""
    if isinstance(value, NodeOutput):
        outputs = results[value.node]
        if value.index >= len(outputs):
            raise NetSolveError(
                f"node {value.node!r} produced {len(outputs)} output(s); "
                f"index {value.index} requested"
            )
        return outputs[value.index]
    if isinstance(value, (list, tuple)):
        return tuple(_substitute(item, results) for item in value)
    if isinstance(value, dict):
        return {key: _substitute(item, results) for key, item in value.items()}
    return value


class _DagRun:
    """Execution state of one accepted request DAG."""

    __slots__ = (
        "token", "dag_id", "reply_to", "nodes", "order", "deps", "succs",
        "results", "unfinished", "retained", "started",
    )

    def __init__(self, token, dag_id, reply_to, nodes, order, deps, succs):
        self.token = token
        self.dag_id = dag_id
        self.reply_to = reply_to
        #: node id -> normalized node dict
        self.nodes = nodes
        #: submission (and topological tie-break) order of node ids
        self.order = order
        self.deps = deps
        self.succs = succs
        #: node id -> outputs tuple (values, or handles for keep nodes)
        self.results: dict[str, tuple] = {}
        self.unfinished = set(order)
        #: handle keys refcounted on behalf of this run (released at end)
        self.retained: list[str] = []
        #: nodes whose internal SolveRequest has been issued
        self.started: set[str] = set()


class ComputationalServer(DispatchComponent):
    """One NetSolve computational resource."""

    def __init__(
        self,
        *,
        server_id: str,
        agent_address: str | Sequence[str],
        registry: ProblemRegistry,
        mflops: float,
        host: str,
        cfg: ServerConfig = ServerConfig(),
        trace: Optional[EventLog] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if mflops <= 0:
            raise NetSolveError(f"server {server_id!r}: bad mflops {mflops}")
        if len(registry) == 0:
            raise NetSolveError(f"server {server_id!r}: empty problem registry")
        self.server_id = server_id
        #: ordered agent rotation (head = current); a plain string keeps
        #: the common single-agent deployment unchanged
        self.agent_address = agent_address
        #: registrations rotated to the next agent on ack silence
        self.agent_failovers = 0
        self.registry = registry
        self.mflops = float(mflops)
        self.host = host
        self.cfg = cfg
        self.trace = trace
        self._metrics = _ServerMetrics(metrics) if metrics is not None else None
        self.reporter: Optional[WorkloadReporter] = None
        self.registered = False
        self._executing = 0
        #: incarnation generation: bumped on every restart so completion
        #: callbacks of forgotten in-flight work identify themselves as
        #: stale instead of corrupting the new incarnation's state
        self._generation = 0
        #: earliest-deadline-first admission heap of
        #: ``(deadline, seq, src, msg, t_enqueued)``: deadline = arrival
        #: + the request class's ``qos_deadlines`` offset, seq breaks
        #: ties in arrival order — single-class traffic therefore drains
        #: in exact FIFO order, same as the pre-QoS deque
        self._queue: list[tuple[float, int, str, SolveRequest, float]] = []
        self._queue_seq = itertools.count()
        #: waiting entries per QoS class (indexed like QOS_CLASSES),
        #: driving the per-class shed shares
        self._queued_by_class = [0, 0, 0]
        self.requests_served = 0
        self.requests_failed = 0
        #: requests refused with Busy because the queue was at max_queue
        self.requests_shed = 0
        #: shed audit per QoS class (class name -> count)
        self.sheds_by_class = {name: 0 for name in QOS_CLASSES}
        #: stale completions (previous incarnation) dropped by the guard
        self.stale_completions = 0
        #: deepest the FIFO queue ever got (admission-cap audit)
        self.peak_queue = 0
        #: stacked kernel calls and the requests they carried
        self.batches = 0
        self.batched_requests = 0
        #: opt-in process executor, created on first use (thread lanes
        #: belong to the transport node, not the server)
        self._process_pool: Optional[ProcessPool] = None
        #: resident-object store behind ObjectRef/DataHandle references:
        #: pinned client stores plus refcounted, TTL-bounded keep_result
        #: outputs.  Survives on_restart (in-process hiccup), cleared by
        #: on_shutdown (process death).
        self.objects = HandleStore(
            cfg.object_cache_bytes,
            ttl=cfg.handle_ttl,
            clock=lambda: self.node.now(),
        )
        #: accepted request DAGs by run token (cleared on restart: the
        #: client times out and re-submits, like any lost in-flight work)
        self._dag_runs: dict[int, _DagRun] = {}
        self._dag_tokens = itertools.count(1)
        #: request ids for DAG-internal solves (never seen by clients)
        self._dag_rids = itertools.count(1)
        self.dags_accepted = 0
        self.dag_nodes_done = 0
        #: content-addressed result cache: digest -> (outputs, nbytes).
        #: Clocked by the node so TTLs work under virtual time; the
        #: lambda is only called once the component is bound.
        self.result_cache = ResultCache(
            cfg.cache_entries,
            ttl=cfg.cache_ttl,
            clock=lambda: self.node.now(),
        )
        #: digest -> [(reply_to, request_id), ...] of requests joined to
        #: an identical in-flight compute (stampede coalescing); cleared
        #: on restart — dropped waiters retry like any lost reply
        self._inflight: dict[str, list[tuple[str, int]]] = {}
        #: persistent job store, opened lazily so a shut-down incarnation
        #: can reopen it on revival
        self._store: Optional[JobStore] = None
        #: requests answered by joining an in-flight identical compute
        self.coalesced_requests = 0
        self._ticker = Periodic(
            self, cfg.workload.time_step, self._workload_tick,
            name="workload_tick",
        )
        self._reregister = Periodic(
            self, cfg.reregister_interval, self._register,
            name="reregister",
        )
        #: one-shot timers (currently just the RegisterAck deadline)
        self._deadlines = DeadlineTable(self)

    # ------------------------------------------------------------------
    @property
    def agent_address(self) -> str:
        """The agent currently registered with (head of the rotation)."""
        return self._agents[0]

    @agent_address.setter
    def agent_address(self, value: str | Sequence[str]) -> None:
        agents = [value] if isinstance(value, str) else list(value)
        if not agents:
            raise NetSolveError(
                f"server {self.server_id!r} needs at least one agent address"
            )
        self._agents = agents

    @property
    def agent_addresses(self) -> tuple[str, ...]:
        """The full rotation, current agent first."""
        return tuple(self._agents)

    # ------------------------------------------------------------------
    def on_bind(self) -> None:
        self._register()
        # a fresh reporter per (re)bind: restart is a cold start for the
        # hysteresis state, exactly like the original daemon
        self.reporter = WorkloadReporter(
            self.cfg.workload,
            sample=self.node.sample_workload,
            broadcast=self._broadcast_workload,
        )
        self._ticker.start()
        if self.cfg.reregister_interval > 0:
            self._reregister.start()

    def on_restart(self) -> None:
        """Restart path: a revived daemon forgets in-flight work, then
        re-registers and re-arms its reporting exactly like a cold start.
        Periodic.start() supersedes the previous chains, so this cannot
        double-arm even when old TCP timers are still in flight.  The
        generation bump makes completions of the forgotten work stale:
        on the live-restart path their ``done`` closures may still fire,
        and without the stamp they would drive ``_executing`` negative
        and emit replies for requests this incarnation never accepted."""
        if self._metrics is not None:
            self._metrics.queue_depth.dec(len(self._queue))
            self._metrics.executing.dec(self._executing)
        self._queue.clear()
        self._queued_by_class = [0, 0, 0]
        self._executing = 0
        self._generation += 1
        # coalesced waiters were joined to computes this incarnation no
        # longer owns; their clients time out and retry, same as any
        # reply lost to the crash
        self._inflight.clear()
        # in-flight DAGs die with their internal requests; releasing
        # their retained handle keys keeps refcounts generation-safe
        # (the *objects* survive — a restart is an in-process hiccup,
        # not a memory loss)
        self._abandon_dags()
        # the old generation's in-flight process jobs are stale by the
        # bump above; releasing the pool stops a restart storm from
        # accumulating orphaned children (it reopens lazily on use)
        self.shutdown_executors()
        self.registered = False
        self._deadlines.clear()
        self.on_bind()

    def on_shutdown(self) -> None:
        """Teardown path (crash or transport close): release the process
        executor and the job store's file handle.  Both reopen lazily,
        so a revived incarnation keeps working.  The memory result cache
        dies here too — this hook models process death (unlike
        ``on_restart``'s in-process hiccup), and a revived server must
        re-warm from the persistent store, not from ghost memory."""
        self.shutdown_executors()
        self.result_cache.clear()
        # resident objects are process memory: pins, refcounts and all
        # die here.  Clients re-submit with payloads when they next hit
        # the typed missing_object error.
        self._abandon_dags()
        self.objects.clear()
        if self._store is not None:
            self._store.close()
            self._store = None

    def _abandon_dags(self) -> None:
        """Drop every in-flight DAG run, releasing its handle refs."""
        for run in self._dag_runs.values():
            for key in run.retained:
                self.objects.release(key)
        self._dag_runs.clear()

    def _register(self) -> None:
        # with a fleet, an unacked registration rotates to the next agent
        # instead of leaving the server invisible forever; one agent
        # keeps the original fire-and-forget behaviour (the periodic
        # re-register is the recovery path there)
        if len(self._agents) > 1:
            self._deadlines.arm(
                "register", self.cfg.register_timeout,
                self._register_timed_out,
            )
        self.node.send(
            self.agent_address,
            RegisterServer(
                server_id=self.server_id,
                host=self.host,
                mflops=self.mflops,
                problems_pdl=render_pdl(self.registry.specs()),
                slots=self.cfg.max_concurrent,
            ),
        )

    def _workload_tick(self) -> None:
        assert self.reporter is not None
        self.reporter.tick(self.node.now())

    def _broadcast_workload(self, value: float) -> None:
        self.node.send(
            self.agent_address,
            WorkloadReport(
                server_id=self.server_id,
                workload=value,
                inflight=self._executing,
            ),
        )

    def _trace(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.log(self.node.now(), self.node.address, kind, **fields)

    # ------------------------------------------------------------------
    def _register_timed_out(self) -> None:
        if self.registered:
            return  # a late re-register raced an earlier ack; all is well
        failed = self._agents.pop(0)
        self._agents.append(failed)
        self.agent_failovers += 1
        if self._metrics is not None:
            self._metrics.agent_failovers.inc()
        self._trace(
            "agent_failover", from_agent=failed, to_agent=self._agents[0]
        )
        self._register()

    @handles(RegisterAck)
    def _handle_register_ack(self, src: str, msg: RegisterAck) -> None:
        self._deadlines.cancel("register")
        self.registered = msg.ok
        if not msg.ok:
            self._trace("register_rejected", detail=msg.detail)

    @handles(Ping)
    def _handle_ping(self, src: str, msg: Ping) -> None:
        self.node.send(src, Pong(nonce=msg.nonce))

    # ------------------------------------------------------------------
    # resident-object store (ObjectRef / DataHandle)
    # ------------------------------------------------------------------
    @property
    def cached_objects(self) -> int:
        return len(self.objects)

    @property
    def cached_bytes(self) -> int:
        return self.objects.nbytes

    def _handle_for(self, obj) -> DataHandle:
        return obj.handle(server_id=self.server_id, address=self.node.address)

    @handles(StoreObject)
    def _store_object(self, src: str, msg: StoreObject) -> None:
        try:
            # client-stored operands are *pinned*: immune to TTL and
            # eviction until an explicit delete (the sequencing contract)
            obj = self.objects.put(msg.key, msg.value, pin=True)
        except NetSolveError as exc:
            if self._metrics is not None:
                self._metrics.store_rejects.inc()
            self._trace("store_rejected", key=msg.key, detail=str(exc))
            self.node.send(src, StoreAck(key=msg.key, ok=False, detail=str(exc)))
            return
        if self._metrics is not None:
            self._metrics.stores.inc()
        self._trace("object_stored", key=msg.key, nbytes=obj.nbytes)
        self.node.send(
            src,
            StoreAck(
                key=msg.key, ok=True, nbytes=obj.nbytes,
                handle=self._handle_for(obj),
            ),
        )

    @handles(DeleteObject)
    def _delete_object(self, src: str, msg: DeleteObject) -> None:
        # idempotent: deleting an absent key still acks ok (nbytes=0)
        if self._metrics is not None:
            self._metrics.deletes.inc()
        freed = self.objects.delete(msg.key)
        self.node.send(
            src,
            StoreAck(
                key=msg.key,
                ok=True,
                nbytes=freed,
                detail="" if freed else "absent",
            ),
        )

    @handles(FetchObject)
    def _fetch_object(self, src: str, msg: FetchObject) -> None:
        """Pull a resident object's bytes on demand (the deferred half
        of ``keep_result``)."""
        reply_to = msg.reply_to or src
        obj = self.objects.entry(msg.key)
        if obj is None:
            self.objects.misses += 1
            if self._metrics is not None:
                self._metrics.missing_objects.inc()
            self._trace("object_fetch_missed", key=msg.key)
            self.node.send(
                reply_to,
                ObjectPayload(
                    key=msg.key,
                    ok=False,
                    detail=f"object {msg.key!r} not resident",
                    error_kind="missing_object",
                ),
            )
            return
        if self._metrics is not None:
            self._metrics.object_fetches.inc()
        self._trace("object_fetched", key=msg.key, nbytes=obj.nbytes)
        self.node.send(
            reply_to, ObjectPayload(key=msg.key, ok=True, value=obj.value)
        )

    def _resolve_refs(self, inputs: tuple) -> list:
        """Swap every reference for its resident value.

        Raises the *typed* :class:`MissingObjectError` naming every
        unresolvable key at once — callers turn it into a retryable
        ``error_kind="missing_object"`` reply, never a kernel error.
        """
        resolved = []
        missing = []
        for value in inputs:
            if isinstance(value, (ObjectRef, DataHandle)):
                obj = self.objects.entry(value.key)
                if obj is None:
                    missing.append(value.key)
                else:
                    resolved.append(obj.value)
            else:
                resolved.append(value)
        if missing:
            self.objects.misses += len(missing)
            if self._metrics is not None:
                self._metrics.missing_objects.inc(len(missing))
            raise MissingObjectError(*missing)
        return resolved

    # ------------------------------------------------------------------
    # content-addressed result cache + persistent job store
    # ------------------------------------------------------------------
    def _job_store(self) -> Optional[JobStore]:
        if not self.cfg.store_path:
            return None
        if self._store is None:
            self._store = JobStore(self.cfg.store_path)
        return self._store

    def _solve_digest_folded(
        self, problem: str, raw_inputs: tuple, coerced, env
    ) -> Optional[str]:
        """Request digest with references *folded*, not materialized.

        Reference positions contribute the referenced object's stored
        content digest (O(1) per request, however large the resident
        value); payload positions contribute their canonicalized bytes.
        A handle-bearing request therefore digests to the same key the
        submitting client computed from its ``DataHandle.digest``
        metadata, so repeats hit the result cache and the agent's hot
        cache without re-hashing resident megabytes.  Ref-free requests
        take the historical value-digest path, bit-identical to before.
        """
        if not any(
            isinstance(v, (ObjectRef, DataHandle)) for v in raw_inputs
        ):
            return solve_digest(problem, coerced, env)
        # normalize both ref flavours to ObjectRef so the folded digest
        # depends on the resident *content*, not on which reference type
        # (or possibly-stale carried digest) named it
        folded = [
            ObjectRef(orig.key)
            if isinstance(orig, (ObjectRef, DataHandle)) else value
            for orig, value in zip(raw_inputs, coerced)
        ]
        return solve_digest(
            problem, folded, env, resolve_ref=self.objects.digest_of
        )

    def _request_digest(self, msg: SolveRequest) -> Optional[str]:
        """Content digest of one request, or ``None`` (not addressable).

        Digests cover the *canonicalized* inputs — arrays coerced, refs
        folded to their stored digests — so a strided client-side view
        and the contiguous copy another client sent hash identically.
        """
        if msg.problem not in self.registry:
            return None
        spec = self.registry.spec(msg.problem)
        try:
            inputs = self._resolve_refs(msg.inputs)
            coerced, env = validate_inputs(spec, inputs)
        except NetSolveError:
            return None  # the normal path owns the error reply
        return self._solve_digest_folded(msg.problem, msg.inputs, coerced, env)

    def _dispatch_reply(self, reply_to: str, reply) -> None:
        """Deliver a reply: over the wire, or — for DAG-internal
        requests, whose ``reply_to`` carries the ``@dag/`` prefix —
        straight back into the DAG executor, no transport involved."""
        if reply_to.startswith(_DAG_PREFIX):
            self._on_dag_internal_reply(reply_to, reply)
        else:
            self.node.send(reply_to, reply)

    def _keep_outputs(
        self, reply_to: str, request_id: int, outputs: tuple
    ) -> tuple:
        """Leave ``outputs`` resident, returning one DataHandle each.

        An output the store cannot admit (budget exhausted even after
        evicting idle entries, or unencodable) degrades gracefully to
        the value itself — the client sees a mixed outputs tuple and
        still makes progress.
        """
        kept = []
        for index, value in enumerate(outputs):
            key = f"res/{reply_to}/{request_id}/{index}"
            if len(key) > 128:  # pragma: no cover - absurd address
                key = key[:96] + format(abs(hash(key)), "x")
            try:
                obj = self.objects.put(key, value)
            except NetSolveError:
                kept.append(value)
                continue
            kept.append(self._handle_for(obj))
            if self._metrics is not None:
                self._metrics.kept_results.inc()
        self._trace(
            "result_kept", request_id=request_id, outputs=len(outputs)
        )
        return tuple(kept)

    def _reply_cached(
        self,
        reply_to: str,
        request_id: int,
        outputs: tuple,
        nbytes: int,
        *,
        keep: bool = False,
    ) -> None:
        """Send one cache-served reply, with the bookkeeping a fresh
        compute would have done (minus the compute)."""
        self.requests_served += 1
        if self._metrics is not None:
            self._metrics.ok.inc()
            self._metrics.cache_hits.inc()
            self._metrics.cache_bytes_saved.inc(nbytes)
        self._trace("cache_hit", request_id=request_id, nbytes=nbytes)
        if keep:
            outputs = self._keep_outputs(reply_to, request_id, outputs)
        self._dispatch_reply(
            reply_to,
            SolveReply(
                request_id=request_id,
                ok=True,
                outputs=outputs,
                compute_seconds=0.0,
                cached=True,
            ),
        )

    def _cache_probe(self, src: str, msg: SolveRequest) -> bool:
        """Try to answer a request before admission.

        A hit skips the queue, the worker pool and the kernel entirely:
        the only cost left is the reply transfer.  A memory miss falls
        through to the persistent store (the restart-warming path) and
        promotes any hit back into the memory cache.  Returns True when
        a reply was sent.
        """
        digest = self._request_digest(msg)
        if digest is None:
            return False
        entry = self.result_cache.get(digest)
        if entry is None:
            store = self._job_store()
            if store is not None:
                blob = store.lookup_digest(digest)
                if blob is not None:
                    try:
                        outputs = tuple(decode_value(blob))
                    except NetSolveError:  # pragma: no cover - corrupt row
                        outputs = None
                    if outputs is not None:
                        entry = (outputs, len(blob))
                        self.result_cache.put(digest, entry)
                        if self._metrics is not None:
                            self._metrics.store_hits.inc()
        if entry is None:
            if self._metrics is not None:
                self._metrics.cache_misses.inc()
            return False
        outputs, nbytes = entry
        if self._metrics is not None:
            self._metrics.requests.inc()
        self._reply_cached(
            msg.reply_to or src, msg.request_id, outputs, nbytes,
            keep=msg.keep_result,
        )
        return True

    def _record_result(
        self,
        reply_to: str,
        request_id: int,
        problem: str,
        digest: Optional[str],
        outputs: tuple,
        elapsed: float,
        *,
        publish: bool = True,
    ) -> None:
        """Post-compute bookkeeping for one fresh successful result:
        memory-cache insert, hot publication to the agent, job-store row.
        ``publish=False`` (coalesced waiters) records the job row only —
        the leader already owns the cache entry and the publication.
        Unencodable outputs are skipped wholesale — they could not have
        crossed the wire either."""
        store = self._job_store()
        if digest is None and store is None:
            return
        if store is not None:
            buf = bytearray()
            try:
                encode_value(outputs, buf)
            except NetSolveError:  # pragma: no cover - registry outputs
                return
            blob = bytes(buf)
            nbytes = len(blob)
        else:
            blob = b""
            try:
                nbytes = encoded_size(outputs)
            except NetSolveError:  # pragma: no cover - registry outputs
                return
        if digest is not None and publish:
            if self.result_cache.enabled:
                evictions_before = self.result_cache.evictions
                self.result_cache.put(digest, (outputs, nbytes))
                if self._metrics is not None:
                    delta = self.result_cache.evictions - evictions_before
                    if delta:
                        self._metrics.cache_evictions.inc(delta)
            if 0 < nbytes <= self.cfg.cache_publish_bytes:
                self.node.send(
                    self.agent_address,
                    CacheInsert(
                        digest=digest,
                        problem=problem,
                        outputs=outputs,
                        nbytes=nbytes,
                    ),
                )
        if store is not None:
            store.record(
                reply_to,
                request_id,
                digest=digest or "",
                problem=problem,
                ok=True,
                payload=blob,
                compute_seconds=elapsed,
                created=self.node.now(),
            )
            if self._metrics is not None:
                self._metrics.store_records.inc()

    def _record_failure(
        self,
        reply_to: str,
        request_id: int,
        problem: str,
        digest: Optional[str],
        detail: str,
        elapsed: float,
    ) -> None:
        store = self._job_store()
        if store is None:
            return
        store.record(
            reply_to,
            request_id,
            digest=digest or "",
            problem=problem,
            ok=False,
            detail=detail,
            compute_seconds=elapsed,
            created=self.node.now(),
        )
        if self._metrics is not None:
            self._metrics.store_records.inc()

    @handles(FetchResult)
    def _fetch_result(self, src: str, msg: FetchResult) -> None:
        """Recover a finished result from the job store by request id."""
        if self._metrics is not None:
            self._metrics.fetches.inc()
        store = self._job_store()
        if store is None:
            self.node.send(
                src,
                ResultStatus(
                    request_id=msg.request_id,
                    status="unsupported",
                    detail="server runs without a persistent store",
                ),
            )
            return
        row = store.fetch(msg.client or src, msg.request_id)
        if row is None:
            self.node.send(
                src,
                ResultStatus(request_id=msg.request_id, status="unknown"),
            )
            return
        if not row.ok:
            self.node.send(
                src,
                ResultStatus(
                    request_id=msg.request_id,
                    status="failed",
                    detail=row.detail,
                    compute_seconds=row.compute_seconds,
                ),
            )
            return
        try:
            outputs = tuple(decode_value(row.payload))
        except NetSolveError:  # pragma: no cover - corrupt row
            self.node.send(
                src,
                ResultStatus(
                    request_id=msg.request_id,
                    status="failed",
                    detail="stored payload is unreadable",
                ),
            )
            return
        self._trace("result_fetched", request_id=msg.request_id)
        self.node.send(
            src,
            ResultStatus(
                request_id=msg.request_id,
                status="done",
                outputs=outputs,
                compute_seconds=row.compute_seconds,
            ),
        )

    # ------------------------------------------------------------------
    @handles(SolveRequest)
    def _enqueue(self, src: str, msg: SolveRequest) -> None:
        if (
            self.result_cache.enabled or self.cfg.store_path
        ) and self._cache_probe(src, msg):
            return
        if self._executing >= self.cfg.max_concurrent:
            depth = len(self._queue)
            ci = qos_index(msg.qos)
            # DAG-internal requests bypass the shed: their graph was
            # admitted as a whole, and a Busy would have nowhere to go
            if src != _DAG_SRC and self.cfg.max_queue > 0:
                # bounded admission: refuse instead of queueing forever;
                # the client falls through to its next candidate.  A
                # class may claim at most its configured share of the
                # queue, so background traffic sheds before it crowds
                # out interactive traffic.
                limit = ceil(self.cfg.max_queue * self.cfg.qos_shed[ci])
                if depth >= self.cfg.max_queue:
                    detail = f"queue full ({depth}/{self.cfg.max_queue})"
                elif self._queued_by_class[ci] >= limit:
                    detail = (
                        f"qos {QOS_CLASSES[ci]} share full "
                        f"({self._queued_by_class[ci]}/{limit})"
                    )
                else:
                    detail = None
                if detail is not None:
                    self.requests_shed += 1
                    self.sheds_by_class[QOS_CLASSES[ci]] += 1
                    if self._metrics is not None:
                        self._metrics.sheds.inc()
                    self._trace(
                        "request_shed",
                        request_id=msg.request_id,
                        depth=depth,
                        qos=QOS_CLASSES[ci],
                    )
                    self.node.send(
                        msg.reply_to or src,
                        Busy(
                            request_id=msg.request_id,
                            queue_depth=depth,
                            detail=detail,
                        ),
                    )
                    return
            now = self.node.now()
            deadline = now + self.cfg.qos_deadlines[ci]
            heapq.heappush(
                self._queue,
                (deadline, next(self._queue_seq), src, msg, now),
            )
            self._queued_by_class[ci] += 1
            if len(self._queue) > self.peak_queue:
                self.peak_queue = len(self._queue)
                if self._metrics is not None and (
                    self.peak_queue > self._metrics.peak_queue.value
                ):
                    # registry-wide max: never lowered by a quieter server
                    self._metrics.peak_queue.set(self.peak_queue)
            if self._metrics is not None:
                self._metrics.queued.inc()
                self._metrics.queue_depth.inc()
            self._trace(
                "request_queued", request_id=msg.request_id, depth=len(self._queue)
            )
            return
        self._start(src, msg)

    def _start(self, src: str, msg: SolveRequest) -> None:
        reply_to = msg.reply_to or src
        if self._metrics is not None:
            self._metrics.requests.inc()
        if msg.problem not in self.registry:
            self.requests_failed += 1
            if self._metrics is not None:
                self._metrics.errors.inc()
            self._dispatch_reply(
                reply_to,
                SolveReply(
                    request_id=msg.request_id,
                    ok=False,
                    detail=f"problem {msg.problem!r} not installed here",
                ),
            )
            self._drain()
            return
        spec = self.registry.spec(msg.problem)
        try:
            inputs = self._resolve_refs(msg.inputs)
            coerced, env = validate_inputs(spec, inputs)
            flops = spec.flops(env)
        except MissingObjectError as exc:
            # fail fast, *typed*: a referenced key is gone (crash wiped
            # the store, TTL lapsed, ...).  The client re-submits with
            # the payload instead of treating this as a server fault.
            self.requests_failed += 1
            if self._metrics is not None:
                self._metrics.errors.inc()
            self._trace(
                "missing_object",
                request_id=msg.request_id,
                keys=",".join(exc.keys),
            )
            self._dispatch_reply(
                reply_to,
                SolveReply(
                    request_id=msg.request_id,
                    ok=False,
                    detail=str(exc),
                    error_kind="missing_object",
                    missing=exc.keys,
                ),
            )
            self._drain()
            return
        except NetSolveError as exc:
            self.requests_failed += 1
            if self._metrics is not None:
                self._metrics.errors.inc()
            self._dispatch_reply(
                reply_to,
                SolveReply(request_id=msg.request_id, ok=False, detail=str(exc)),
            )
            self._drain()
            return

        digest = None
        if self.result_cache.enabled or self.cfg.store_path:
            digest = self._solve_digest_folded(
                msg.problem, msg.inputs, coerced, env
            )
        if digest is not None:
            # re-check: an identical result may have landed while this
            # request waited in the queue (peek: the admission-time miss
            # was already counted; stats stay one-to-one with requests)
            entry = self.result_cache.peek(digest)
            if entry is not None:
                outputs, nbytes = entry
                self._reply_cached(
                    reply_to, msg.request_id, outputs, nbytes,
                    keep=msg.keep_result,
                )
                self._drain()
                return
            waiters = self._inflight.get(digest)
            if waiters is not None:
                # an identical compute is already running: join it
                # instead of burning a slot on the same answer
                waiters.append((reply_to, msg.request_id, msg.keep_result))
                self.coalesced_requests += 1
                if self._metrics is not None:
                    self._metrics.coalesced.inc()
                self._trace(
                    "request_coalesced",
                    request_id=msg.request_id,
                    digest=digest,
                )
                return
            if self.result_cache.enabled:
                self._inflight[digest] = []

        self._executing += 1
        generation = self._generation
        if self._metrics is not None:
            self._metrics.executing.inc()
        self._trace(
            "request_started",
            request_id=msg.request_id,
            problem=msg.problem,
            flops=flops,
        )

        def run() -> tuple:
            return self.registry.execute(msg.problem, coerced)

        def done(result, elapsed: float) -> None:
            if generation != self._generation:
                # completion of work a restart already forgot: the new
                # incarnation zeroed _executing and owes no reply
                self.stale_completions += 1
                if self._metrics is not None:
                    self._metrics.stale_drops.inc()
                self._trace(
                    "stale_completion_dropped", request_id=msg.request_id
                )
                return
            self._executing -= 1
            if self._metrics is not None:
                self._metrics.executing.dec()
                self._metrics.compute_seconds.observe(elapsed)
            waiters = (
                self._inflight.pop(digest, []) if digest is not None else []
            )
            if isinstance(result, BaseException):
                detail = f"{type(result).__name__}: {result}"
                self.requests_failed += 1
                if self._metrics is not None:
                    self._metrics.errors.inc()
                self._trace(
                    "request_error",
                    request_id=msg.request_id,
                    detail=str(result),
                )
                self._dispatch_reply(
                    reply_to,
                    SolveReply(
                        request_id=msg.request_id,
                        ok=False,
                        detail=detail,
                        compute_seconds=elapsed,
                    ),
                )
                self._record_failure(
                    reply_to, msg.request_id, msg.problem, digest,
                    detail, elapsed,
                )
                for w_reply, w_rid, _w_keep in waiters:
                    # joined requests share the leader's fate; each
                    # client retries independently
                    self.requests_failed += 1
                    if self._metrics is not None:
                        self._metrics.errors.inc()
                    self._dispatch_reply(
                        w_reply,
                        SolveReply(
                            request_id=w_rid,
                            ok=False,
                            detail=detail,
                            compute_seconds=elapsed,
                        ),
                    )
                    self._record_failure(
                        w_reply, w_rid, msg.problem, digest, detail, elapsed
                    )
            else:
                outputs = tuple(result)
                self.requests_served += 1
                if self._metrics is not None:
                    self._metrics.ok.inc()
                self._trace(
                    "request_done",
                    request_id=msg.request_id,
                    compute_seconds=elapsed,
                )
                sent = outputs
                if msg.keep_result:
                    sent = self._keep_outputs(
                        reply_to, msg.request_id, outputs
                    )
                self._dispatch_reply(
                    reply_to,
                    SolveReply(
                        request_id=msg.request_id,
                        ok=True,
                        outputs=sent,
                        compute_seconds=elapsed,
                    ),
                )
                self._record_result(
                    reply_to, msg.request_id, msg.problem, digest,
                    outputs, elapsed,
                )
                for w_reply, w_rid, w_keep in waiters:
                    # compute_seconds=0: the waiter paid no compute, and
                    # charging it the leader's would poison the client's
                    # transfer accounting (elapsed - compute < 0)
                    self.requests_served += 1
                    if self._metrics is not None:
                        self._metrics.ok.inc()
                    self._trace("request_done", request_id=w_rid)
                    w_sent = (
                        self._keep_outputs(w_reply, w_rid, outputs)
                        if w_keep else outputs
                    )
                    self._dispatch_reply(
                        w_reply,
                        SolveReply(
                            request_id=w_rid,
                            ok=True,
                            outputs=w_sent,
                            compute_seconds=0.0,
                            cached=True,
                        ),
                    )
                    self._record_result(
                        w_reply, w_rid, msg.problem, digest, outputs, 0.0,
                        publish=False,
                    )
            self._drain()

        if self._use_process_lane():
            self._submit_process(msg.problem, inputs, done)
            return
        self.node.compute(flops, run, done)

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _use_process_lane(self) -> bool:
        return (
            self.cfg.executor == "process"
            and getattr(self.node, "supports_process_pool", False)
        )

    def _submit_process(self, problem: str, inputs: list, done) -> None:
        """Run one request on the opt-in child-process pool.

        Its completion fires on an executor-owned thread, so it is
        marshalled back through ``node.post``: ``done`` then runs under
        the node's lock like every other component entry point (or is
        dropped when the node has gone down in the meantime).
        """
        pool = self._process_pool
        if pool is None:
            pool = ProcessPool(self.cfg.workers or self.cfg.max_concurrent)
            self._process_pool = pool

        def marshal(result, elapsed: float) -> None:
            self.node.post(lambda: done(result, elapsed))

        pool.submit(problem, inputs, marshal)

    def shutdown_executors(self) -> None:
        """Release the process pool, if one was ever created.

        Idempotent.  The thread compute pool belongs to the transport
        node and shuts down with it; only the opt-in process executor is
        the server's own to tear down.
        """
        if self._process_pool is not None:
            self._process_pool.shutdown()
            self._process_pool = None

    # ------------------------------------------------------------------
    # same-problem micro-batching
    # ------------------------------------------------------------------
    def _gather_batch(self, src: str, msg: SolveRequest):
        """Collect queued requests that can share a stacked kernel call.

        Returns ``None`` — meaning *run the plain single-request path* —
        unless batching is enabled, the problem has a batch handler, and
        at least one shape-compatible same-problem request is waiting.
        Otherwise removes the compatible mates from the queue (others
        keep their FIFO positions) and returns ``(src, msg, flops,
        digest)`` tuples for the head plus its mates (digest ``None``
        when result caching and the job store are both off).
        """
        if self.cfg.batch_max <= 1 or not self._queue:
            return None
        problem = msg.problem
        if problem not in self.registry or not self.registry.has_batch(problem):
            return None
        if msg.keep_result or any(
            isinstance(v, (ObjectRef, DataHandle)) for v in msg.inputs
        ):
            return None  # referenced/kept requests keep 1-at-a-time semantics
        spec = self.registry.spec(problem)
        try:
            coerced, env = validate_inputs(spec, list(msg.inputs))
            flops = spec.flops(env)
        except NetSolveError:
            return None  # invalid head: the single path owns the error reply
        digesting = self.result_cache.enabled or bool(self.cfg.store_path)

        def member_digest(coerced_inputs, member_env):
            if not digesting:
                return None
            return solve_digest(problem, coerced_inputs, member_env)

        signature = (env, _batch_signature(coerced))
        members = [(src, msg, flops, member_digest(coerced, env), coerced)]
        kept: list = []
        now = self.node.now()
        # walk in drain (deadline) order so member selection matches
        # what successive pops would have seen; a sorted list satisfies
        # the heap invariant, so ``kept`` needs no re-heapify
        for entry in sorted(self._queue):
            _deadline, _seq, q_src, q_msg, t_queued = entry
            if (
                len(members) >= self.cfg.batch_max
                or q_msg.problem != problem
                or q_msg.keep_result
                or any(
                    isinstance(v, (ObjectRef, DataHandle))
                    for v in q_msg.inputs
                )
            ):
                kept.append(entry)
                continue
            try:
                q_coerced, q_env = validate_inputs(spec, list(q_msg.inputs))
                q_flops = spec.flops(q_env)
            except NetSolveError:
                kept.append(entry)
                continue
            if (q_env, _batch_signature(q_coerced)) != signature:
                kept.append(entry)
                continue
            members.append(
                (q_src, q_msg, q_flops, member_digest(q_coerced, q_env),
                 q_coerced)
            )
            self._queued_by_class[qos_index(q_msg.qos)] -= 1
            if self._metrics is not None:
                self._metrics.queue_depth.dec()
                self._metrics.queue_wait_seconds.observe(now - t_queued)
        if len(members) == 1:
            return None
        self._queue = kept
        return members

    def _start_batch(self, members: list) -> None:
        """Execute a gathered batch in one compute, fan replies back out.

        The batch occupies a *single* slot and a single generation stamp:
        a restart mid-batch makes the whole completion stale, dropping
        every member (each of which the client retries independently).
        """
        problem = members[0][1].problem
        total_flops = sum(m[2] for m in members)
        self.batches += 1
        self.batched_requests += len(members)
        if self._metrics is not None:
            self._metrics.requests.inc(len(members))
            self._metrics.batches.inc()
            self._metrics.batched_requests.inc(len(members))
            self._metrics.executing.inc()
        self._executing += 1
        generation = self._generation
        self._trace(
            "batch_started",
            problem=problem,
            size=len(members),
            flops=total_flops,
        )
        inputs_list = [m[4] for m in members]

        def run():
            return self.registry.execute_batch(problem, inputs_list)

        def done(result, elapsed: float) -> None:
            if generation != self._generation:
                # a restart forgot the whole batch: every member is stale
                self.stale_completions += len(members)
                if self._metrics is not None:
                    self._metrics.stale_drops.inc(len(members))
                self._trace(
                    "stale_completion_dropped",
                    problem=problem,
                    batch=len(members),
                )
                return
            self._executing -= 1
            if self._metrics is not None:
                self._metrics.executing.dec()
                self._metrics.compute_seconds.observe(elapsed)
            if isinstance(result, BaseException):
                # execute_batch itself blew up before its per-item
                # fallback could run: every member shares the error
                items = [result] * len(members)
            else:
                items = list(result)
            for (m_src, m_msg, _flops, m_digest, _in), item in zip(members, items):
                reply_to = m_msg.reply_to or m_src
                if isinstance(item, BaseException):
                    detail = f"{type(item).__name__}: {item}"
                    self.requests_failed += 1
                    if self._metrics is not None:
                        self._metrics.errors.inc()
                    self._trace(
                        "request_error",
                        request_id=m_msg.request_id,
                        detail=str(item),
                    )
                    self._dispatch_reply(
                        reply_to,
                        SolveReply(
                            request_id=m_msg.request_id,
                            ok=False,
                            detail=detail,
                            compute_seconds=elapsed,
                        ),
                    )
                    self._record_failure(
                        reply_to, m_msg.request_id, problem, m_digest,
                        detail, elapsed,
                    )
                else:
                    outputs = tuple(item)
                    self.requests_served += 1
                    if self._metrics is not None:
                        self._metrics.ok.inc()
                    self._trace(
                        "request_done",
                        request_id=m_msg.request_id,
                        compute_seconds=elapsed,
                    )
                    self._dispatch_reply(
                        reply_to,
                        SolveReply(
                            request_id=m_msg.request_id,
                            ok=True,
                            outputs=outputs,
                            compute_seconds=elapsed,
                        ),
                    )
                    self._record_result(
                        reply_to, m_msg.request_id, problem, m_digest,
                        outputs, elapsed,
                    )
            self._drain()

        self.node.compute(total_flops, run, done)

    def _drain(self) -> None:
        while self._queue and self._executing < self.cfg.max_concurrent:
            _deadline, _seq, src, msg, t_queued = heapq.heappop(self._queue)
            self._queued_by_class[qos_index(msg.qos)] -= 1
            if self._metrics is not None:
                self._metrics.queue_depth.dec()
                self._metrics.queue_wait_seconds.observe(
                    self.node.now() - t_queued
                )
            batch = self._gather_batch(src, msg)
            if batch is None:
                self._start(src, msg)
            else:
                self._start_batch(batch)

    # ------------------------------------------------------------------
    # request DAGs
    # ------------------------------------------------------------------
    @handles(SubmitDag)
    def _handle_submit_dag(self, src: str, msg: SubmitDag) -> None:
        """Admit a dependency graph of solves.

        Validation is all-or-nothing (bad shape, unknown/self/cyclic
        references, size cap) — a rejected DAG never executes a node.
        Accepted nodes run through the ordinary ``_enqueue`` machinery
        (cache probe, admission, batching, generation stamps) with an
        internal reply route, so every single-request behaviour — result
        caching, coalescing, typed missing-object errors — applies per
        node unchanged.
        """
        reply_to = msg.reply_to or src

        def reject(detail: str) -> None:
            self._trace("dag_rejected", dag_id=msg.dag_id, detail=detail)
            self.node.send(
                reply_to,
                DagReply(dag_id=msg.dag_id, ok=False, detail=detail),
            )

        if not msg.nodes:
            reject("empty dag")
            return
        if len(msg.nodes) > self.cfg.dag_max_nodes:
            reject(
                f"dag too large ({len(msg.nodes)} > "
                f"{self.cfg.dag_max_nodes} nodes)"
            )
            return
        nodes: dict[str, dict] = {}
        order: list[str] = []
        for raw in msg.nodes:
            if not isinstance(raw, dict):
                reject("node is not a mapping")
                return
            node_id = raw.get("id")
            problem = raw.get("problem")
            if not isinstance(node_id, str) or not node_id:
                reject("node without an id")
                return
            if node_id in nodes:
                reject(f"duplicate node id {node_id!r}")
                return
            if not isinstance(problem, str) or not problem:
                reject(f"node {node_id!r} without a problem")
                return
            nodes[node_id] = {
                "id": node_id,
                "problem": problem,
                "inputs": tuple(raw.get("inputs") or ()),
                "keep": bool(raw.get("keep", False)),
                "emit": bool(raw.get("emit", False)),
            }
            order.append(node_id)
        deps = {nid: set() for nid in order}
        for nid in order:
            for ref in _node_refs(nodes[nid]["inputs"]):
                if ref.node not in nodes:
                    reject(
                        f"node {nid!r} references unknown node {ref.node!r}"
                    )
                    return
                if ref.node == nid:
                    reject(f"node {nid!r} references itself")
                    return
                deps[nid].add(ref.node)
        succs = {nid: set() for nid in order}
        for nid, ds in deps.items():
            for dep in ds:
                succs[dep].add(nid)
        # Kahn's algorithm, for the cycle check only (execution order
        # falls out of dependency-readiness at completion time)
        indegree = {nid: len(deps[nid]) for nid in order}
        frontier = [nid for nid in order if indegree[nid] == 0]
        visited = 0
        while frontier:
            nid = frontier.pop()
            visited += 1
            for succ in succs[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if visited != len(order):
            reject("dependency cycle")
            return

        token = next(self._dag_tokens)
        run = _DagRun(token, msg.dag_id, reply_to, nodes, order, deps, succs)
        self._dag_runs[token] = run
        self.dags_accepted += 1
        if self._metrics is not None:
            self._metrics.dags.inc()
        self._trace("dag_accepted", dag_id=msg.dag_id, nodes=len(order))
        self._dag_schedule(run)

    def _dag_schedule(self, run: _DagRun) -> None:
        """Issue an internal SolveRequest for every newly ready node."""
        for nid in run.order:
            if (
                nid in run.started
                or nid not in run.unfinished
                or any(dep in run.unfinished for dep in run.deps[nid])
            ):
                continue
            run.started.add(nid)
            node = run.nodes[nid]
            try:
                inputs = tuple(
                    _substitute(value, run.results)
                    for value in node["inputs"]
                )
            except NetSolveError as exc:
                self._dag_fail(run, nid, detail=str(exc))
                return
            self._trace("dag_node_started", dag_id=run.dag_id, node=nid)
            self._enqueue(
                _DAG_SRC,
                SolveRequest(
                    request_id=next(self._dag_rids),
                    problem=node["problem"],
                    inputs=inputs,
                    reply_to=f"{_DAG_PREFIX}{run.token}/{nid}",
                    keep_result=node["keep"],
                ),
            )
            if run.token not in self._dag_runs:
                return  # a synchronous completion already ended the run

    def _on_dag_internal_reply(self, reply_to: str, reply) -> None:
        try:
            _tag, token_text, node_id = reply_to.split("/", 2)
            token = int(token_text)
        except ValueError:  # pragma: no cover - addresses are our own
            return
        run = self._dag_runs.get(token)
        if run is None or node_id not in run.unfinished:
            # the run failed or was abandoned (restart/shutdown); this
            # is a sibling's late completion — nothing owes a reply
            return
        if isinstance(reply, SolveReply) and reply.ok:
            self._dag_node_done(run, node_id, reply)
        elif isinstance(reply, SolveReply):
            self._dag_fail(
                run, node_id,
                detail=reply.detail,
                error_kind=reply.error_kind,
                missing=reply.missing,
            )
        else:  # pragma: no cover - internal requests bypass the shed
            self._dag_fail(run, node_id, detail="internal request refused")

    def _dag_node_done(self, run: _DagRun, node_id: str, reply) -> None:
        run.unfinished.discard(node_id)
        run.results[node_id] = reply.outputs
        for value in reply.outputs:
            if isinstance(value, DataHandle):
                # hold kept outputs for the rest of the run: a TTL lapse
                # mid-graph must not strand a successor's inputs
                try:
                    self.objects.retain(value.key)
                except MissingObjectError:  # pragma: no cover - same tick
                    pass
                else:
                    run.retained.append(value.key)
        self.dag_nodes_done += 1
        if self._metrics is not None:
            self._metrics.dag_nodes.inc()
        self._trace("dag_node_done", dag_id=run.dag_id, node=node_id)
        self.node.send(
            run.reply_to,
            DagNodeDone(
                dag_id=run.dag_id,
                node=node_id,
                ok=True,
                compute_seconds=reply.compute_seconds,
                cached=reply.cached,
                remaining=len(run.unfinished),
            ),
        )
        if not run.unfinished:
            self._dag_finish(run)
        else:
            self._dag_schedule(run)

    def _dag_finish(self, run: _DagRun) -> None:
        emits = [nid for nid in run.order if run.nodes[nid]["emit"]]
        if not emits:
            # default: the graph's terminal nodes carry the answer
            emits = [nid for nid in run.order if not run.succs[nid]]
        outputs: list = []
        for nid in emits:
            outputs.extend(run.results.get(nid, ()))
        self._drop_run(run)
        self._trace("dag_done", dag_id=run.dag_id)
        self.node.send(
            run.reply_to,
            DagReply(dag_id=run.dag_id, ok=True, outputs=tuple(outputs)),
        )

    def _dag_fail(
        self,
        run: _DagRun,
        node_id: str,
        *,
        detail: str,
        error_kind: str = "",
        missing: tuple = (),
    ) -> None:
        run.unfinished.discard(node_id)
        self._trace(
            "dag_failed", dag_id=run.dag_id, node=node_id, detail=detail
        )
        self.node.send(
            run.reply_to,
            DagNodeDone(
                dag_id=run.dag_id,
                node=node_id,
                ok=False,
                detail=detail,
                remaining=len(run.unfinished),
            ),
        )
        self._drop_run(run)
        self.node.send(
            run.reply_to,
            DagReply(
                dag_id=run.dag_id,
                ok=False,
                detail=detail,
                failed_node=node_id,
                error_kind=error_kind,
                missing=tuple(missing),
            ),
        )

    def _drop_run(self, run: _DagRun) -> None:
        for key in run.retained:
            self.objects.release(key)
        self._dag_runs.pop(run.token, None)

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def executing(self) -> int:
        return self._executing
