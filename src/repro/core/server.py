"""The computational server.

Registers its problem catalogue with the agent (as PDL text on the
wire), reports workload under the hysteretic policy, and serves
``SolveRequest``\\ s: validate, execute through the problem registry as a
CPU job of the spec's advertised flop count, reply with outputs or a
structured error.  ``max_concurrent`` bounds simultaneous executions;
excess requests queue FIFO, mirroring the original's fork-per-request
server with a small process cap.

One pipeline serves every request.  A ``SolveRequest`` is *admitted*
(``_enqueue``: answered from the cache, shed, queued or started) and
from then on is a ``_Job``; it is *prepared* at most once (``_prepare``:
references resolved, inputs validated, flops sized, digest folded — or a
typed error stored), *started* (``_start``: settle a pre-compute failure
or a start-time cache hit, join an identical running compute, else run),
*run* (``_run``: one slot and one generation stamp for one request or a
stacked batch) and *settled* (``_settle``: the only place that counts,
traces, keeps outputs, builds the ``SolveReply``, publishes and
records).  ``_drain`` is the only loop; ``_start`` and ``_settle`` return
to it instead of re-entering it.  Single, batched, coalesced and cached
requests differ only in the data on the job — the table is in
docs/architecture.md, "Server request lifecycle".

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
burning a slot (stampede coalescing).  With ``store_path`` set, every
settled outcome — computed, cached or coalesced, success or failure — is
persisted to a SQLite :class:`~repro.store.JobStore` keyed
``(reply_to, request_id)`` so it survives restarts and can be recovered
with ``FetchResult``; a memory-cache miss falls through to the store by
digest, warming the cache after a reboot.
"""

from __future__ import annotations

import heapq
import itertools
from hashlib import blake2b
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
    DataHandle,
    DeleteObject,
    FetchObject,
    FetchResult,
    ObjectPayload,
    Ping,
    Pong,
    RegisterAck,
    RegisterServer,
    ResultStatus,
    SolveReply,
    SolveRequest,
    StoreAck,
    StoreObject,
    WorkloadReport,
)
from ..runtime import DeadlineTable, DispatchComponent, Periodic, handles
from ..store import HandleStore, JobStore, ResultCache, solve_digest
from ..trace.events import EventLog
from ..trace.instruments import Metric, MetricsRegistry, track
from .executors import ProcessPool
from .qos import QOS_CLASSES, qos_index
from .workload import WorkloadReporter

__all__ = ["ComputationalServer"]


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


def _has_refs(msg: SolveRequest) -> bool:
    """True when an input names resident data instead of carrying it."""
    return any(isinstance(v, DataHandle) for v in msg.inputs)


def _batchable(msg: SolveRequest) -> bool:
    """Referenced and kept requests keep 1-at-a-time semantics."""
    return not (msg.keep_result or _has_refs(msg))


class _Job:
    """One admitted solve request on its way through the pipeline.

    Single, batched, coalesced and cached requests are all this
    object; they differ only in the data on it.  The lower half is
    filled by :meth:`ComputationalServer._prepare`, once.
    """

    __slots__ = (
        "msg", "reply_to", "t_queued",
        "inputs", "coerced", "env", "flops", "digest", "error",
    )

    def __init__(self, src: str, msg: SolveRequest):
        self.msg = msg
        #: the client address the reply goes to
        self.reply_to = msg.reply_to or src
        self.t_queued = 0.0
        #: ``msg.inputs`` with every reference swapped for its resident
        #: value (what the process lane ships), then validated
        self.inputs: Optional[list] = None
        self.coerced = None
        self.env = None
        self.flops = 0.0
        #: content digest; ``None`` = not addressable / not digesting
        self.digest: Optional[str] = None
        #: typed pre-compute failure (not installed, invalid, missing
        #: object) — the request settles with it instead of running
        self.error: Optional[NetSolveError] = None


class ComputationalServer(DispatchComponent):
    """One NetSolve computational resource."""

    #: every count is a plain int on this object (or on the part the
    #: dotted path names); a registry reads them, nothing mirrors them
    METRICS = (
        Metric("server.requests", "requests_accepted", "solve requests accepted"),
        Metric("server.ok", "requests_served", "successful solve replies"),
        Metric("server.errors", "requests_failed", "failed solve replies"),
        Metric("server.queued", "requests_queued",
               "requests held in the FIFO queue"),
        Metric("server.sheds", "requests_shed",
               "requests refused with Busy (queue at max_queue)"),
        Metric("server.stale_drops", "stale_completions",
               "compute completions from a previous incarnation dropped"),
        Metric("server.stores", "objects_stored",
               "client-stored objects (pinned until deleted)"),
        Metric("server.store_rejects", "store_rejects",
               "stores rejected (cache full / codec)"),
        Metric("server.deletes", "object_deletes", "stored-object deletions"),
        Metric("server.queue_depth", "queue_depth",
               "requests waiting, all servers", "gauge"),
        Metric("server.executing", "executing",
               "requests executing, all servers", "gauge"),
        Metric("server.compute_seconds", "_compute_seconds",
               "per-request execution time", "histogram"),
        Metric("server.queue_wait_seconds", "_queue_wait_seconds",
               "time spent queued before start", "histogram"),
        Metric("server.batches", "batches", "stacked same-problem kernel calls"),
        Metric("server.batched_requests", "batched_requests",
               "requests served through a batch"),
        Metric("server.peak_queue", "peak_queue",
               "deepest any server's FIFO queue got", "gauge", max),
        Metric("server.cache_hits", "cache_hits",
               "solves answered from the result cache"),
        Metric("server.cache_misses", "cache_misses",
               "digested requests not found in cache"),
        Metric("server.cache_evictions", "result_cache.evictions",
               "result-cache LRU evictions"),
        Metric("server.cache_bytes_saved", "cache_bytes_saved",
               "encoded output bytes answered without recomputation"),
        Metric("server.coalesced", "coalesced_requests",
               "requests joined to an identical in-flight compute"),
        Metric("server.store_records", "store_records",
               "job outcomes persisted to the store"),
        Metric("server.store_hits", "store_hits",
               "cache misses answered from the persistent store"),
        Metric("server.fetches", "result_fetches", "FetchResult lookups served"),
        Metric("server.agent_failovers", "agent_failovers",
               "registrations rotated to the next agent on ack silence"),
        Metric("server.kept_results", "kept_results",
               "outputs left resident and answered with DataHandles"),
        Metric("server.object_fetches", "object_fetches",
               "FetchObject payload pulls served"),
        Metric("server.missing_objects", "objects.misses",
               "referenced keys that were not resident (typed retryable error)"),
    )

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
        self.registry = registry
        self.mflops = float(mflops)
        self.host = host
        self.cfg = cfg
        self.trace = trace
        track(self, metrics)
        self.reporter: Optional[WorkloadReporter] = None
        self.registered = False
        self._executing = 0
        #: incarnation generation: bumped on every restart so completion
        #: callbacks of forgotten in-flight work identify themselves as
        #: stale instead of corrupting the new incarnation's state
        self._generation = 0
        #: earliest-deadline-first admission heap of
        #: ``(deadline, seq, job)``: deadline = arrival + the request
        #: class's ``qos_deadlines`` offset, seq breaks ties in arrival
        #: order — single-class traffic therefore drains in exact FIFO
        #: order, same as the pre-QoS deque
        self._queue: list[tuple[float, int, _Job]] = []
        self._queue_seq = itertools.count()
        #: waiting entries per QoS class (indexed like QOS_CLASSES),
        #: driving the per-class shed shares
        self._queued_by_class = [0, 0, 0]
        #: shed audit per QoS class (class name -> count)
        self.sheds_by_class = {name: 0 for name in QOS_CLASSES}
        #: opt-in process executor, created on first use (thread lanes
        #: belong to the transport node, not the server)
        self._process_pool: Optional[ProcessPool] = None
        #: resident-object store behind DataHandle references:
        #: pinned client stores plus TTL-bounded keep_result
        #: outputs.  Survives on_restart (in-process hiccup), cleared by
        #: on_shutdown (process death).
        self.objects = HandleStore(
            cfg.object_cache_bytes,
            ttl=cfg.handle_ttl,
            clock=lambda: self.node.now(),
        )
        #: content-addressed result cache: digest -> (outputs, nbytes).
        #: Clocked by the node so TTLs work under virtual time; the
        #: lambda is only called once the component is bound.
        self.result_cache = ResultCache(
            cfg.cache_entries,
            ttl=cfg.cache_ttl,
            clock=lambda: self.node.now(),
        )
        #: digest of a running compute -> the jobs that joined it, in
        #: join order (stampede coalescing); cleared on restart —
        #: dropped waiters retry like any lost reply
        self._inflight: dict[str, list[_Job]] = {}
        #: persistent job store, opened lazily so a shut-down incarnation
        #: can reopen it on revival
        self._store: Optional[JobStore] = None
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
        self._queue.clear()
        self._queued_by_class = [0, 0, 0]
        self._executing = 0
        self._generation += 1
        # coalesced waiters were joined to computes this incarnation no
        # longer owns; their clients time out and retry, same as any
        # reply lost to the crash
        self._inflight.clear()
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
        # resident objects are process memory: pinned ones too die
        # here.  Clients re-submit with payloads when they next hit
        # the typed missing_object error.
        self.objects.clear()
        if self._store is not None:
            self._store.close()
            self._store = None

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
    # resident-object store (DataHandle references)
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
            # eviction until an explicit delete (ship once, refer after)
            obj = self.objects.put(msg.key, msg.value, pin=True)
        except NetSolveError as exc:
            self.store_rejects += 1
            self._trace("store_rejected", key=msg.key, detail=str(exc))
            self.node.send(src, StoreAck(key=msg.key, ok=False, detail=str(exc)))
            return
        self.objects_stored += 1
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
        self.object_deletes += 1
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
        self.object_fetches += 1
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
            if isinstance(value, DataHandle):
                obj = self.objects.entry(value.key)
                if obj is None:
                    missing.append(value.key)
                else:
                    resolved.append(obj.value)
            else:
                resolved.append(value)
        if missing:
            self.objects.misses += len(missing)
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

    def _solve_digest_folded(self, job: _Job) -> Optional[str]:
        """Request digest with references *folded*, not materialized.

        Digests cover the *canonicalized* inputs, so a strided
        client-side view and the contiguous copy another client sent
        hash identically.  Reference positions contribute the referenced
        object's stored content digest (O(1) per request, however large
        the resident value); payload positions contribute their bytes.
        A handle-bearing request therefore digests to the same key the
        submitting client computed from its ``DataHandle.digest``
        metadata, so repeats hit the result cache and the agent's hot
        cache without re-hashing resident megabytes.  Ref-free requests
        take the historical value-digest path, bit-identical to before.
        ``None`` means not addressable (unencodable, unresolvable).
        """
        msg = job.msg
        if not _has_refs(msg):
            return solve_digest(msg.problem, job.coerced, job.env)
        # references stay references; the resolver folds in the digest
        # of the resident *content*, not a possibly-stale carried one
        folded = [
            orig if isinstance(orig, DataHandle) else value
            for orig, value in zip(msg.inputs, job.coerced)
        ]
        return solve_digest(
            msg.problem, folded, job.env, resolve_ref=self.objects.digest_of
        )

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
            if len(key) > 128:
                # a fixed-width hash of the whole key: the same in every
                # process, and at most 96 + 32 = 128 chars
                key = key[:96] + blake2b(
                    key.encode("utf-8"), digest_size=16
                ).hexdigest()
            try:
                obj = self.objects.put(key, value)
            except NetSolveError:
                kept.append(value)
                continue
            kept.append(self._handle_for(obj))
            self.kept_results += 1
        self._trace(
            "result_kept", request_id=request_id, outputs=len(outputs)
        )
        return tuple(kept)

    def _probe(self, job: _Job) -> Optional[tuple]:
        """Admission-time cache lookup on a digesting server: the
        ``(outputs, nbytes)`` entry that answers ``job``, else ``None``.

        A memory miss falls through to the persistent store (the
        restart-warming path) and promotes any hit back into the memory
        cache.  An unaddressable or already-failed job is no lookup at
        all: the start owns its reply.
        """
        self._prepare(job)
        digest = job.digest
        if digest is None:
            return None
        entry = self.result_cache.get(digest)
        store = self._job_store() if entry is None else None
        blob = store.lookup_digest(digest) if store is not None else None
        if blob is not None:
            try:
                entry = (tuple(decode_value(blob)), len(blob))
            except NetSolveError:  # pragma: no cover - corrupt row
                pass
            else:
                self.result_cache.put(digest, entry)
                self.store_hits += 1
        if entry is None:
            self.cache_misses += 1
        return entry

    def _record(
        self,
        job: _Job,
        outputs: Optional[tuple],
        detail: str,
        elapsed: float,
        publish: bool,
    ) -> None:
        """Post-reply bookkeeping for one settled request.

        A fresh success (``publish``) is inserted into the memory cache
        and published hot to the agent; cache hits and coalesced waiters
        skip both — the leader already owns the entry.  Then the
        job-store row, which every outcome gets (``outputs=None`` = the
        failure ``detail``).  Unencodable outputs are skipped wholesale —
        they could not have crossed the wire either.
        """
        store = self._job_store()
        digest = job.digest
        publish = publish and digest is not None and outputs is not None
        if store is None and not publish:
            return
        blob = b""
        if outputs is not None:
            try:
                if store is not None:
                    buf = bytearray()
                    encode_value(outputs, buf)
                    blob = bytes(buf)
                    nbytes = len(blob)
                else:
                    nbytes = encoded_size(outputs)
            except NetSolveError:  # pragma: no cover - registry outputs
                return
        if publish:
            if self.result_cache.enabled:
                self.result_cache.put(digest, (outputs, nbytes))
            if 0 < nbytes <= self.cfg.cache_publish_bytes:
                self.node.send(
                    self.agent_address,
                    CacheInsert(
                        digest=digest,
                        problem=job.msg.problem,
                        outputs=outputs,
                        nbytes=nbytes,
                    ),
                )
        if store is not None:
            store.record(
                job.reply_to,
                job.msg.request_id,
                digest=digest or "",
                problem=job.msg.problem,
                ok=outputs is not None,
                payload=blob,
                detail=detail,
                compute_seconds=elapsed,
                created=self.node.now(),
            )
            self.store_records += 1

    @handles(FetchResult)
    def _fetch_result(self, src: str, msg: FetchResult) -> None:
        """Recover a finished result from the job store by request id."""
        self.result_fetches += 1
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
    # the request pipeline: admit -> prepare once -> run -> settle
    # ------------------------------------------------------------------
    @handles(SolveRequest)
    def _enqueue(self, src: str, msg: SolveRequest) -> None:
        """Admit one request: answer it from the cache, shed it, queue
        it, or start it.  A digesting server prepares here, because a
        hit skips the queue, the worker pool and the kernel entirely; a
        plain one defers all per-request work past the shed decision."""
        job = None
        if self.result_cache.enabled or self.cfg.store_path:
            job = _Job(src, msg)
            entry = self._probe(job)
            if entry is not None:
                self.requests_accepted += 1
                self._settle(job, entry[0], 0.0, cached=True, saved=entry[1])
                return
        if self._executing >= self.cfg.max_concurrent:
            depth = len(self._queue)
            ci = qos_index(msg.qos)
            if self.cfg.max_queue > 0:
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
            job = job or _Job(src, msg)
            job.t_queued = self.node.now()
            deadline = job.t_queued + self.cfg.qos_deadlines[ci]
            heapq.heappush(
                self._queue, (deadline, next(self._queue_seq), job)
            )
            self._queued_by_class[ci] += 1
            if len(self._queue) > self.peak_queue:
                self.peak_queue = len(self._queue)
            self.requests_queued += 1
            self._trace(
                "request_queued", request_id=msg.request_id, depth=len(self._queue)
            )
            return
        self._start(job or _Job(src, msg))

    def _prepare(self, job: _Job) -> None:
        """Resolve, validate, size and digest ``job`` — at most once.

        The admission probe, the batch gatherer and the start all call
        this; whichever comes first does the work, the rest return at
        the first line.  A failure is stored on the job, typed, for
        :meth:`_settle` — nothing is replied from here.
        """
        if job.coerced is not None or job.error is not None:
            return
        msg = job.msg
        try:
            if msg.problem not in self.registry:
                raise NetSolveError(
                    f"problem {msg.problem!r} not installed here"
                )
            spec = self.registry.spec(msg.problem)
            job.inputs = self._resolve_refs(msg.inputs)
            job.coerced, job.env = validate_inputs(spec, job.inputs)
            job.flops = spec.flops(job.env)
        except NetSolveError as exc:
            job.error = exc
            return
        if self.result_cache.enabled or self.cfg.store_path:
            job.digest = self._solve_digest_folded(job)

    def _start(self, job: _Job) -> None:
        """Take ``job`` as far as it goes without waiting: settle it
        (pre-compute failure, or a result that landed in the cache while
        it queued), join it to an identical running compute, or run it —
        with whatever queued mates can share its kernel call."""
        self.requests_accepted += 1
        self._prepare(job)
        if job.error is not None:
            self._settle(job, job.error, 0.0)
            return
        digest = job.digest
        if digest is not None:
            # peek: the admission-time miss was already counted; stats
            # stay one-to-one with requests
            entry = self.result_cache.peek(digest)
            if entry is not None:
                self._settle(job, entry[0], 0.0, cached=True, saved=entry[1])
                return
            waiters = self._inflight.get(digest)
            if waiters is not None:
                # an identical compute is already running: join it
                # instead of burning a slot on the same answer
                waiters.append(job)
                self.coalesced_requests += 1
                self._trace(
                    "request_coalesced",
                    request_id=job.msg.request_id,
                    digest=digest,
                )
                return
            if self.result_cache.enabled:
                self._inflight[digest] = []
        self._run([job, *self._mates(job)])

    def _run(self, jobs: list) -> None:
        """Execute ``jobs`` — one request, or a head plus its batch
        mates in one stacked kernel call — on a *single* slot under a
        single generation stamp: a restart before completion makes the
        whole completion stale, dropping every member (each of which
        the client retries independently)."""
        head = jobs[0]
        problem = head.msg.problem
        self._executing += 1
        generation = self._generation
        if len(jobs) == 1:
            rid = head.msg.request_id
            stale_fields = {"request_id": rid}
            flops = head.flops
            self._trace(
                "request_started", request_id=rid, problem=problem, flops=flops
            )
            coerced = head.coerced

            def run():
                return self.registry.execute(problem, coerced)
        else:
            stale_fields = {"problem": problem, "batch": len(jobs)}
            flops = sum(job.flops for job in jobs)
            self.batches += 1
            self.batched_requests += len(jobs)
            # the head was counted by _start, its mates never got there
            self.requests_accepted += len(jobs) - 1
            self._trace(
                "batch_started", problem=problem, size=len(jobs), flops=flops
            )
            inputs_list = [job.coerced for job in jobs]

            def run():
                return self.registry.execute_batch(problem, inputs_list)

        def done(result, elapsed: float) -> None:
            if generation != self._generation:
                # completion of work a restart already forgot: the new
                # incarnation zeroed _executing and owes no reply
                self.stale_completions += len(jobs)
                self._trace("stale_completion_dropped", **stale_fields)
                return
            self._executing -= 1
            self._compute_seconds.observe(elapsed)
            if len(jobs) == 1:
                items = [result]
            elif isinstance(result, BaseException):
                # execute_batch itself blew up before its per-item
                # fallback could run: every member shares the error
                items = [result] * len(jobs)
            else:
                items = result
            for job, item in zip(jobs, items):
                waiters = self._inflight.pop(job.digest, ())
                self._settle(job, item, elapsed)
                # joined requests share the leader's fate, in join order
                for waiter in waiters:
                    self._settle(waiter, item, elapsed, cached=True)
            self._drain()

        if len(jobs) == 1 and self._use_process_lane():
            self._submit_process(problem, head.inputs, done)
        else:
            self.node.compute(flops, run, done)

    def _settle(
        self,
        job: _Job,
        outcome,
        elapsed: float,
        *,
        cached: bool = False,
        saved: Optional[int] = None,
    ) -> None:
        """End one request's life: the only place that counts it, traces
        it, keeps its outputs, builds its ``SolveReply``, and publishes
        and records the outcome.

        ``outcome`` is the output sequence, or the exception standing in
        for it: ``job.error`` for a typed pre-compute failure (its text
        is the whole detail), anything else a kernel error.  ``cached``
        marks a result that cost no compute here — a cache hit (``saved``
        = the encoded bytes the entry spared) or a waiter sharing its
        leader's — which owns neither the cache entry nor its
        publication.
        """
        rid = job.msg.request_id
        outputs = None
        sent: tuple = ()
        detail = error_kind = ""
        missing: tuple = ()
        if isinstance(outcome, BaseException):
            self.requests_failed += 1
            if outcome is not job.error:
                detail = f"{type(outcome).__name__}: {outcome}"
                self._trace(
                    "request_error", request_id=rid, detail=str(outcome)
                )
            else:
                detail = str(outcome)
                if isinstance(outcome, MissingObjectError):
                    # fail fast, *typed*: a referenced key is gone (crash
                    # wiped the store, TTL lapsed, ...).  The client
                    # re-submits with the payload instead of treating
                    # this as a server fault.
                    error_kind, missing = "missing_object", outcome.keys
                    self._trace(
                        "missing_object",
                        request_id=rid,
                        keys=",".join(missing),
                    )
        else:
            outputs = sent = tuple(outcome)
            if cached:
                # the request paid no compute, and charging it the
                # leader's would poison the client's transfer accounting
                # (elapsed - compute < 0)
                elapsed = 0.0
            self.requests_served += 1
            if saved is None:
                self._trace(
                    "request_done", request_id=rid, compute_seconds=elapsed
                )
            else:
                self.cache_hits += 1
                self.cache_bytes_saved += saved
                self._trace("cache_hit", request_id=rid, nbytes=saved)
            if job.msg.keep_result:
                sent = self._keep_outputs(job.reply_to, rid, outputs)
        reply = SolveReply(
            request_id=rid,
            ok=outputs is not None,
            outputs=sent,
            detail=detail,
            compute_seconds=elapsed,
            cached=cached and outputs is not None,
            error_kind=error_kind,
            missing=missing,
        )
        self.node.send(job.reply_to, reply)
        self._record(job, outputs, detail, elapsed, publish=not cached)

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
        marshalled back through ``node.post``: ``done`` then runs on the
        node's loop like every other component entry point (or is
        dropped when the node has gone down in the meantime).
        """
        pool = self._process_pool
        if pool is None:
            pool = ProcessPool(
                self.cfg.workers or self.cfg.max_concurrent, self.registry
            )
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
    # same-problem micro-batching, and the drain
    # ------------------------------------------------------------------
    def _mates(self, head: _Job) -> list:
        """Pull the queued jobs that can share ``head``'s stacked kernel
        call out of the queue (others keep their positions).

        Eligibility is data: batching on, a batch handler, and — for
        head and mate alike — no refs, no ``keep_result`` (those keep
        1-at-a-time semantics), the same problem and the same
        ``(env, _batch_signature)``; at most ``batch_max`` per call.
        Candidates are prepared here, once, and stay prepared if they
        are left behind.
        """
        problem = head.msg.problem
        if (
            self.cfg.batch_max <= 1
            or not self._queue
            or not self.registry.has_batch(problem)
            or not _batchable(head.msg)
        ):
            return []
        signature = (head.env, _batch_signature(head.coerced))
        mates: list = []
        kept: list = []
        # walk in drain (deadline) order so member selection matches
        # what successive pops would have seen; a sorted list satisfies
        # the heap invariant, so ``kept`` needs no re-heapify
        for entry in sorted(self._queue):
            job = entry[2]
            if (
                len(mates) + 1 < self.cfg.batch_max
                and job.msg.problem == problem
                and _batchable(job.msg)
            ):
                self._prepare(job)
                if job.error is None and (
                    job.env, _batch_signature(job.coerced)
                ) == signature:
                    mates.append(job)
                    self._dequeued(job)
                    continue
            kept.append(entry)
        if mates:
            self._queue = kept
        return mates

    def _dequeued(self, job: _Job) -> None:
        self._queued_by_class[qos_index(job.msg.qos)] -= 1
        self._queue_wait_seconds.observe(self.node.now() - job.t_queued)

    def _drain(self) -> None:
        """Start queued jobs while a slot is free.  The only loop:
        ``_start`` and ``_settle`` return here rather than re-enter, so
        a deep queue of cached or invalid requests costs iterations, not
        stack frames."""
        while self._queue and self._executing < self.cfg.max_concurrent:
            job = heapq.heappop(self._queue)[2]
            self._dequeued(job)
            self._start(job)

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def executing(self) -> int:
        return self._executing
