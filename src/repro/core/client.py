"""The NetSolve client library.

Mirrors the original calling model: a blocking call (``netsl``) and a
non-blocking submit/probe/wait triple (``netslnb``/``netslpr``/
``netslwt``), both built on one asynchronous engine:

1. fetch & cache the problem description from the agent (PDL over the
   wire), validating arguments locally before anything large moves;
2. ask the agent for a ranked candidate list (sizes only — never data);
3. ship inputs to the best server; on error, timeout or crash, report
   the failure to the agent and fall through to the next candidate,
   re-querying the agent (excluding known-bad servers) when the list
   runs dry — the paper's transparent fault-tolerance loop;
4. resolve the request's promise with the outputs.

Every request keeps a full :class:`~repro.core.request.RequestRecord`
timeline, which is where the breakdown/fault experiments read from.
The same lifecycle is counted on the client itself (``METRICS``; an
attached :class:`~repro.trace.instruments.MetricsRegistry` collects the
counts) and, with a :class:`~repro.trace.spans.SpanLog` attached, feeds
per-request span timelines.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Optional, Sequence

from ..config import ClientConfig
from ..errors import (
    BadArgumentsError,
    MissingObjectError,
    NetSolveError,
    ProblemNotFoundError,
    RequestFailed,
)
from ..problems.pdl import parse_pdl
from ..problems.spec import ProblemSpec, validate_inputs
from ..protocol.messages import (
    Busy,
    Candidate,
    DagNodeDone,
    DagReply,
    DataHandle,
    DescribeProblem,
    FailureReport,
    FetchObject,
    FetchResult,
    ListProblems,
    ObjectPayload,
    ProblemDescription,
    ProblemList,
    QueryReply,
    QueryRequest,
    DeleteObject,
    ObjectRef,
    ResultStatus,
    SolveReply,
    SolveRequest,
    StoreAck,
    StoreObject,
    SubmitDag,
    TransferReport,
)
from ..protocol.transport import Promise
from ..runtime import DeadlineTable, DispatchComponent, RetryChain, handles
from ..store import solve_digest
from ..trace.events import EventLog
from ..trace.instruments import (
    ERROR_SECONDS_BUCKETS,
    Metric,
    MetricsRegistry,
    track,
)
from ..trace.spans import SpanLog
from .qos import QOS_DEFAULT, normalize_qos
from .request import AttemptRecord, RequestRecord, RequestStatus

__all__ = ["NetSolveClient", "RequestHandle"]


class RequestHandle:
    """Public handle for one submitted request."""

    def __init__(self, record: RequestRecord, promise: Promise):
        self.record = record
        self.promise = promise

    @property
    def request_id(self) -> int:
        return self.record.request_id

    @property
    def status(self) -> RequestStatus:
        return self.record.status

    @property
    def done(self) -> bool:
        return self.promise.done

    def result(self) -> tuple:
        """Outputs tuple; raises the request's error if it failed."""
        return self.promise.result()


class _Active:
    """Internal per-request state."""

    __slots__ = (
        "handle",
        "record",
        "problem",
        "raw_args",
        "inputs",
        "env",
        "digest",
        "candidates",
        "tried",
        "current",
        "attempt",
        "pinned",
        "keep_result",
        "payloads",
        "resubmitted",
        "query_silences",
        "span",
        "qos",
    )

    def __init__(self, handle: RequestHandle, problem: str, raw_args: list):
        self.handle = handle
        self.record = handle.record
        self.problem = problem
        self.raw_args = raw_args
        self.inputs: Optional[tuple] = None
        self.env: dict[str, int] = {}
        #: content digest carried in agent queries (cfg.cache_digest)
        self.digest = ""
        self.candidates: deque[Candidate] = deque()
        self.tried: list[str] = []
        self.current: Optional[Candidate] = None
        self.attempt: Optional[AttemptRecord] = None
        #: pinned requests bypass the agent and never fail over
        self.pinned = False
        #: ask the server to leave outputs resident (reply carries handles)
        self.keep_result = False
        #: key -> value fallback for handle inputs: a missing-object
        #: error re-submits once with these inlined instead of failing
        self.payloads: dict[str, Any] = {}
        #: the one payload re-submission has been spent
        self.resubmitted = False
        #: unanswered agent queries so far (control-message retry budget)
        self.query_silences = 0
        #: per-request span (None when no SpanLog is attached)
        self.span = None
        #: QoS class carried on the query and the solve ("" = batch)
        self.qos = ""


class _DagState:
    """Client-side state of one in-flight request DAG."""

    __slots__ = ("promise", "on_node", "interval", "address")

    def __init__(self, promise: Promise, on_node, interval: float, address: str):
        self.promise = promise
        #: optional per-node progress callback (receives each DagNodeDone)
        self.on_node = on_node
        #: liveness window, re-armed on every node completion
        self.interval = interval
        self.address = address


class NetSolveClient(DispatchComponent):
    """One client application's NetSolve endpoint."""

    METRICS = (
        Metric("client.submits", "submits", "brokered requests accepted"),
        Metric("client.pinned_submits", "pinned_submits",
               "pinned (sequenced) requests accepted"),
        Metric("client.describe_sends", "describe_sends",
               "DescribeProblem messages sent"),
        Metric("client.describe_retries", "describe_retries",
               "DescribeProblem re-sends on silence"),
        Metric("client.queries", "queries", "QueryRequest messages sent"),
        Metric("client.query_retries", "query_retries",
               "agent query re-sends on silence"),
        Metric("client.query_backoffs", "query_backoffs",
               "empty-pool backoffs before re-query"),
        Metric("client.attempts", "attempts", "SolveRequests sent to servers"),
        Metric("client.attempt_ok", "attempt_ok", "attempts answered ok"),
        Metric("client.attempt_errors", "attempt_errors",
               "attempts answered with an error"),
        Metric("client.attempt_timeouts", "attempt_timeouts",
               "attempts abandoned on timeout"),
        Metric("client.failovers", "failovers",
               "failures reported to the agent before retry"),
        Metric("client.agent_failovers", "agent_failovers",
               "agent silences answered by rotating to the next agent in "
               "the list"),
        Metric("client.busy_failovers", "busy_failovers",
               "attempts refused with Busy and retried"),
        Metric("client.requests_done", "requests_done", "requests resolved"),
        Metric("client.requests_failed", "requests_failed", "requests rejected"),
        Metric("client.cached_replies", "cached_replies",
               "requests answered from a result cache"),
        Metric("client.store_ops", "store_ops",
               "store/delete operations started"),
        Metric("client.store_timeouts", "store_timeouts",
               "store/delete batches timed out"),
        Metric("client.fetches", "fetches", "FetchResult lookups started"),
        Metric("client.object_fetches", "object_fetches",
               "FetchObject pulls started"),
        Metric("client.dag_submits", "dag_submits", "SubmitDag graphs sent"),
        Metric("client.payload_resubmits", "payload_resubmits",
               "missing-object errors answered by re-sending with payloads"),
        Metric("client.active_requests", "active_requests",
               "requests in flight", "gauge"),
        Metric("client.request_seconds", "_request_seconds",
               "submit -> settle wall-clock", "histogram"),
        Metric("client.negotiation_seconds", "_negotiation_seconds",
               "query -> candidate list", "histogram"),
        Metric("client.attempt_seconds", "_attempt_seconds",
               "SolveRequest -> SolveReply", "histogram"),
        Metric("client.prediction_error_seconds", "_prediction_error_seconds",
               "attempt elapsed minus agent prediction (signed)",
               "histogram", bounds=ERROR_SECONDS_BUCKETS),
    )

    def __init__(
        self,
        *,
        client_id: str,
        agent_address: str | Sequence[str],
        cfg: ClientConfig = ClientConfig(),
        trace: Optional[EventLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanLog] = None,
    ):
        self.client_id = client_id
        #: ordered agent rotation (head = current); a single string is
        #: accepted everywhere for the common one-agent deployment
        self.agent_address = agent_address
        self.cfg = cfg
        self.trace = trace
        track(self, metrics)
        self.spans = spans
        self._rids = itertools.count(1)
        self._specs: dict[str, ProblemSpec] = {}
        self._describing: dict[str, list[_Active]] = {}
        self._spec_waiters: dict[str, list[Promise]] = {}
        self._listing: dict[str, list[Promise]] = {}
        self._storing: dict[tuple[str, str], list[tuple[Promise, bool]]] = {}
        self._fetching: dict[tuple[str, int], list[Promise]] = {}
        #: (server address, key) -> promises awaiting an ObjectPayload
        self._object_fetches: dict[tuple[str, str], list[Promise]] = {}
        #: dag_id -> in-flight DAG state
        self._dags: dict[str, _DagState] = {}
        self._dag_ids = itertools.count(1)
        self._queries: dict[int, Promise] = {}
        self._active: dict[int, _Active] = {}
        #: every timeout this client arms, keyed and generation-safe;
        #: tuple keys name control-plane batches, bare request-id ints
        #: name the per-request timer (ints and tuples cannot collide)
        self._deadlines = DeadlineTable(self)
        #: every record ever created, terminal or not (experiment data)
        self.records: list[RequestRecord] = []

    # ------------------------------------------------------------------
    # agent rotation
    # ------------------------------------------------------------------
    @property
    def agent_address(self) -> str:
        """The agent all control traffic currently goes to (rotation head)."""
        return self._agents[0]

    @agent_address.setter
    def agent_address(self, value: str | Sequence[str]) -> None:
        agents = [value] if isinstance(value, str) else list(value)
        if not agents:
            raise NetSolveError("client needs at least one agent address")
        self._agents = agents

    @property
    def agent_addresses(self) -> tuple[str, ...]:
        """The full rotation, current agent first."""
        return tuple(self._agents)

    def _rotate_agent(self, context: str) -> None:
        """A silence timed out: move the head agent to the back.

        With one agent this is a no-op and the timeout paths behave
        exactly as before the fleet existed; with several, every retry
        lands on a different agent, so one dead broker costs at most one
        timeout per in-flight conversation.
        """
        if len(self._agents) <= 1:
            return
        failed = self._agents.pop(0)
        self._agents.append(failed)
        self.agent_failovers += 1
        self._trace(
            "agent_failover",
            context=context,
            from_agent=failed,
            to_agent=self._agents[0],
        )

    def _agent_attempts(self) -> int:
        """Retry budget for one-shot catalogue messages (list/candidates).

        A single-agent deployment keeps the original one-timeout
        semantics; a fleet spends up to ``agent_retries`` attempts so
        the rotation actually gets to try the other agents.
        """
        return max(1, min(self.cfg.agent_retries, len(self._agents)))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: str,
        args: Sequence[Any],
        *,
        keep_result: bool = False,
        payloads: Optional[dict] = None,
        qos: str = "",
    ) -> RequestHandle:
        """Non-blocking submit; returns a handle with a promise.

        ``args`` may contain :class:`DataHandle` references to
        server-resident operands — those ship as constant-size stubs and
        the agent's ranking charges transfer only for what a candidate
        does not already hold.  ``keep_result=True`` asks the winning
        server to leave the outputs resident and answer with handles
        (pull bytes later with :meth:`fetch`).  ``payloads`` maps handle
        keys to their values: if the server answers that a referenced
        key is no longer resident, the request re-submits once with
        those operands inlined instead of failing.  ``qos`` names the
        request class ("interactive" / "batch" / "background"; "" takes
        ``cfg.default_qos``) — servers order admission and shed per
        class (see :mod:`repro.core.qos`).
        """
        qos = normalize_qos(qos or self.cfg.default_qos)
        if qos == QOS_DEFAULT:
            qos = ""  # the default class rides the wire as "" (cheaper)
        rid = next(self._rids)
        record = RequestRecord(
            request_id=rid,
            problem=problem,
            sizes={},
            t_submit=self.node.now(),
        )
        handle = RequestHandle(record, self.node.promise())
        self.records.append(record)
        req = _Active(handle, problem, list(args))
        req.keep_result = keep_result
        req.payloads = dict(payloads or {})
        req.qos = qos
        self._active[rid] = req
        self._trace("submit", request_id=rid, problem=problem)
        self.submits += 1
        if self.spans is not None:
            req.span = self.spans.begin(
                rid, problem, self.client_id, record.t_submit
            )
        spec = self._specs.get(problem)
        if spec is not None:
            self._validate_and_query(req, spec)
        else:
            if req.span is not None:
                req.span.begin_phase("describe", record.t_submit)
            # exactly one DescribeProblem retry chain per problem: a
            # `describe()` call may already have inserted the (empty)
            # waiter-list marker and sent the message — appending to an
            # existing list must never re-send
            waiting = self._describing.get(problem)
            if waiting is None:
                self._describing[problem] = [req]
                self._start_describe(problem)
            else:
                waiting.append(req)
        return handle

    def known_problems(self) -> list[str]:
        return sorted(self._specs)

    def install_spec(self, spec: ProblemSpec) -> None:
        """Pre-seed the description cache (skips the DescribeProblem RTT)."""
        self._specs[spec.name] = spec

    # ------------------------------------------------------------------
    # request sequencing: object store + pinned submits
    # ------------------------------------------------------------------
    def store(self, server_address: str, key: str, value: Any) -> Promise:
        """Cache ``value`` under ``key`` on a specific server.

        The promise resolves with the stored byte count, or rejects if
        the server refuses (cache full) or never answers.
        """
        return self._store_op(
            server_address, key, StoreObject(key=key, value=value),
            want_handle=False,
        )

    def store_handle(
        self, server_address: str, key: str, value: Any,
    ) -> Promise:
        """Like :meth:`store`, but resolve with the :class:`DataHandle`
        the ack carries — digest, size and shape metadata included — so
        the stored operand can be referenced or fetched with no further
        round trip."""
        return self._store_op(
            server_address, key, StoreObject(key=key, value=value),
            want_handle=True,
        )

    def delete_stored(self, server_address: str, key: str) -> Promise:
        """Drop a cached object; resolves True if it existed."""
        return self._store_op(
            server_address, key, DeleteObject(key=key), want_handle=False,
        )

    def _store_op(
        self, server_address: str, key: str, msg: Any, *, want_handle: bool,
    ) -> Promise:
        promise = self.node.promise()
        waiting = self._storing.setdefault((server_address, key), [])
        waiting.append((promise, want_handle))
        if len(waiting) == 1:
            self.store_ops += 1
            self.node.send(server_address, msg)
            self._arm_store_timeout(server_address, key)
        return promise

    def _arm_store_timeout(self, server_address: str, key: str) -> None:
        # an ack cancels the deadline as it pops the batch; a later
        # operation on the same key arms a fresh generation — the
        # deadline table makes a stale fire against a successor batch
        # structurally impossible
        def fire() -> None:
            batch = self._storing.pop((server_address, key), [])
            self.store_timeouts += 1
            for p, _ in batch:
                if not p.done:
                    p.reject(
                        RequestFailed(
                            0, f"server {server_address!r} did not ack "
                            f"object {key!r}"
                        )
                    )

        self._deadlines.arm(
            ("store", server_address, key), self.cfg.server_timeout, fire
        )

    def fetch(
        self, handle: "DataHandle | ObjectRef | str", *, address: str = ""
    ) -> Promise:
        """Pull a server-resident object's bytes on demand.

        The read half of the reference path: a ``keep_result`` solve (or
        a DAG with keep nodes) answers with :class:`DataHandle` stubs;
        this turns one back into the value.  ``address`` overrides the
        handle's home (required when ``handle`` is a bare key or an
        :class:`ObjectRef`, which carry none).  The promise resolves
        with the object's value; it rejects with
        :class:`MissingObjectError` when the key is no longer resident
        (TTL lapse, eviction, server restarted the hard way) and
        :class:`RequestFailed` when the server never answers.
        """
        if isinstance(handle, (DataHandle, ObjectRef)):
            key = handle.key
        else:
            key = str(handle)
        target = address or (
            handle.address if isinstance(handle, DataHandle) else ""
        )
        promise = self.node.promise()
        if not target:
            promise.reject(
                NetSolveError(
                    f"fetch of {key!r} needs a server address "
                    f"(the reference carries none)"
                )
            )
            return promise
        waiting = self._object_fetches.setdefault((target, key), [])
        waiting.append(promise)
        if len(waiting) == 1:
            self.object_fetches += 1

            def send_fetch(attempt: int) -> None:
                self._trace("object_fetch_sent", key=key, server=target)
                self.node.send(
                    target,
                    FetchObject(key=key, reply_to=self.node.address),
                )

            def exhausted() -> None:
                batch = self._object_fetches.pop((target, key), [])
                for p in batch:
                    if not p.done:
                        p.reject(
                            RequestFailed(
                                0,
                                f"server {target!r} did not answer "
                                f"FetchObject for {key!r}",
                            )
                        )

            RetryChain(
                self._deadlines,
                ("objfetch", target, key),
                interval=self.cfg.server_timeout,
                attempts=self.cfg.agent_retries,
                send=send_fetch,
                on_exhausted=exhausted,
            ).start()
        return promise

    @handles(ObjectPayload)
    def _on_object_payload(self, src: str, msg: ObjectPayload) -> None:
        self._deadlines.cancel(("objfetch", src, msg.key))
        for promise in self._object_fetches.pop((src, msg.key), []):
            if promise.done:
                continue
            if msg.ok:
                promise.resolve(msg.value)
            elif msg.error_kind == "missing_object":
                promise.reject(MissingObjectError(msg.key))
            else:
                promise.reject(
                    RequestFailed(0, msg.detail or "object fetch refused")
                )

    # ------------------------------------------------------------------
    # request DAGs
    # ------------------------------------------------------------------
    def submit_dag(
        self,
        nodes: Sequence[dict],
        *,
        address: str = "",
        dag_id: str = "",
        timeout: Optional[float] = None,
        on_node=None,
    ) -> Promise:
        """Submit a dependency graph of solves in one message.

        ``nodes`` is a sequence of dicts — ``{"id", "problem",
        "inputs", "keep", "emit"}`` — where inputs may be values,
        :class:`DataHandle` stubs, or :class:`NodeOutput` references to
        a predecessor's output (see :mod:`repro.dag` for a builder that
        validates the graph before anything hits the wire).  The server
        resolves node inputs from its resident results and executes in
        dependency order through its normal admission machinery.

        Routing: ``address`` wins; otherwise the graph is sent to the
        home of the first :class:`DataHandle` found in a node's inputs
        (an iterative workload's DAG belongs where its data lives).
        The promise resolves with the outputs tuple of the graph's
        ``emit`` nodes (terminal nodes when none is marked); it rejects
        with :class:`RequestFailed` naming the failed node, after
        streaming each :class:`DagNodeDone` to ``on_node``.  ``timeout``
        bounds the silence *between* node completions, not the whole
        graph (default: ``cfg.server_timeout``).
        """
        promise = self.node.promise()
        target = address
        if not target:
            for node in nodes:
                for value in node.get("inputs", ()):
                    if isinstance(value, DataHandle) and value.address:
                        target = value.address
                        break
                if target:
                    break
        if not target:
            promise.reject(
                NetSolveError(
                    "submit_dag needs a server address (none given, and "
                    "no input handle carries one)"
                )
            )
            return promise
        dag_id = dag_id or f"{self.client_id}/dag{next(self._dag_ids)}"
        if dag_id in self._dags:
            promise.reject(NetSolveError(f"dag id {dag_id!r} already in flight"))
            return promise
        interval = timeout if timeout is not None else self.cfg.server_timeout
        self._dags[dag_id] = _DagState(promise, on_node, interval, target)
        self._trace("dag_submitted", dag_id=dag_id, server=target,
                    nodes=len(nodes))
        self.dag_submits += 1
        self.node.send(
            target,
            SubmitDag(
                dag_id=dag_id,
                nodes=tuple(dict(node) for node in nodes),
                reply_to=self.node.address,
            ),
        )
        self._arm_dag_timeout(dag_id)
        return promise

    def _arm_dag_timeout(self, dag_id: str) -> None:
        def fire() -> None:
            state = self._dags.pop(dag_id, None)
            if state is None or state.promise.done:
                return
            self._trace("dag_timeout", dag_id=dag_id, server=state.address)
            state.promise.reject(
                RequestFailed(
                    0, f"server {state.address!r} went silent on dag "
                    f"{dag_id!r}"
                )
            )

        state = self._dags[dag_id]
        self._deadlines.arm(("dag", dag_id), state.interval, fire)

    @handles(DagNodeDone)
    def _on_dag_node_done(self, src: str, msg: DagNodeDone) -> None:
        state = self._dags.get(msg.dag_id)
        if state is None:
            return  # late progress for a dag we already gave up on
        # progress resets the liveness window: a deep graph is allowed
        # interval seconds per node, not per graph
        self._arm_dag_timeout(msg.dag_id)
        self._trace(
            "dag_node_done", dag_id=msg.dag_id, node=msg.node, ok=msg.ok,
            remaining=msg.remaining,
        )
        if state.on_node is not None:
            state.on_node(msg)

    @handles(DagReply)
    def _on_dag_reply(self, src: str, msg: DagReply) -> None:
        state = self._dags.pop(msg.dag_id, None)
        if state is None:
            return
        self._deadlines.cancel(("dag", msg.dag_id))
        if state.promise.done:
            return
        if msg.ok:
            self._trace("dag_done", dag_id=msg.dag_id)
            state.promise.resolve(tuple(msg.outputs))
        else:
            self._trace(
                "dag_failed", dag_id=msg.dag_id,
                failed_node=msg.failed_node, detail=msg.detail,
            )
            error = RequestFailed(
                0,
                f"dag {msg.dag_id!r} failed"
                + (f" at node {msg.failed_node!r}" if msg.failed_node else "")
                + f": {msg.detail}",
            )
            # typed context for callers that recover (re-store + retry)
            error.error_kind = msg.error_kind
            error.missing = tuple(msg.missing)
            error.failed_node = msg.failed_node
            state.promise.reject(error)

    def fetch_result(
        self, server_address: str, request_id: int, *, client: str = ""
    ) -> Promise:
        """Recover a finished result from a server's persistent job store.

        The crash-recovery half of the non-blocking API: a client that
        submitted work, died, and reconnected asks the server for the
        outcome it never received.  ``client`` names the original
        requester's address when this endpoint is a different node (the
        store is keyed by who the reply was owed to); empty means "me".

        The promise resolves with the :class:`ResultStatus` message —
        ``status`` is ``"done"`` (outputs present), ``"failed"`` (the
        compute errored; ``detail`` says why), ``"unknown"`` (no such
        row), or ``"unsupported"`` (server runs without a store) — and
        rejects only when the server never answers.
        """
        promise = self.node.promise()
        waiting = self._fetching.setdefault((server_address, request_id), [])
        waiting.append(promise)
        if len(waiting) == 1:
            self.fetches += 1

            def send_fetch(attempt: int) -> None:
                self._trace(
                    "fetch_sent", request_id=request_id, server=server_address
                )
                self.node.send(
                    server_address,
                    FetchResult(request_id=request_id, client=client),
                )

            def exhausted() -> None:
                batch = self._fetching.pop((server_address, request_id), [])
                for p in batch:
                    if not p.done:
                        p.reject(
                            RequestFailed(
                                request_id,
                                f"server {server_address!r} did not answer "
                                f"FetchResult",
                            )
                        )

            # server-directed: there is no agent list to rotate through,
            # but the wire has no retransmission either, so a dropped
            # FetchResult is re-sent instead of failing on one silence
            RetryChain(
                self._deadlines,
                ("fetch", server_address, request_id),
                interval=self.cfg.server_timeout,
                attempts=self.cfg.agent_retries,
                send=send_fetch,
                on_exhausted=exhausted,
            ).start()
        return promise

    @handles(ResultStatus)
    def _on_result_status(self, src: str, msg: ResultStatus) -> None:
        self._deadlines.cancel(("fetch", src, msg.request_id))
        for promise in self._fetching.pop((src, msg.request_id), []):
            if not promise.done:
                promise.resolve(msg)

    @handles(StoreAck)
    def _on_store_ack(self, src: str, msg: StoreAck) -> None:
        self._deadlines.cancel(("store", src, msg.key))
        for promise, want_handle in self._storing.pop((src, msg.key), []):
            if promise.done:
                continue
            if msg.ok:
                promise.resolve(msg.handle if want_handle else msg.nbytes)
            else:
                promise.reject(RequestFailed(0, msg.detail or "store refused"))

    def submit_pinned(
        self, problem: str, args: Sequence[Any], server_address: str,
        *, server_id: str = "", keep_result: bool = False,
        payloads: Optional[dict] = None,
    ) -> RequestHandle:
        """Submit directly to one server, bypassing the agent.

        This is the execution half of request sequencing: arguments may
        contain :class:`ObjectRef` placeholders (or :class:`DataHandle`
        stubs) for operands previously :meth:`store`\\ d there.  No
        fail-over — a pinned request lives and dies with its server (the
        sequence's data is there).  ``keep_result`` and ``payloads``
        behave as in :meth:`submit`: the one recovery a pinned request
        does get is re-sending *to the same server* with ``payloads``
        inlined when it answers that a referenced key is gone.
        """
        rid = next(self._rids)
        record = RequestRecord(
            request_id=rid, problem=problem, sizes={},
            t_submit=self.node.now(),
        )
        handle = RequestHandle(record, self.node.promise())
        self.records.append(record)
        req = _Active(handle, problem, list(args))
        req.pinned = True
        req.keep_result = keep_result
        req.payloads = dict(payloads or {})
        self._active[rid] = req
        self._trace(
            "submit_pinned", request_id=rid, problem=problem,
            server=server_address,
        )
        self.pinned_submits += 1
        if self.spans is not None:
            req.span = self.spans.begin(
                rid, problem, self.client_id, record.t_submit
            )
        spec = self._specs.get(problem)
        refs = any(isinstance(a, (ObjectRef, DataHandle)) for a in args)
        if spec is not None and not refs:
            try:
                coerced, env = validate_inputs(spec, list(args))
            except BadArgumentsError as exc:
                self._finish(req, exc)
                return handle
            req.inputs = tuple(coerced)
            req.env = env
            record.sizes = dict(env)
        else:
            # refs resolve server-side; validation happens there
            req.inputs = tuple(args)
        req.candidates = deque(
            [Candidate(
                server_id=server_id or server_address,
                address=server_address,
                host="",
                predicted_seconds=0.0,
            )]
        )
        self._try_next(req)
        return handle

    def query_candidates(
        self, problem: str, sizes: dict, *, exclude: tuple = ()
    ) -> Promise:
        """Ask the agent for its ranked candidate list without submitting.

        Resolves with ``list[Candidate]`` (possibly after the agent notes
        an assignment to the head — exactly as a real query would);
        rejects with :class:`RequestFailed` on unknown problems, empty
        pools, or agent silence.  Used by sequencing to pick a pin.
        """
        promise = self.node.promise()
        # negative tags cannot collide with request ids (always >= 1)
        tag = -next(self._rids)
        self._queries[tag] = promise

        def exhausted() -> None:
            pending = self._queries.pop(tag, None)
            if pending is not None and not pending.done:
                pending.reject(RequestFailed(0, "agent did not answer query"))

        RetryChain(
            self._deadlines,
            ("qtag", tag),
            interval=self.cfg.agent_timeout,
            attempts=self._agent_attempts(),
            send=lambda attempt: self.node.send(
                self.agent_address,
                QueryRequest(
                    problem=problem,
                    sizes={k: int(v) for k, v in sizes.items()},
                    client_host=self.node.host_name,
                    exclude=tuple(exclude),
                    tag=tag,
                ),
            ),
            on_retry=lambda attempt: self._rotate_agent("query_candidates"),
            on_exhausted=exhausted,
        ).start()
        return promise

    def _on_candidate_query_reply(self, msg: QueryReply) -> bool:
        promise = self._queries.pop(msg.tag, None)
        if promise is None:
            return False
        self._deadlines.cancel(("qtag", msg.tag))
        if not promise.done:
            if msg.ok:
                promise.resolve(msg.candidate_list())
            else:
                promise.reject(RequestFailed(0, msg.detail))
        return True

    def describe(self, problem: str) -> Promise:
        """Fetch a problem's spec from the agent (cached after first use).

        Resolves with the :class:`ProblemSpec`; rejects with
        :class:`ProblemNotFoundError` when the agent does not know it.
        """
        promise = self.node.promise()
        spec = self._specs.get(problem)
        if spec is not None:
            promise.resolve(spec)
            return promise
        waiting = self._spec_waiters.setdefault(problem, [])
        waiting.append(promise)
        if problem not in self._describing:
            self._describing.setdefault(problem, [])
            self._start_describe(problem)
        return promise

    def list_problems(self, prefix: str = "") -> Promise:
        """Browse the agent's catalogue; promise resolves with a name tuple."""
        promise = self.node.promise()
        waiting = self._listing.setdefault(prefix, [])
        waiting.append(promise)
        if len(waiting) == 1:
            def exhausted() -> None:
                # a ProblemList reply cancels the chain's deadline as it
                # pops the batch, and a later list on the same prefix
                # arms a fresh generation, so only the batch that armed
                # the timer can die here
                batch = self._listing.pop(prefix, [])
                for p in batch:
                    if not p.done:
                        p.reject(
                            RequestFailed(0, "agent did not answer ListProblems")
                        )

            RetryChain(
                self._deadlines,
                ("list", prefix),
                interval=self.cfg.agent_timeout,
                attempts=self._agent_attempts(),
                send=lambda attempt: self.node.send(
                    self.agent_address, ListProblems(prefix=prefix)
                ),
                on_retry=lambda attempt: self._rotate_agent("list"),
                on_exhausted=exhausted,
            ).start()
        return promise

    @handles(ProblemList)
    def _on_problem_list(self, src: str, msg: ProblemList) -> None:
        self._deadlines.cancel(("list", msg.prefix))
        for promise in self._listing.pop(msg.prefix, []):
            if not promise.done:
                promise.resolve(tuple(msg.names))

    # ------------------------------------------------------------------
    @property
    def active_requests(self) -> int:
        return len(self._active)

    def _trace(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.log(self.node.now(), self.node.address, kind, **fields)

    def _finish(self, req: _Active, error: Optional[NetSolveError], value=None):
        rid = req.record.request_id
        self._deadlines.cancel(rid)
        self._active.pop(rid, None)
        now = self.node.now()
        req.record.t_done = now
        if error is None:
            req.record.status = RequestStatus.DONE
            self._trace("request_done", request_id=rid)
            self.requests_done += 1
            self._request_seconds.observe(now - req.record.t_submit)
            if req.span is not None:
                req.span.finish(now, RequestStatus.DONE.value)
            req.handle.promise.resolve(value)
        else:
            req.record.status = RequestStatus.FAILED
            req.record.error = str(error)
            self._trace("request_failed", request_id=rid, error=str(error))
            self.requests_failed += 1
            if req.span is not None:
                req.span.finish(
                    now, RequestStatus.FAILED.value, error=str(error)
                )
            req.handle.promise.reject(error)

    # ------------------------------------------------------------------
    # phase 1: problem description
    # ------------------------------------------------------------------
    def _start_describe(self, problem: str) -> None:
        """Start the one DescribeProblem retry chain for ``problem``: the
        wire has no retransmission, so control messages carry their own
        retry.  A ProblemDescription reply cancels the chain's deadline,
        so a late fire after the answer is structurally impossible."""
        RetryChain(
            self._deadlines,
            ("describe", problem),
            interval=self.cfg.agent_timeout,
            attempts=self.cfg.agent_retries,
            send=lambda attempt: self._send_describe(problem),
            on_retry=lambda attempt: self._describe_retry(problem, attempt),
            on_exhausted=lambda: self._describe_exhausted(problem),
        ).start()

    def _send_describe(self, problem: str) -> None:
        self.describe_sends += 1
        self.node.send(self.agent_address, DescribeProblem(problem=problem))

    def _describe_retry(self, problem: str, attempt: int) -> None:
        self._rotate_agent("describe")
        self._trace("describe_retry", problem=problem, attempt=attempt)
        self.describe_retries += 1

    def _describe_exhausted(self, problem: str) -> None:
        waiting = self._describing.pop(problem, [])
        for req in waiting:
            if req.record.status.terminal:
                continue
            self._finish(
                req,
                RequestFailed(
                    req.record.request_id,
                    "agent did not answer DescribeProblem",
                ),
            )
        for promise in self._spec_waiters.pop(problem, []):
            if not promise.done:
                promise.reject(
                    RequestFailed(0, "agent did not answer DescribeProblem")
                )

    @handles(ProblemDescription)
    def _on_description(self, src: str, msg: ProblemDescription) -> None:
        self._deadlines.cancel(("describe", msg.problem))
        waiting = self._describing.pop(msg.problem, [])
        watchers = self._spec_waiters.pop(msg.problem, [])
        if not msg.ok:
            for req in waiting:
                self._finish(req, ProblemNotFoundError(msg.problem))
            for promise in watchers:
                if not promise.done:
                    promise.reject(ProblemNotFoundError(msg.problem))
            return
        try:
            specs = parse_pdl(msg.pdl, source=f"<agent:{msg.problem}>")
        except NetSolveError:
            specs = []  # unparseable text counts as malformed below
        if len(specs) != 1 or specs[0].name != msg.problem:
            for req in waiting:
                self._finish(
                    req,
                    RequestFailed(
                        req.record.request_id,
                        "agent returned a malformed problem description",
                    ),
                )
            for promise in watchers:
                if not promise.done:
                    promise.reject(
                        RequestFailed(0, "malformed problem description")
                    )
            return
        spec = specs[0]
        self._specs[spec.name] = spec
        for req in waiting:
            if not req.record.status.terminal:
                self._validate_and_query(req, spec)
        for promise in watchers:
            if not promise.done:
                promise.resolve(spec)

    # ------------------------------------------------------------------
    # phase 2: agent negotiation
    # ------------------------------------------------------------------
    def _validate_and_query(self, req: _Active, spec: ProblemSpec) -> None:
        try:
            coerced, env = validate_inputs(spec, req.raw_args)
        except BadArgumentsError as exc:
            self._finish(req, exc)
            return
        req.inputs = tuple(coerced)
        req.env = env
        req.record.sizes = dict(env)
        if self.cfg.cache_digest:
            # digested over the coerced inputs + env — exactly what the
            # server digests after its own validation, so client, agent
            # and server all key the same request identically
            req.digest = solve_digest(req.problem, coerced, env) or ""
        self._query(req)

    def _query(self, req: _Active) -> None:
        rid = req.record.request_id
        req.record.queries += 1
        now = self.node.now()
        req.record.t_query_sent = now
        req.record.status = RequestStatus.QUERYING
        self._trace(
            "query_sent", request_id=rid, exclude=list(req.tried)
        )
        self.queries += 1
        if req.span is not None:
            req.span.begin_phase(
                "query", now, number=req.record.queries,
                excluded=len(req.tried),
            )
        # locality hint: per-server bytes the request references that are
        # already resident there (handle stubs carry home + size).  A
        # handle-free request sends the empty map — the frame and the
        # agent's ranking arithmetic are exactly the pre-handle ones
        resident: dict[str, int] = {}
        for value in req.inputs or ():
            if (
                isinstance(value, DataHandle)
                and value.server_id
                and value.nbytes > 0
            ):
                resident[value.server_id] = (
                    resident.get(value.server_id, 0) + int(value.nbytes)
                )
        self.node.send(
            self.agent_address,
            QueryRequest(
                problem=req.problem,
                sizes={k: int(v) for k, v in req.env.items()},
                client_host=self.node.host_name,
                exclude=tuple(req.tried),
                tag=rid,
                digest=req.digest,
                resident=resident,
                qos=req.qos,
            ),
        )
        self._deadlines.arm(
            rid, self.cfg.agent_timeout, lambda: self._agent_timed_out(rid)
        )

    def _agent_timed_out(self, rid: int) -> None:
        req = self._active.get(rid)
        if req is None or req.record.status is not RequestStatus.QUERYING:
            return
        if req.query_silences < self.cfg.agent_retries:
            req.query_silences += 1
            self._rotate_agent("query")
            self._trace(
                "query_retry", request_id=rid, attempt=req.query_silences
            )
            self.query_retries += 1
            self._query(req)
            return
        self._finish(req, RequestFailed(rid, "agent did not answer query"))

    @handles(QueryReply)
    def _on_query_reply(self, src: str, msg: QueryReply) -> None:
        if msg.tag < 0 and self._on_candidate_query_reply(msg):
            return
        req = self._active.get(msg.tag)
        if req is None or req.record.status is not RequestStatus.QUERYING:
            return  # late or duplicate reply
        self._deadlines.cancel(msg.tag)
        now = self.node.now()
        req.record.t_candidates = now
        if req.record.t_query_sent is not None:
            self._negotiation_seconds.observe(now - req.record.t_query_sent)
        if msg.ok and msg.cached:
            # the agent answered the solve itself from its hot cache:
            # one RTT, no server ever touched — the request is done
            self._trace(
                "cached_answer", request_id=req.record.request_id
            )
            self.cached_replies += 1
            if req.span is not None:
                req.span.end_phase(now, outcome="cached")
            self._finish(req, None, tuple(msg.outputs))
            return
        if not msg.ok:
            if msg.retryable and req.query_silences < self.cfg.agent_retries:
                # the pool may recover (suspected servers report back in,
                # or the agent's probe revives a falsely-blamed one):
                # back off one timeout floor and ask again with a clean
                # slate — permanent exclusions would wedge small pools
                req.query_silences += 1
                req.tried.clear()
                self._trace(
                    "query_backoff",
                    request_id=req.record.request_id,
                    attempt=req.query_silences,
                )
                self.query_backoffs += 1
                if req.span is not None:
                    req.span.begin_phase(
                        "backoff", now, attempt=req.query_silences
                    )
                self._deadlines.arm(
                    msg.tag, self.cfg.timeout_floor, lambda: self._query(req)
                )
                return
            self._finish(
                req, RequestFailed(req.record.request_id, msg.detail)
            )
            return
        candidates = msg.candidate_list()
        if not candidates:
            # ok=True with an empty list is a degenerate agent reply;
            # treat it like a retryable empty pool (bounded backoff)
            # rather than looping the query forever
            if req.query_silences < self.cfg.agent_retries:
                req.query_silences += 1
                req.tried.clear()
                self._trace(
                    "query_backoff",
                    request_id=req.record.request_id,
                    attempt=req.query_silences,
                )
                self.query_backoffs += 1
                if req.span is not None:
                    req.span.begin_phase(
                        "backoff", now, attempt=req.query_silences
                    )
                self._deadlines.arm(
                    msg.tag, self.cfg.timeout_floor, lambda: self._query(req)
                )
            else:
                self._finish(
                    req,
                    RequestFailed(
                        req.record.request_id, "agent returned no candidates"
                    ),
                )
            return
        req.candidates = deque(candidates)
        self._trace(
            "candidates",
            request_id=req.record.request_id,
            servers=[c.server_id for c in req.candidates],
        )
        if req.span is not None:
            req.span.end_phase(now, candidates=len(candidates))
        self._try_next(req)

    # ------------------------------------------------------------------
    # phase 3: attempts & the fault-tolerance loop
    # ------------------------------------------------------------------
    def _try_next(self, req: _Active) -> None:
        rid = req.record.request_id
        if len(req.record.attempts) >= self.cfg.max_retries:
            self._finish(
                req,
                RequestFailed(
                    rid,
                    f"retry budget exhausted after "
                    f"{len(req.record.attempts)} attempt(s)",
                ),
            )
            return
        if not req.candidates:
            if req.pinned:
                self._finish(
                    req,
                    RequestFailed(rid, "pinned request failed on its server"),
                )
            elif self.cfg.requery_agent:
                self._query(req)
            else:
                self._finish(req, RequestFailed(rid, "candidate list exhausted"))
            return
        cand = req.candidates.popleft()
        if cand.endpoint:
            self.node.learn_endpoint(cand.address, cand.endpoint)
        req.current = cand
        attempt = AttemptRecord(
            server_id=cand.server_id,
            address=cand.address,
            predicted_seconds=cand.predicted_seconds,
            t_sent=self.node.now(),
        )
        req.attempt = attempt
        req.record.attempts.append(attempt)
        req.record.status = RequestStatus.EXECUTING
        self._trace(
            "attempt",
            request_id=rid,
            server_id=cand.server_id,
            predicted=cand.predicted_seconds,
        )
        self.attempts += 1
        if req.span is not None:
            req.span.begin_phase(
                "attempt", attempt.t_sent, server=cand.server_id,
                number=len(req.record.attempts),
                predicted=round(cand.predicted_seconds, 6),
            )
        assert req.inputs is not None
        self.node.send(
            cand.address,
            SolveRequest(
                request_id=rid,
                problem=req.problem,
                inputs=req.inputs,
                reply_to=self.node.address,
                keep_result=req.keep_result,
                qos=req.qos,
            ),
        )
        if cand.predicted_seconds > 0:
            timeout = min(
                self.cfg.server_timeout,
                max(
                    self.cfg.timeout_floor,
                    self.cfg.timeout_factor * cand.predicted_seconds,
                ),
            )
        else:  # pinned submit: no prediction to scale from
            timeout = self.cfg.server_timeout
        self._deadlines.arm(
            rid, timeout, lambda: self._attempt_timed_out(rid, cand.server_id)
        )

    def _attempt_timed_out(self, rid: int, server_id: str) -> None:
        req = self._active.get(rid)
        if (
            req is None
            or req.record.status is not RequestStatus.EXECUTING
            or req.current is None
            or req.current.server_id != server_id
        ):
            return
        assert req.attempt is not None
        now = self.node.now()
        req.attempt.t_end = now
        req.attempt.outcome = "timeout"
        self._trace("attempt_timeout", request_id=rid, server_id=server_id)
        self.attempt_timeouts += 1
        if req.span is not None:
            req.span.end_phase(now, outcome="timeout")
        self._report_failure(req, "timeout")
        self._try_next(req)

    def _report_failure(
        self, req: _Active, detail: str, *, kind: str = "", suspect: bool = True
    ) -> None:
        assert req.current is not None
        req.tried.append(req.current.server_id)
        if not req.pinned and suspect:
            # pinned requests bypassed the agent on the way in, so their
            # failures must bypass it on the way out: reporting one would
            # penalise the server's suspicion state for a request the
            # agent never scheduled (the attempt record still stands)
            self.failovers += 1
            self.node.send(
                self.agent_address,
                FailureReport(
                    server_id=req.current.server_id,
                    problem=req.problem,
                    detail=detail,
                    kind=kind,
                ),
            )
        req.current = None
        req.attempt = None

    def _report_transfer(self, req: _Active) -> None:
        """Tell the agent what the path actually delivered (NWS loop)."""
        attempt = req.attempt
        assert attempt is not None and req.current is not None
        spec = self._specs.get(req.problem)
        if spec is None or attempt.elapsed is None or not req.current.host:
            return  # pinned submits carry no host; nothing to learn on
        transfer_seconds = attempt.elapsed - attempt.compute_seconds
        nbytes = spec.input_bytes(req.env) + spec.output_bytes(req.env)
        for value in req.inputs or ():
            # handle operands homed on the server never crossed the wire;
            # counting them would inflate the learned bandwidth belief
            if (
                isinstance(value, DataHandle)
                and value.server_id == req.current.server_id
            ):
                nbytes -= value.nbytes
        if transfer_seconds <= 0 or nbytes <= 0:
            return
        self.node.send(
            self.agent_address,
            TransferReport(
                client_host=self.node.host_name,
                server_host=req.current.host,
                nbytes=int(nbytes),
                seconds=float(transfer_seconds),
            ),
        )

    @handles(SolveReply)
    def _on_solve_reply(self, src: str, msg: SolveReply) -> None:
        req = self._active.get(msg.request_id)
        if (
            req is None
            or req.record.status is not RequestStatus.EXECUTING
            or req.current is None
            or src != req.current.address
        ):
            return  # reply from an attempt we already gave up on
        self._deadlines.cancel(msg.request_id)
        assert req.attempt is not None
        now = self.node.now()
        req.attempt.t_end = now
        req.attempt.compute_seconds = msg.compute_seconds
        elapsed = now - req.attempt.t_sent
        self._attempt_seconds.observe(elapsed)
        if req.attempt.predicted_seconds > 0:
            self._prediction_error_seconds.observe(
                elapsed - req.attempt.predicted_seconds
            )
        if msg.ok:
            req.attempt.outcome = "ok"
            req.attempt.cached = msg.cached
            self.attempt_ok += 1
            if msg.cached:
                self.cached_replies += 1
            if req.span is not None:
                req.span.end_phase(now, outcome="ok")
            if self.cfg.report_transfers:
                self._report_transfer(req)
            self._finish(req, None, tuple(msg.outputs))
        elif msg.error_kind == "missing_object":
            # a referenced operand is no longer resident (TTL lapse,
            # eviction, server death between store and solve).  This is
            # retryable data-placement drift, not a server fault
            req.attempt.outcome = "missing"
            req.attempt.detail = msg.detail
            if req.span is not None:
                req.span.end_phase(now, outcome="missing")
            if (
                not req.resubmitted
                and req.payloads
                and all(key in req.payloads for key in msg.missing)
            ):
                # re-submit once to the same server with the lost
                # operands inlined — no FailureReport, no fail-over
                req.resubmitted = True
                gone = set(msg.missing)
                assert req.inputs is not None
                req.inputs = tuple(
                    req.payloads[value.key]
                    if isinstance(value, (ObjectRef, DataHandle))
                    and value.key in gone
                    else value
                    for value in req.inputs
                )
                self._trace(
                    "resubmit_with_payload",
                    request_id=msg.request_id,
                    server_id=req.current.server_id,
                    missing=list(msg.missing),
                )
                self.payload_resubmits += 1
                req.candidates.appendleft(req.current)
                req.current = None
                req.attempt = None
                self._try_next(req)
                return
            self._trace(
                "attempt_missing_object",
                request_id=msg.request_id,
                server_id=req.current.server_id,
                missing=list(msg.missing),
            )
            self.attempt_errors += 1
            # without payloads in hand the best move is the next
            # candidate; the server is healthy, so it is not suspected
            self._report_failure(req, msg.detail, suspect=False)
            self._try_next(req)
        else:
            req.attempt.outcome = "error"
            req.attempt.detail = msg.detail
            self._trace(
                "attempt_error",
                request_id=msg.request_id,
                server_id=req.current.server_id,
                detail=msg.detail,
            )
            self.attempt_errors += 1
            if req.span is not None:
                req.span.end_phase(now, outcome="error")
            self._report_failure(req, msg.detail)
            self._try_next(req)

    @handles(Busy)
    def _on_busy(self, src: str, msg: Busy) -> None:
        """Admission refused: the request was never queued there.

        Shaped like a fast server-side error, but classified "busy" on
        the way to the agent so the server is penalised in the ranking
        instead of marked dead, then the normal fault-tolerance loop
        falls through to the next candidate (re-querying with bounded
        backoff once the list runs dry)."""
        req = self._active.get(msg.request_id)
        if (
            req is None
            or req.record.status is not RequestStatus.EXECUTING
            or req.current is None
            or src != req.current.address
        ):
            return  # refusal from an attempt we already gave up on
        self._deadlines.cancel(msg.request_id)
        assert req.attempt is not None
        now = self.node.now()
        req.attempt.t_end = now
        req.attempt.outcome = "busy"
        req.attempt.detail = msg.detail
        self._trace(
            "attempt_busy",
            request_id=msg.request_id,
            server_id=req.current.server_id,
            queue_depth=msg.queue_depth,
        )
        self.busy_failovers += 1
        if req.span is not None:
            req.span.end_phase(now, outcome="busy")
        self._report_failure(req, msg.detail or "busy", kind="busy")
        self._try_next(req)
