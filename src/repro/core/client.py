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

Everything in flight is one of two records.  A solve — brokered or
pinned — is an ``_Active``, and ``_finish`` is the only code that
settles one.  Every other exchange (describe, list, candidate query,
store / delete, fetch, result lookup) is a ``_Call`` in one table,
keyed by what its reply is matched on — a GridRPC call id — and
``_answer`` is the only code that settles one.  A request DAG is a
``_Call`` too, with no message of its own: its nodes are pinned solves,
and ``_answer`` settles the graph once they have.

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
from typing import Any, Hashable, Optional, Sequence

from ..config import ClientConfig
from ..dag import NodeDone, NodeOutput, check_graph, node_refs
from ..errors import (
    BadArgumentsError, MissingObjectError, NetSolveError,
    ProblemNotFoundError, RequestFailed,
)
from ..problems.pdl import parse_pdl
from ..problems.spec import ProblemSpec, validate_inputs
from ..protocol.messages import (
    Busy, Candidate, DataHandle, DeleteObject, DescribeProblem,
    FailureReport, FetchObject, FetchResult, ListProblems, ObjectPayload,
    ProblemDescription, ProblemList, QueryReply, QueryRequest, ResultStatus,
    SolveReply, SolveRequest, StoreAck, StoreObject, TransferReport,
)
from ..protocol.transport import Promise
from ..runtime import DeadlineTable, DispatchComponent, handles
from ..store import solve_digest
from ..trace.events import EventLog
from ..trace.instruments import (
    ERROR_SECONDS_BUCKETS, Metric, MetricsRegistry, track,
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
    """One solve in flight, brokered or pinned."""

    __slots__ = (
        "handle", "record", "problem", "raw_args", "inputs", "env", "digest",
        "candidates", "tried", "current", "attempt", "pinned", "keep_result",
        "payloads", "resubmitted", "query_silences", "span", "qos",
    )

    def __init__(self, handle: RequestHandle, problem: str, raw_args: list,
                 pinned: bool, keep_result: bool, payloads, qos: str):
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
        self.pinned = pinned
        #: ask the server to leave outputs resident (reply carries handles)
        self.keep_result = keep_result
        #: key -> value fallback for handle inputs: a missing-object
        #: error re-submits once with these inlined instead of failing
        self.payloads: dict[str, Any] = dict(payloads or {})
        #: the one payload re-submission has been spent
        self.resubmitted = False
        #: agent silences and empty answers so far (re-query budget)
        self.query_silences = 0
        #: per-request span (None when no SpanLog is attached)
        self.span = None
        #: QoS class carried on the query and the solve ("" = batch)
        self.qos = qos


class _Call:
    """One outstanding control exchange — one GridRPC call.

    ``key`` is what the reply is matched on, and names the call's
    deadline; ``target`` is the server it goes to, or "" for the current
    agent (a resend then rotates the agent list).  ``attempts`` sends
    are allowed, each waiting ``interval`` seconds; then the waiters get
    ``RequestFailed(give_up)``.  ``waiters`` are the promises the answer
    settles (and, on a describe, the solves waiting for the spec).
    ``behind`` holds later calls on the same key that ask something
    different: they go out one at a time, in call order.
    """

    __slots__ = ("key", "target", "msg", "attempts", "interval", "give_up",
                 "waiters", "sent", "behind")

    def __init__(self, key: Hashable, target: str, msg, attempts: int,
                 interval: float, give_up: str, waiter):
        self.key = key
        self.target = target
        self.msg = msg
        self.attempts = attempts
        self.interval = interval
        self.give_up = give_up
        self.waiters: list = [waiter]
        self.sent = 0
        self.behind: list[_Call] = []


class _Graph:
    """One request DAG in flight (``submit_dag``).

    ``users`` counts, per node that feeds others, its consumers still to
    settle; ``held`` keeps the outputs of such a node that is not
    ``keep`` — resident on the server only as edges — until they are
    deleted.  ``answer`` is the graph's answer once every node has
    answered, and ``pulls`` its positions still being fetched.
    """

    __slots__ = ("key", "target", "on_node", "nodes", "users", "emit",
                 "waiting", "outputs", "held", "unsettled", "ended",
                 "answer", "pulls")

    def __init__(self, graph: Sequence[dict], target: str, on_node):
        #: the graph's entry in the call table
        self.key = ("dag", id(self))
        self.target, self.on_node = target, on_node
        self.nodes = {node["id"]: node for node in graph}
        self.users: dict[str, int] = {}
        for node in graph:
            for ref in node_refs(node["inputs"]):
                self.users[ref] = self.users.get(ref, 0) + 1
        #: whose outputs the graph answers with: the emit nodes, else
        #: the terminal ones
        self.emit = ([nid for nid, node in self.nodes.items() if node["emit"]]
                     or [nid for nid in self.nodes if nid not in self.users])
        self.waiting = list(self.nodes)
        self.outputs: dict[str, tuple] = {}
        self.held: dict[str, tuple] = {}
        self.unsettled = len(self.nodes)
        self.ended = False
        self.answer: list = []
        self.pulls: set[int] = set()

    def substitute(self, value: Any) -> Any:
        """``value`` with a node reference replaced by that output."""
        if not isinstance(value, NodeOutput):
            return value
        outputs = self.outputs[value.node]
        if not 0 <= value.index < len(outputs):
            raise NetSolveError(
                f"node {value.node!r} produced {len(outputs)} output(s); "
                f"index {value.index} requested"
            )
        return outputs[value.index]


#: calls that change server state: two of them never share one answer
_MUTATIONS = (StoreObject, DeleteObject)


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
               "store/delete operations timed out"),
        Metric("client.fetches", "fetches", "FetchResult lookups started"),
        Metric("client.object_fetches", "object_fetches",
               "FetchObject pulls started"),
        Metric("client.dag_submits", "dag_submits", "request DAGs started"),
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
        #: every control exchange in flight, by the key its reply carries
        self._calls: dict[Hashable, _Call] = {}
        self._active: dict[int, _Active] = {}
        #: every timeout this client arms, keyed and generation-safe;
        #: a ``_Call`` key names a control exchange, a bare request-id
        #: int names the per-request timer (ints and tuples cannot collide)
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
        self._trace("agent_failover", context=context, from_agent=failed,
                    to_agent=self._agents[0])

    def _agent_attempts(self) -> int:
        """Retry budget for one-shot catalogue messages (list/candidates).

        A single-agent deployment keeps the original one-timeout
        semantics; a fleet spends up to ``agent_retries`` attempts so
        the rotation actually gets to try the other agents.
        """
        return max(1, min(self.cfg.agent_retries, len(self._agents)))

    # ------------------------------------------------------------------
    # public API: solves
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: str,
        args: Sequence[Any],
        *,
        server: str = "",
        server_id: str = "",
        keep_result: bool = False,
        payloads: Optional[dict] = None,
        qos: str = "",
    ) -> RequestHandle:
        """Non-blocking submit; returns a handle with a promise.

        ``args`` may hold :class:`DataHandle` references to
        server-resident operands: they ship as constant-size stubs, and
        the agent charges transfer only for what a candidate lacks.
        ``keep_result=True`` leaves the outputs resident on the server,
        answered as handles (pull the bytes with :meth:`fetch`).
        ``payloads`` maps handle keys to values: when a referenced key
        is gone, the request re-sends once with them inlined.  ``qos``
        names the class ("interactive" / "batch" / "background"; ""
        takes ``cfg.default_qos``; see :mod:`repro.core.qos`).

        ``server`` pins the request there (request sequencing), named
        ``server_id`` in its attempt record: the spec is still described
        and the arguments validated, but no agent is asked, and a
        failure there fails the request: no fail-over, no agent report.
        """
        req = self._open(problem, args, server, server_id, keep_result,
                         payloads, qos)
        spec = self._specs.get(problem)
        if spec is not None:
            self._validate_and_query(req, spec)
        else:
            if req.span is not None:
                req.span.begin_phase("describe", req.record.t_submit)
            self._describe(problem, req)
        return req.handle

    def known_problems(self) -> list[str]:
        return sorted(self._specs)

    def install_spec(self, spec: ProblemSpec) -> None:
        """Pre-seed the description cache (skips the DescribeProblem RTT)."""
        self._specs[spec.name] = spec

    # ------------------------------------------------------------------
    # public API: control exchanges (each one ``_call``)
    # ------------------------------------------------------------------
    def describe(self, problem: str) -> Promise:
        """Fetch a problem's spec from the agent (cached after first use).

        Resolves with the :class:`ProblemSpec`; rejects with
        :class:`ProblemNotFoundError` when the agent does not know it.
        """
        spec = self._specs.get(problem)
        if spec is not None:
            return self._settled(spec)
        return self._describe(problem)

    def _describe(self, problem: str, waiter=None) -> Promise:
        # one DescribeProblem exchange per problem: describe() and every
        # submit() of a not-yet-described problem join it
        return self._call(
            ("describe", problem), "", DescribeProblem(problem=problem),
            self.cfg.agent_retries, self.cfg.agent_timeout,
            "agent did not answer DescribeProblem", waiter,
        )

    def list_problems(self, prefix: str = "") -> Promise:
        """Browse the agent's catalogue; promise resolves with a name tuple."""
        return self._call(
            ("list", prefix), "", ListProblems(prefix=prefix),
            self._agent_attempts(), self.cfg.agent_timeout,
            "agent did not answer ListProblems",
        )

    def query_candidates(
        self, problem: str, sizes: dict, *, exclude: tuple = ()
    ) -> Promise:
        """Ask the agent for its ranked candidate list without submitting.

        Resolves with ``list[Candidate]`` (possibly after the agent notes
        an assignment to the head — exactly as a real query would);
        rejects with :class:`RequestFailed` on unknown problems, empty
        pools, or agent silence.  The head is the server to pin a run of
        ``submit(..., server=head.address)`` calls to.
        """
        # negative tags cannot collide with request ids (always >= 1)
        tag = -next(self._rids)
        return self._call(
            ("query_candidates", tag), "",
            QueryRequest(
                problem=problem,
                sizes={k: int(v) for k, v in sizes.items()},
                client_host=self.node.host_name,
                exclude=tuple(exclude),
                tag=tag,
            ),
            self._agent_attempts(), self.cfg.agent_timeout,
            "agent did not answer query",
        )

    def store(self, server_address: str, key: str, value: Any) -> Promise:
        """Pin ``value`` under ``key`` on a specific server.

        The promise resolves with the :class:`DataHandle` the ack
        carries — digest, size and shape metadata included — so the
        stored operand can be referenced or fetched with no further
        round trip.  It rejects if the server refuses (cache full) or
        never answers.
        """
        return self._call(
            ("store", server_address, key), server_address,
            StoreObject(key=key, value=value), 1, self.cfg.server_timeout,
            f"server {server_address!r} did not ack object {key!r}",
        )

    def delete_stored(self, server_address: str, key: str) -> Promise:
        """Drop a cached object; resolves with the bytes freed (0 when
        the key was not resident)."""
        return self._call(
            ("store", server_address, key), server_address,
            DeleteObject(key=key), 1, self.cfg.server_timeout,
            f"server {server_address!r} did not ack object {key!r}",
        )

    def fetch(
        self, handle: "DataHandle | str", *, address: str = ""
    ) -> Promise:
        """Pull a server-resident object's bytes on demand.

        The read half of the reference path: a ``keep_result`` solve (or
        a DAG with keep nodes) answers with :class:`DataHandle` stubs;
        this turns one back into the value.  ``address`` overrides the
        handle's home (required when ``handle`` is a bare key, or a
        handle that carries none).  The promise resolves with the
        object's value; it rejects with :class:`MissingObjectError` when
        the key is no longer resident (TTL lapse, eviction, server
        restarted the hard way) and :class:`RequestFailed` when the
        server never answers.
        """
        if isinstance(handle, DataHandle):
            key, target = handle.key, address or handle.address
        else:
            key, target = str(handle), address
        if not target:
            return self._settled(NetSolveError(
                f"fetch of {key!r} needs a server address "
                f"(the reference carries none)"
            ))
        return self._call(
            ("objfetch", target, key), target,
            FetchObject(key=key, reply_to=self.node.address),
            self.cfg.agent_retries, self.cfg.server_timeout,
            f"server {target!r} did not answer FetchObject for {key!r}",
        )

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
        # the wire has no retransmission, so a dropped FetchResult is
        # re-sent instead of failing on one silence
        return self._call(
            ("fetch", server_address, request_id), server_address,
            FetchResult(request_id=request_id, client=client),
            self.cfg.agent_retries, self.cfg.server_timeout,
            f"server {server_address!r} did not answer FetchResult",
        )

    def submit_dag(
        self,
        nodes: Sequence[dict],
        *,
        address: str = "",
        on_node=None,
    ) -> Promise:
        """Run a dependency graph of solves (see :mod:`repro.dag`) on
        one server; a bad graph rejects here, before anything is sent.

        Routing: ``address`` wins; otherwise the home of the first
        :class:`DataHandle` found in a node's inputs.  Each node is a
        ``submit`` pinned there, sent once its predecessors have
        answered, with every reference replaced by the predecessor's
        output.  A node that feeds others keeps its outputs resident, so
        an edge is a handle; unless the node is ``keep``, they are
        deleted once its consumers have settled.

        The promise resolves with the outputs of the ``emit`` nodes in
        node order (default: the terminal nodes; ``keep`` nodes answer
        with handles).  It rejects with :class:`RequestFailed` at the
        first failed node, carrying ``failed_node``, ``error_kind`` and
        ``missing``; no node is sent after that.  ``on_node`` is handed
        a :class:`~repro.dag.NodeDone` as each node settles.
        """
        try:
            graph = check_graph(nodes)
        except NetSolveError as exc:
            return self._settled(exc)
        target = address or next(
            (
                value.address
                for node in graph for value in node["inputs"]
                if isinstance(value, DataHandle) and value.address
            ),
            "",
        )
        if not target:
            return self._settled(NetSolveError(
                "submit_dag needs a server address (none given, and "
                "no input handle carries one)"
            ))
        run = _Graph(graph, target, on_node)
        promise = self.node.promise()
        # a call with no message of its own: the node solves drive it,
        # and _answer settles it
        self._calls[run.key] = _Call(run.key, target, None, 0, 0.0, "",
                                     promise)
        self._trace("dag_submitted", server=target, nodes=len(graph))
        self.dag_submits += 1
        self._dag_send_ready(run)
        return promise

    def _dag_send_ready(self, run: _Graph) -> None:
        """Submit every waiting node whose predecessors have answered."""
        waiting, run.waiting = run.waiting, []
        for nid in waiting:
            node = run.nodes[nid]
            if run.ended or not node_refs(node["inputs"]) <= run.outputs.keys():
                run.waiting.append(nid)  # not ready, or the graph ended
                continue
            try:
                args = [run.substitute(v) for v in node["inputs"]]
            except NetSolveError as exc:
                self._dag_fail(run, nid, str(exc))
                continue
            handle = self.submit(node["problem"], args, server=run.target,
                                 keep_result=node["keep"] or nid in run.users)
            handle.promise.on_settled(
                lambda _p, nid=nid, handle=handle:
                self._dag_settled(run, nid, handle)
            )

    def _dag_settled(self, run: _Graph, nid: str,
                     handle: RequestHandle) -> None:
        run.unsettled -= 1
        node, error = run.nodes[nid], handle.promise.error
        if run.ended:  # in flight when the graph failed: drop its edges
            if error is None and not node["keep"]:
                self._dag_delete(run, handle.result())
            return
        attempt = (handle.record.attempts or [None])[-1]
        if error is not None:
            detail = attempt.detail if attempt and attempt.detail else str(error)
            if run.on_node is not None:
                run.on_node(NodeDone(nid, False, detail,
                                     remaining=run.unsettled))
            self._dag_fail(run, nid, detail,
                           attempt.missing if attempt else ())
            return
        run.outputs[nid] = outputs = handle.result()
        if nid in run.users and not node["keep"]:
            run.held[nid] = outputs
        self._trace("dag_node_done", node=nid, request_id=handle.request_id,
                    remaining=run.unsettled)
        if run.on_node is not None:
            run.on_node(NodeDone(nid, True, "", attempt.compute_seconds,
                                 attempt.cached, run.unsettled))
        spent = node_refs(node["inputs"])
        for dep in spent:
            run.users[dep] -= 1
        if run.unsettled:
            self._dag_send_ready(run)
        else:
            # every node answered: fetch what an emitted node kept only
            # as an edge, then answer
            owners = [e for e in run.emit for _ in run.outputs[e]]
            run.answer = [v for e in run.emit for v in run.outputs[e]]
            run.pulls = {i for i, e in enumerate(owners) if e in run.held
                         and isinstance(run.answer[i], DataHandle)}
            for i in sorted(run.pulls):
                self.fetch(run.answer[i]).on_settled(
                    lambda p, i=i: self._dag_pulled(run, owners[i], i, p)
                )
            if not run.pulls:
                self._dag_end(run, tuple(run.answer))
        # after the sends: a delete must not delay the next node's request
        for dep in spent:
            if not run.users[dep] and dep not in run.emit:
                self._dag_delete(run, run.held.pop(dep, ()))

    def _dag_pulled(self, run: _Graph, nid: str, i: int,
                    promise: Promise) -> None:
        if run.ended:
            return
        if promise.error is not None:
            self._dag_fail(run, nid, str(promise.error),
                           getattr(promise.error, "keys", ()))
            return
        run.answer[i] = promise.result()
        run.pulls.discard(i)
        if not run.pulls:
            self._dag_end(run, tuple(run.answer))

    def _dag_fail(self, run: _Graph, nid: str, detail: str,
                  missing: tuple = ()) -> None:
        self._trace("dag_failed", failed_node=nid, detail=detail)
        error = RequestFailed(0, f"dag failed at node {nid!r}: {detail}")
        # typed context for callers that recover (re-store + retry)
        error.failed_node = nid
        error.error_kind = "missing_object" if missing else ""
        error.missing = tuple(missing)
        self._dag_end(run, error)

    def _dag_end(self, run: _Graph, outcome) -> None:
        """Answer the graph: nothing is sent for it after this, and the
        edges still resident are deleted."""
        run.ended = True
        for outputs in run.held.values():
            self._dag_delete(run, outputs)
        run.held.clear()
        if not isinstance(outcome, NetSolveError):
            self._trace("dag_done", server=run.target)
        self._answer(run.key, outcome)

    def _dag_delete(self, run: _Graph, outputs: tuple) -> None:
        # not awaited: nothing waits on a delete, and one that is lost
        # leaves the object to the server's handle TTL
        for value in outputs:
            if isinstance(value, DataHandle):
                self.delete_stored(run.target, value.key)

    # ------------------------------------------------------------------
    # the control-exchange lifecycle: _call -> _send / _expire -> _answer
    # ------------------------------------------------------------------
    def _call(self, key: Hashable, target: str, msg, attempts: int,
              interval: float, give_up: str, waiter=None) -> Promise:
        """Start the exchange ``msg`` on ``key``, or wait on one already
        asking exactly the same; returns the waiter's promise.

        A different question on a busy key — a second store or delete of
        one object, a lookup under another attribution — queues behind
        it and is sent once the exchange ahead has been answered, so
        operations on one key apply in call order.
        """
        if waiter is None:
            waiter = self.node.promise()
        head = self._calls.get(key)
        if head is not None and not isinstance(msg, _MUTATIONS):
            for call in (head, *head.behind):
                if call.msg == msg:
                    call.waiters.append(waiter)
                    return waiter
        call = _Call(key, target, msg, attempts, interval, give_up, waiter)
        if head is not None:
            head.behind.append(call)
        else:
            self._calls[key] = call
            self._send(call)
        return waiter

    def _send(self, call: _Call) -> None:
        """(Re-)send ``call`` and arm its deadline."""
        kind = call.key[0]
        call.sent += 1
        if call.sent > 1 and not call.target:
            self._rotate_agent(kind)
        if kind == "describe":
            if call.sent > 1:
                self._trace("describe_retry", problem=call.msg.problem,
                            attempt=call.sent)
                self.describe_retries += 1
            self.describe_sends += 1
        elif kind == "fetch":
            if call.sent == 1:
                self.fetches += 1
            self._trace("fetch_sent", request_id=call.msg.request_id,
                        server=call.target)
        elif kind == "objfetch":
            if call.sent == 1:
                self.object_fetches += 1
            self._trace("object_fetch_sent", key=call.msg.key,
                        server=call.target)
        elif kind == "store":
            self.store_ops += 1
        self.node.send(call.target or self.agent_address, call.msg)
        self._arm(call)

    def _arm(self, call: _Call) -> None:
        # the closure holds the key, not the call: a TCP timer outlives
        # its cancel for a while, and must not pin the call's payload
        key = call.key
        self._deadlines.arm(key, call.interval, lambda: self._expire(key))

    def _expire(self, key: Hashable) -> None:
        """The call on ``key`` met silence: resend while its budget
        lasts, else give up.  (A deadline fires only while the call that
        armed it is the one in the table.)"""
        call = self._calls[key]
        if call.sent < call.attempts:
            self._send(call)
            return
        if call.key[0] == "store":
            self.store_timeouts += 1
        # a FetchResult names its request; every other give-up is request 0
        self._answer(call.key, RequestFailed(
            getattr(call.msg, "request_id", 0), call.give_up
        ))

    def _answer(self, key: Hashable, outcome: Any) -> None:
        """Settle the exchange on ``key`` with a value, or an error.

        The only code that settles a control exchange.  The next call
        queued on the key goes out first; then solves waiting on a
        describe move on (or fail), then promises settle in join order.
        A late or duplicate reply finds no call and is dropped.
        """
        call = self._calls.pop(key, None)
        if call is None:
            return
        self._deadlines.cancel(key)
        if call.behind:
            successor = call.behind.pop(0)
            successor.behind = call.behind
            self._calls[key] = successor
            self._send(successor)
        failed = isinstance(outcome, NetSolveError)
        for waiter in sorted(call.waiters,
                             key=lambda w: not isinstance(w, _Active)):
            if isinstance(waiter, _Active):
                if not failed:
                    self._validate_and_query(waiter, outcome)
                elif isinstance(outcome, RequestFailed):
                    self._finish(waiter, RequestFailed(
                        waiter.record.request_id, outcome.detail
                    ))
                else:
                    self._finish(waiter, outcome)
            elif waiter.done:
                continue
            elif failed:
                waiter.reject(outcome)
            else:
                waiter.resolve(outcome)

    def _settled(self, outcome: Any) -> Promise:
        """A promise answered on the spot (a cached spec, a call with no
        route) — still through :meth:`_answer`."""
        promise = self.node.promise()
        self._calls[None] = _Call(None, "", None, 0, 0.0, "", promise)
        self._answer(None, outcome)
        return promise

    @handles(ProblemDescription)
    def _on_description(self, src: str, msg: ProblemDescription) -> None:
        key = ("describe", msg.problem)
        if not msg.ok:
            self._answer(key, ProblemNotFoundError(msg.problem))
            return
        try:
            specs = parse_pdl(msg.pdl, source=f"<agent:{msg.problem}>")
        except NetSolveError:
            specs = []  # unparseable text counts as malformed below
        if len(specs) != 1 or specs[0].name != msg.problem:
            self._answer(key, RequestFailed(
                0, "agent returned a malformed problem description"
            ))
            return
        self._specs[msg.problem] = specs[0]
        self._answer(key, specs[0])

    @handles(ProblemList)
    def _on_problem_list(self, src: str, msg: ProblemList) -> None:
        self._answer(("list", msg.prefix), tuple(msg.names))

    @handles(StoreAck)
    def _on_store_ack(self, src: str, msg: StoreAck) -> None:
        key = ("store", src, msg.key)
        call = self._calls.get(key)
        if call is None:
            return
        self._answer(key, RequestFailed(0, msg.detail or "store refused")
                     if not msg.ok
                     else msg.handle if isinstance(call.msg, StoreObject)
                     else msg.nbytes)

    @handles(ObjectPayload)
    def _on_object_payload(self, src: str, msg: ObjectPayload) -> None:
        if msg.ok:
            outcome = msg.value
        elif msg.error_kind == "missing_object":
            outcome = MissingObjectError(msg.key)
        else:
            outcome = RequestFailed(0, msg.detail or "object fetch refused")
        self._answer(("objfetch", src, msg.key), outcome)

    @handles(ResultStatus)
    def _on_result_status(self, src: str, msg: ResultStatus) -> None:
        # the reply does not echo the attribution; it answers the one
        # lookup in flight on (server, request id)
        self._answer(("fetch", src, msg.request_id), msg)

    # ------------------------------------------------------------------
    # the solve lifecycle: _open -> _query -> _try_next -> _finish
    # ------------------------------------------------------------------
    @property
    def active_requests(self) -> int:
        return len(self._active)

    def _trace(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.log(self.node.now(), self.node.address, kind, **fields)

    def _open(self, problem: str, args: Sequence[Any], server: str,
              server_id: str, keep_result: bool, payloads,
              qos: str) -> _Active:
        """Build and register one solve: brokered, or pinned to
        ``server``, its one candidate."""
        qos = normalize_qos(qos or self.cfg.default_qos)
        if qos == QOS_DEFAULT:
            qos = ""  # the default class rides the wire as "" (cheaper)
        rid = next(self._rids)
        record = RequestRecord(request_id=rid, problem=problem, sizes={},
                               t_submit=self.node.now())
        req = _Active(RequestHandle(record, self.node.promise()), problem,
                      list(args), bool(server), keep_result, payloads, qos)
        self.records.append(record)
        self._active[rid] = req
        if server:
            # no host and no prediction: nothing to learn, no timeout scale
            req.candidates.append(Candidate(server_id or server, server, "", 0.0))
            self._trace("submit_pinned", request_id=rid, problem=problem,
                        server=server)
            self.pinned_submits += 1
        else:
            self._trace("submit", request_id=rid, problem=problem)
            self.submits += 1
        if self.spans is not None:
            req.span = self.spans.begin(rid, problem, self.client_id,
                                        record.t_submit)
        return req

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
                req.span.finish(now, RequestStatus.FAILED.value,
                                error=str(error))
            req.handle.promise.reject(error)

    def _validate(self, req: _Active, spec: ProblemSpec) -> bool:
        try:
            coerced, env = validate_inputs(spec, req.raw_args)
        except BadArgumentsError as exc:
            self._finish(req, exc)
            return False
        req.inputs = tuple(coerced)
        req.env = env
        req.record.sizes = dict(env)
        return True

    def _validate_and_query(self, req: _Active, spec: ProblemSpec) -> None:
        if not self._validate(req, spec):
            return
        if req.pinned:  # its one candidate is in hand: no agent
            self._try_next(req)
            return
        if self.cfg.cache_digest:
            # digested over the coerced inputs + env — exactly what the
            # server digests after its own validation, so client, agent
            # and server all key the same request identically
            req.digest = solve_digest(req.problem, req.inputs, req.env) or ""
        self._query(req)

    def _query(self, req: _Active) -> None:
        rid = req.record.request_id
        req.record.queries += 1
        now = self.node.now()
        req.record.t_query_sent = now
        req.record.status = RequestStatus.QUERYING
        self._trace("query_sent", request_id=rid, exclude=list(req.tried))
        self.queries += 1
        if req.span is not None:
            req.span.begin_phase("query", now, number=req.record.queries,
                                 excluded=len(req.tried))
        # locality hint: per-server bytes the request references that are
        # already resident there (handle stubs carry home + size).  A
        # handle-free request sends the empty map — the frame and the
        # agent's ranking arithmetic are exactly the pre-handle ones
        resident: dict[str, int] = {}
        for value in req.inputs or ():
            if (isinstance(value, DataHandle) and value.server_id
                    and value.nbytes > 0):
                resident[value.server_id] = (
                    resident.get(value.server_id, 0) + int(value.nbytes)
                )
        self.node.send(self.agent_address, QueryRequest(
            problem=req.problem,
            sizes={k: int(v) for k, v in req.env.items()},
            client_host=self.node.host_name, exclude=tuple(req.tried),
            tag=rid, digest=req.digest, resident=resident, qos=req.qos,
        ))
        # a reply or _finish cancels this, so a fire means silence.  The
        # closure holds the id, not the request: a TCP timer outlives its
        # cancel for a while and must not pin the inputs
        self._deadlines.arm(
            rid, self.cfg.agent_timeout,
            lambda: self._requery(self._active[rid],
                                  "agent did not answer query"),
        )

    def _requery(self, req: _Active, failure: str, *,
                 backoff: bool = False) -> None:
        """The one re-query policy: spend one of ``agent_retries`` on
        asking again, or fail the request with ``failure``.

        After a silence the query goes out again at once, to the next
        agent.  After an empty answer (``backoff``) the pool may
        recover — suspected servers report back in, or the agent's probe
        revives a falsely-blamed one — so the client waits one timeout
        floor and asks again with a clean slate: permanent exclusions
        would wedge small pools.
        """
        rid = req.record.request_id
        if req.query_silences >= self.cfg.agent_retries:
            self._finish(req, RequestFailed(rid, failure))
            return
        req.query_silences += 1
        if not backoff:
            self._rotate_agent("query")
            self._trace("query_retry", request_id=rid,
                        attempt=req.query_silences)
            self.query_retries += 1
            self._query(req)
            return
        req.tried.clear()
        self._trace("query_backoff", request_id=rid,
                    attempt=req.query_silences)
        self.query_backoffs += 1
        if req.span is not None:
            req.span.begin_phase("backoff", self.node.now(),
                                 attempt=req.query_silences)
        self._deadlines.arm(rid, self.cfg.timeout_floor,
                            lambda: self._query(self._active[rid]))

    @handles(QueryReply)
    def _on_query_reply(self, src: str, msg: QueryReply) -> None:
        if msg.tag < 0:  # a query_candidates call, not a solve
            self._answer(("query_candidates", msg.tag), msg.candidate_list()
                         if msg.ok else RequestFailed(0, msg.detail))
            return
        req = self._active.get(msg.tag)
        if req is None or req.record.status is not RequestStatus.QUERYING:
            return  # late or duplicate reply
        self._deadlines.cancel(msg.tag)
        rid = req.record.request_id
        now = self.node.now()
        req.record.t_candidates = now
        if req.record.t_query_sent is not None:
            self._negotiation_seconds.observe(now - req.record.t_query_sent)
        if msg.ok and msg.cached:
            # the agent answered the solve itself from its hot cache:
            # one RTT, no server ever touched — the request is done
            self._trace("cached_answer", request_id=rid)
            self.cached_replies += 1
            if req.span is not None:
                req.span.end_phase(now, outcome="cached")
            self._finish(req, None, tuple(msg.outputs))
            return
        if not msg.ok and not msg.retryable:
            self._finish(req, RequestFailed(rid, msg.detail))
            return
        candidates = msg.candidate_list() if msg.ok else []
        if not candidates:
            # an empty pool, or (degenerate) ok=True with an empty list:
            # back off and ask again, within the budget
            self._requery(req, "agent returned no candidates" if msg.ok
                          else msg.detail, backoff=True)
            return
        req.candidates = deque(candidates)
        self._trace("candidates", request_id=rid,
                    servers=[c.server_id for c in req.candidates])
        if req.span is not None:
            req.span.end_phase(now, candidates=len(candidates))
        self._try_next(req)

    def _try_next(self, req: _Active) -> None:
        rid = req.record.request_id
        if len(req.record.attempts) >= self.cfg.max_retries:
            self._finish(req, RequestFailed(
                rid, f"retry budget exhausted after "
                f"{len(req.record.attempts)} attempt(s)",
            ))
            return
        if not req.candidates:
            if req.pinned:
                self._finish(req, RequestFailed(
                    rid, "pinned request failed on its server"
                ))
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
            server_id=cand.server_id, address=cand.address,
            predicted_seconds=cand.predicted_seconds, t_sent=self.node.now(),
        )
        req.attempt = attempt
        req.record.attempts.append(attempt)
        req.record.status = RequestStatus.EXECUTING
        self._trace("attempt", request_id=rid, server_id=cand.server_id,
                    predicted=cand.predicted_seconds)
        self.attempts += 1
        if req.span is not None:
            req.span.begin_phase(
                "attempt", attempt.t_sent, server=cand.server_id,
                number=len(req.record.attempts),
                predicted=round(cand.predicted_seconds, 6),
            )
        self.node.send(cand.address, SolveRequest(
            request_id=rid, problem=req.problem, inputs=req.inputs,
            reply_to=self.node.address, keep_result=req.keep_result,
            qos=req.qos,
        ))
        if cand.predicted_seconds > 0:
            timeout = min(self.cfg.server_timeout, max(
                self.cfg.timeout_floor,
                self.cfg.timeout_factor * cand.predicted_seconds,
            ))
        else:  # pinned submit: no prediction to scale from
            timeout = self.cfg.server_timeout
        self._deadlines.arm(rid, timeout, lambda: self._attempt_timed_out(rid))

    # ------------------------------------------------------------------
    # attempt ends: a reply, a refusal or a silence
    # ------------------------------------------------------------------
    def _attempt_of(self, rid: int, src: str) -> Optional[_Active]:
        """The request whose current attempt ``src`` answers for (any
        source for a timeout), or None when the answer is for an attempt
        already given up on."""
        req = self._active.get(rid)
        if (req is None or req.record.status is not RequestStatus.EXECUTING
                or (src and src != req.current.address)):
            return None
        return req

    def _end_attempt(self, req: _Active, outcome: str, detail: str = "",
                     event: str = "", /, **fields) -> None:
        """The one attempt-end step: cancel the attempt's deadline,
        stamp its outcome, close its span phase, trace ``event`` and
        count the end."""
        rid = req.record.request_id
        self._deadlines.cancel(rid)
        now = self.node.now()
        req.attempt.t_end = now
        req.attempt.outcome = outcome
        req.attempt.detail = detail
        if event:
            self._trace(event, request_id=rid,
                        server_id=req.current.server_id, **fields)
        if outcome == "ok":
            self.attempt_ok += 1
        elif outcome == "busy":
            self.busy_failovers += 1
        elif outcome == "timeout":
            self.attempt_timeouts += 1
        elif event == "resubmit_with_payload":
            self.payload_resubmits += 1
        else:
            self.attempt_errors += 1
        if req.span is not None:
            req.span.end_phase(now, outcome=outcome)

    def _attempt_timed_out(self, rid: int) -> None:
        req = self._attempt_of(rid, "")
        if req is not None:
            self._end_attempt(req, "timeout", "", "attempt_timeout")
            self._report_failure(req, "timeout")
            self._try_next(req)

    @handles(Busy)
    def _on_busy(self, src: str, msg: Busy) -> None:
        """Admission refused: the request was never queued there.

        Shaped like a fast server-side error, but classified "busy" on
        the way to the agent so the server is penalised in the ranking
        instead of marked dead, then the normal fault-tolerance loop
        falls through to the next candidate (re-querying with bounded
        backoff once the list runs dry)."""
        req = self._attempt_of(msg.request_id, src)
        if req is not None:
            self._end_attempt(req, "busy", msg.detail, "attempt_busy",
                              queue_depth=msg.queue_depth)
            self._report_failure(req, msg.detail or "busy", kind="busy")
            self._try_next(req)

    @handles(SolveReply)
    def _on_solve_reply(self, src: str, msg: SolveReply) -> None:
        req = self._attempt_of(msg.request_id, src)
        if req is None:
            return  # reply from an attempt we already gave up on
        attempt = req.attempt
        attempt.compute_seconds = msg.compute_seconds
        elapsed = self.node.now() - attempt.t_sent
        self._attempt_seconds.observe(elapsed)
        if attempt.predicted_seconds > 0:
            self._prediction_error_seconds.observe(
                elapsed - attempt.predicted_seconds
            )
        if msg.ok:
            attempt.cached = msg.cached
            if msg.cached:
                self.cached_replies += 1
            self._end_attempt(req, "ok")
            self._report_transfer(req)
            self._finish(req, None, tuple(msg.outputs))
            return
        attempt.missing = tuple(msg.missing)
        if msg.error_kind != "missing_object":
            self._end_attempt(req, "error", msg.detail, "attempt_error",
                              detail=msg.detail)
            self._report_failure(req, msg.detail)
        elif req.resubmitted or not req.payloads or not all(
            key in req.payloads for key in msg.missing
        ):
            # a referenced operand is gone and its value is not in hand:
            # the best move is the next candidate.  The server is
            # healthy, so it is not suspected
            self._end_attempt(req, "missing", msg.detail,
                              "attempt_missing_object",
                              missing=list(msg.missing))
            self._report_failure(req, msg.detail, suspect=False)
        else:
            # retryable data-placement drift (TTL lapse, eviction, server
            # death between store and solve): re-submit once to the same
            # server with the lost operands inlined — no FailureReport,
            # no fail-over
            self._end_attempt(req, "missing", msg.detail,
                              "resubmit_with_payload",
                              missing=list(msg.missing))
            req.resubmitted = True
            gone = set(msg.missing)
            req.inputs = tuple(
                req.payloads[value.key]
                if isinstance(value, DataHandle) and value.key in gone
                else value
                for value in req.inputs
            )
            req.candidates.appendleft(req.current)
            req.current = req.attempt = None
        self._try_next(req)

    def _report_failure(
        self, req: _Active, detail: str, *, kind: str = "", suspect: bool = True
    ) -> None:
        req.tried.append(req.current.server_id)
        if not req.pinned and suspect:
            # pinned requests bypassed the agent on the way in, so their
            # failures must bypass it on the way out: reporting one would
            # penalise the server's suspicion state for a request the
            # agent never scheduled (the attempt record still stands)
            self.failovers += 1
            self.node.send(self.agent_address, FailureReport(
                server_id=req.current.server_id, problem=req.problem,
                detail=detail, kind=kind,
            ))
        req.current = None
        req.attempt = None

    def _report_transfer(self, req: _Active) -> None:
        """Tell the agent what the path actually delivered (NWS loop)."""
        attempt = req.attempt
        if attempt.elapsed is None or not req.current.host:
            return  # pinned submits carry no host; nothing to learn on
        spec = self._specs[req.problem]  # every solve is validated first
        transfer_seconds = attempt.elapsed - attempt.compute_seconds
        nbytes = spec.input_bytes(req.env) + spec.output_bytes(req.env)
        for value in req.inputs or ():
            # handle operands homed on the server never crossed the wire;
            # counting them would inflate the learned bandwidth belief
            if (isinstance(value, DataHandle)
                    and value.server_id == req.current.server_id):
                nbytes -= value.nbytes
        if transfer_seconds <= 0 or nbytes <= 0:
            return
        self.node.send(self.agent_address, TransferReport(
            client_host=self.node.host_name, server_host=req.current.host,
            nbytes=int(nbytes), seconds=float(transfer_seconds),
        ))
