"""Typed protocol messages.

Every message is a frozen dataclass with a unique ``TYPE_CODE`` used by
the codec's frame header.  Field values are restricted to what the codec
can carry: None, bool, int, float, complex, str, bytes, ndarray, and
(possibly nested) tuples/lists/dicts of those.

Protocol summary::

    server -> agent : RegisterServer(pdl for its problems) -> RegisterAck
    server -> agent : WorkloadReport (hysteretic policy)
    client -> agent : DescribeProblem -> ProblemDescription (PDL text)
    client -> agent : ListProblems -> ProblemList
    client -> agent : QueryRequest(sizes) -> QueryReply(ranked Candidates;
                      or, on an agent-cache digest hit, the cached
                      outputs directly — no server touched)
    client -> server: SolveRequest(inputs) -> SolveReply(outputs | error;
                      cached=True when answered from the result cache)
    server -> client: Busy (admission cap hit; retry on another server)
    server -> agent : CacheInsert (small hot result published for the
                      agent's one-RTT cache)
    client -> server: FetchResult -> ResultStatus (recover a finished
                      result by request id from the persistent store)
    client -> server: FetchObject -> ObjectPayload (pull the bytes of a
                      server-resident object named by a DataHandle)
    client -> agent : FailureReport (server misbehaved; agent marks
                      suspect — or, for kind="busy", applies a decaying
                      workload penalty instead)
    agent  -> agent : RegisterServer/WorkloadReport/FailureReport/
                      TransferReport/CacheInsert with forwarded=True
                      (ground-truth mirror; never re-forwarded)
    agent  -> agent : QueryRequest with forwarded=True (shard non-owner
                      hops a query once to the owner, who replies
                      directly to the client via reply_to)
    agent  -> agent : SyncDigest -> SyncPull -> SyncState (anti-entropy:
                      periodic fingerprint exchange of each agent's
                      directly-registered servers; a peer that missed a
                      mirror pulls the full entries and heals)
    any    -> any   : Ping -> Pong (liveness)

A request DAG has no message of its own: the client runs it as pinned
solves chained through ``keep_result`` handles (:mod:`repro.dag`).
Type codes 28-30, the retired server-side DAG engine's, stay unused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

from ..errors import ProtocolError

__all__ = [
    "Message",
    "MESSAGE_TYPES",
    "RegisterServer",
    "RegisterAck",
    "WorkloadReport",
    "QueryRequest",
    "Candidate",
    "QueryReply",
    "DescribeProblem",
    "ProblemDescription",
    "ListProblems",
    "ProblemList",
    "SolveRequest",
    "SolveReply",
    "FetchResult",
    "ResultStatus",
    "CacheInsert",
    "Busy",
    "FailureReport",
    "TransferReport",
    "SyncDigest",
    "SyncPull",
    "SyncState",
    "DataHandle",
    "StoreObject",
    "StoreAck",
    "DeleteObject",
    "FetchObject",
    "ObjectPayload",
    "Ping",
    "Pong",
]


#: codec tags the plans pre-encode (``codec.py`` takes its ``_T_STR`` /
#: ``_T_DICT`` from here, so each has one definition)
WIRE_STR_TAG = 4
WIRE_DICT_TAG = 7


class FieldPlan:
    """What the codec needs to know about one message class, worked out
    once: the declared field order, each field's pre-encoded dict key
    (``str tag + u32 length + name``), the body's opening bytes
    (``dict tag + u32 field count``) and the byte count of all of those
    — the part of a frame body that does not depend on field values."""

    __slots__ = ("names", "name_set", "keys", "head", "body_const")

    def __init__(self, cls: type) -> None:
        self.names = tuple(f.name for f in fields(cls))
        self.name_set = frozenset(self.names)
        self.keys = tuple(
            struct.pack("<BI", WIRE_STR_TAG, len(n)) + n.encode("ascii")
            for n in self.names
        )
        self.head = struct.pack("<BI", WIRE_DICT_TAG, len(self.names))
        self.body_const = len(self.head) + sum(map(len, self.keys))


_PLANS: dict[type, FieldPlan] = {}


def field_plan(cls: type) -> FieldPlan:
    """The class's plan: built by ``_register`` for every wire message,
    on first use for an unregistered subclass."""
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = FieldPlan(cls)
    return plan


@dataclass(frozen=True)
class Message:
    """Base class; subclasses must define a unique TYPE_CODE."""

    TYPE_CODE: ClassVar[int] = -1

    def to_fields(self) -> dict[str, Any]:
        return {n: getattr(self, n) for n in field_plan(type(self)).names}

    @classmethod
    def from_fields(cls, data: dict[str, Any]) -> "Message":
        plan = field_plan(cls)
        if data.keys() != plan.name_set:
            extra = set(data) - plan.name_set
            missing = plan.name_set - set(data)
            raise ProtocolError(
                f"{cls.__name__}: bad field set "
                f"(extra={sorted(extra)}, missing={sorted(missing)})"
            )
        # tuples flatten to lists on the wire; restore declared tuples
        return cls(*[
            tuple(v) if isinstance(v, list) else v
            for v in map(data.__getitem__, plan.names)
        ])


MESSAGE_TYPES: dict[int, type[Message]] = {}


def _register(cls: type[Message]) -> type[Message]:
    code = cls.TYPE_CODE
    if code < 0:
        raise ProtocolError(f"{cls.__name__} has no TYPE_CODE")
    if code in MESSAGE_TYPES:
        raise ProtocolError(
            f"duplicate TYPE_CODE {code}: {cls.__name__} vs "
            f"{MESSAGE_TYPES[code].__name__}"
        )
    MESSAGE_TYPES[code] = cls
    field_plan(cls)
    return cls


# ----------------------------------------------------------------------
# server <-> agent
# ----------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class RegisterServer(Message):
    """Server announces itself and uploads its problem descriptions."""

    TYPE_CODE: ClassVar[int] = 1

    server_id: str
    host: str
    mflops: float
    #: PDL text describing every problem this server can solve
    problems_pdl: str
    #: set on agent-to-agent mirror copies (never re-forwarded)
    forwarded: bool = False
    #: the server's own address (mirror copies carry it because the
    #: transport-level src is the forwarding agent, not the server)
    server_address: str = ""
    #: dialable endpoint of the server for cross-process federations
    server_endpoint: str = ""
    #: executor worker count (concurrent compute slots) on this server
    slots: int = 1


@_register
@dataclass(frozen=True)
class RegisterAck(Message):
    TYPE_CODE: ClassVar[int] = 2

    ok: bool
    detail: str = ""


@_register
@dataclass(frozen=True)
class WorkloadReport(Message):
    """Periodic (hysteretic) workload broadcast; w = 100 x load average."""

    TYPE_CODE: ClassVar[int] = 3

    server_id: str
    workload: float
    #: set on agent-to-agent mirror copies (never re-forwarded)
    forwarded: bool = False
    #: requests currently executing on the server's worker slots
    inflight: int = 0


# ----------------------------------------------------------------------
# client <-> agent
# ----------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class QueryRequest(Message):
    """Ask the agent for servers able to solve ``problem`` at ``sizes``."""

    TYPE_CODE: ClassVar[int] = 4

    problem: str
    #: size-symbol bindings from the client's actual arguments
    sizes: dict
    client_host: str
    #: server ids the client has already seen fail for this request
    exclude: tuple = ()
    #: client-chosen tag echoed in the reply (correlates concurrent queries)
    tag: int = 0
    #: content digest of (problem, inputs, env) — "" when the client is
    #: not digesting; lets the agent answer repeats from its hot cache
    digest: str = ""
    #: set on agent-to-agent forwarded copies: a shard non-owner hops a
    #: query once to the problem's owner (never re-forwarded)
    forwarded: bool = False
    #: the querying client's address (forwarded copies carry it because
    #: the transport-level src is the forwarding agent); the owner
    #: replies directly to the client
    reply_to: str = ""
    #: dialable endpoint of the client for cross-process federations
    reply_endpoint: str = ""
    #: server_id -> input bytes already resident there (from DataHandle
    #: inputs); the MCT ranking charges transfer cost only for bytes a
    #: candidate does *not* hold, homing chains onto the data's host
    resident: dict = field(default_factory=dict)
    #: QoS class of the request being placed ("interactive" / "batch" /
    #: "background"; "" = batch) — agents count per-class traffic and
    #: forward it with the eventual SolveRequest
    qos: str = ""


@dataclass(frozen=True)
class Candidate:
    """One ranked server candidate (plain record, nested inside replies)."""

    server_id: str
    address: str
    host: str
    predicted_seconds: float
    #: dialable "ip:port" for cross-process transports ("" when the
    #: logical address suffices, e.g. in simulation)
    endpoint: str = ""

    def to_fields(self) -> dict[str, Any]:
        return {
            "server_id": self.server_id,
            "address": self.address,
            "host": self.host,
            "predicted_seconds": self.predicted_seconds,
            "endpoint": self.endpoint,
        }

    @classmethod
    def from_fields(cls, data: dict[str, Any]) -> "Candidate":
        return cls(**data)


@_register
@dataclass(frozen=True)
class QueryReply(Message):
    TYPE_CODE: ClassVar[int] = 5

    ok: bool
    #: tuple of Candidate field-dicts, best first (codec carries dicts)
    candidates: tuple = ()
    detail: str = ""
    #: echo of QueryRequest.tag
    tag: int = 0
    #: failure may clear up (empty pool) vs never will (unknown problem)
    retryable: bool = False
    #: True when the agent answered from its result cache: ``outputs``
    #: holds the solution and ``candidates`` is empty
    cached: bool = False
    #: cached outputs (only when ``cached``)
    outputs: tuple = ()

    def candidate_list(self) -> list[Candidate]:
        return [Candidate.from_fields(c) for c in self.candidates]

    @staticmethod
    def from_candidates(cands: list[Candidate], tag: int = 0) -> "QueryReply":
        return QueryReply(
            ok=True, candidates=tuple(c.to_fields() for c in cands), tag=tag
        )


@_register
@dataclass(frozen=True)
class DescribeProblem(Message):
    TYPE_CODE: ClassVar[int] = 6

    problem: str


@_register
@dataclass(frozen=True)
class ProblemDescription(Message):
    TYPE_CODE: ClassVar[int] = 7

    ok: bool
    #: echo of the requested problem name
    problem: str = ""
    #: PDL text of the problem (exactly one block) when ok
    pdl: str = ""
    detail: str = ""


@_register
@dataclass(frozen=True)
class ListProblems(Message):
    TYPE_CODE: ClassVar[int] = 8

    prefix: str = ""


@_register
@dataclass(frozen=True)
class ProblemList(Message):
    TYPE_CODE: ClassVar[int] = 9

    names: tuple = ()
    #: echo of ListProblems.prefix
    prefix: str = ""


# ----------------------------------------------------------------------
# client <-> server
# ----------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class SolveRequest(Message):
    TYPE_CODE: ClassVar[int] = 10

    request_id: int
    problem: str
    #: coerced input objects, in spec order; entries may be
    #: :class:`DataHandle` references to objects already resident on
    #: the target server instead of payloads
    inputs: tuple
    reply_to: str = ""
    #: True: leave the outputs resident on the server and reply with
    #: :class:`DataHandle` references instead of payloads — the
    #: reference half of the locality path (``fetch`` pulls bytes later)
    keep_result: bool = False
    #: QoS class ("interactive" / "batch" / "background"; "" = batch):
    #: orders server admission by deadline and selects the per-class
    #: shed limit when the queue is saturated
    qos: str = ""


@_register
@dataclass(frozen=True)
class SolveReply(Message):
    TYPE_CODE: ClassVar[int] = 11

    request_id: int
    ok: bool
    outputs: tuple = ()
    detail: str = ""
    #: virtual/wall seconds the computation took on the server
    compute_seconds: float = 0.0
    #: provenance: True when answered from the result cache (or joined
    #: to an identical in-flight compute) instead of a fresh kernel run
    cached: bool = False
    #: machine-readable failure class ("" = unclassified); currently
    #: "missing_object": a referenced key is not resident (e.g. a crash
    #: wiped the store) — retryable by re-submitting with the payload
    error_kind: str = ""
    #: the keys that failed to resolve (only with error_kind set)
    missing: tuple = ()


@_register
@dataclass(frozen=True)
class FetchResult(Message):
    """Client -> server: recover a finished result from the job store.

    ``client`` names the reply address the original solve carried
    (``SolveRequest.reply_to``); "" means "me" — the server keys the
    lookup on the transport-level source.  A reconnecting client whose
    address changed passes its old address explicitly.
    """

    TYPE_CODE: ClassVar[int] = 20

    request_id: int
    client: str = ""


@_register
@dataclass(frozen=True)
class ResultStatus(Message):
    """Server -> client: job-store lookup outcome for one request id.

    ``status`` is one of "done" (outputs carried), "failed" (the solve
    completed with an error; detail carried), "unknown" (no record) or
    "unsupported" (server runs without a persistent store).
    """

    TYPE_CODE: ClassVar[int] = 21

    request_id: int
    status: str = "unknown"
    outputs: tuple = ()
    detail: str = ""
    compute_seconds: float = 0.0


@_register
@dataclass(frozen=True)
class CacheInsert(Message):
    """Server -> agent: publish a small hot result for the agent cache.

    Sent after a fresh compute when the encoded outputs fit the server's
    ``cache_publish_bytes`` budget, so repeat solves can be answered by
    the agent in one round trip without touching any server.
    """

    TYPE_CODE: ClassVar[int] = 22

    digest: str
    problem: str = ""
    outputs: tuple = ()
    #: encoded size of ``outputs`` (the agent bounds per-entry cost)
    nbytes: int = 0
    #: set on agent-to-agent mirror copies (never re-forwarded); only
    #: size-capped inserts mirror, so every agent's hot cache can answer
    #: the repeat query in one RTT
    forwarded: bool = False


# ----------------------------------------------------------------------
# agent <-> agent anti-entropy replication
# ----------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class SyncDigest(Message):
    """Agent -> peer: fingerprints of the sender's own ground truth.

    ``entries`` maps server id -> registration fingerprint for every
    server that registered *directly* with the sender (its shard of the
    ground truth).  A receiver whose view disagrees — entry missing, or
    fingerprint mismatch after a rejected/lost mirror — answers with a
    :class:`SyncPull` for the divergent ids.  Sent every
    ``AgentConfig.sync_interval`` seconds; an empty digest still flows,
    doubling as the fleet's peer-liveness heartbeat.
    """

    TYPE_CODE: ClassVar[int] = 23

    entries: dict = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class SyncPull(Message):
    """Agent -> peer: request full registration state for these ids."""

    TYPE_CODE: ClassVar[int] = 24

    server_ids: tuple = ()


@_register
@dataclass(frozen=True)
class SyncState(Message):
    """Agent -> peer: authoritative registration state, one dict per
    server (id, address, endpoint, host, mflops, slots, problems_pdl,
    plus current workload/inflight/alive).  The home agent — the one the
    server registered with directly — is authoritative for its own
    servers, so applying this needs no conflict resolution."""

    TYPE_CODE: ClassVar[int] = 25

    entries: tuple = ()


# ----------------------------------------------------------------------
# failure handling / liveness
# ----------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class Busy(Message):
    """Server -> client: admission refused, the request was *not* queued.

    Sent instead of queueing when the FIFO queue already holds
    ``ServerConfig.max_queue`` requests.  Always retryable: the client
    falls through to its next candidate and tells the agent via
    ``FailureReport(kind="busy")`` so the ranking re-balances without
    the server being marked dead.
    """

    TYPE_CODE: ClassVar[int] = 19

    request_id: int
    #: waiting requests at refusal time (observability / backoff hints)
    queue_depth: int = 0
    detail: str = ""


@_register
@dataclass(frozen=True)
class FailureReport(Message):
    """Client tells the agent a server failed it (crash/timeout/error).

    ``kind`` classifies the failure: "" (default) means the server is
    unresponsive or erroring and gets marked suspect; "busy" means it
    answered — with an admission refusal — and only receives a decaying
    workload penalty in the ranking.
    """

    TYPE_CODE: ClassVar[int] = 12

    server_id: str
    problem: str
    detail: str = ""
    #: "" = suspect the server; "busy" = overloaded, penalise only
    kind: str = ""
    #: set on agent-to-agent mirror copies (never re-forwarded)
    forwarded: bool = False


@dataclass(frozen=True)
class DataHandle:
    """The one reference to a server-resident object.

    Only ``key`` is required: a bare-key handle names an object on the
    server the request goes to.  A handle the server minted (a
    ``StoreAck``, a ``keep_result`` reply) also names *where* the object
    lives (``server_id``/``address``) and *what* it is (``digest`` of
    the stored value's canonical encoding, ``nbytes`` of its wire form,
    array ``shape``/``dtype`` metadata) — enough for a client to
    validate and size a request, and for the agent to charge transfer
    cost only for non-resident operands, without anyone shipping the
    payload.  Appears inside ``SolveRequest.inputs`` and, with
    ``keep_result=True``, inside ``SolveReply.outputs``.
    """

    key: str
    #: blake2b hex of the stored value's canonical encoding; folded into
    #: request digests so handle-bearing repeats hit the result cache
    digest: str = ""
    #: encoded (wire) size of the resident value
    nbytes: int = 0
    #: home server (registry id) and its logical address
    server_id: str = ""
    address: str = ""
    #: array metadata ("" / () for non-array values): lets the client
    #: bind size symbols without the data in hand
    shape: tuple = ()
    dtype: str = ""

    def __post_init__(self) -> None:
        if not self.key or len(self.key) > 128:
            raise ProtocolError(f"bad handle key {self.key!r}")
        if len(self.digest) > 64:
            raise ProtocolError(f"bad handle digest {self.digest!r}")


@_register
@dataclass(frozen=True)
class StoreObject(Message):
    """Client -> server: cache ``value`` under ``key`` for later reference."""

    TYPE_CODE: ClassVar[int] = 16

    key: str
    value: object = None


@_register
@dataclass(frozen=True)
class StoreAck(Message):
    TYPE_CODE: ClassVar[int] = 17

    key: str
    ok: bool
    nbytes: int = 0
    detail: str = ""
    #: on a successful store, the :class:`DataHandle` naming the now-
    #: resident object (digest/size/shape metadata included), so the
    #: client can reference or fetch it without another round trip
    handle: object = None


@_register
@dataclass(frozen=True)
class DeleteObject(Message):
    """Client -> server: drop a cached object (StoreAck replies)."""

    TYPE_CODE: ClassVar[int] = 18

    key: str


@_register
@dataclass(frozen=True)
class FetchObject(Message):
    """Client -> server: pull the bytes of a resident object on demand
    (the deferred-payload half of ``keep_result``/``DataHandle``)."""

    TYPE_CODE: ClassVar[int] = 26

    key: str
    reply_to: str = ""


@_register
@dataclass(frozen=True)
class ObjectPayload(Message):
    """Server -> client: FetchObject outcome (value carried when ok)."""

    TYPE_CODE: ClassVar[int] = 27

    key: str
    ok: bool
    value: object = None
    detail: str = ""
    #: mirrors SolveReply.error_kind ("missing_object" when the key is
    #: not resident — e.g. expired, deleted, or lost to a crash)
    error_kind: str = ""


@_register
@dataclass(frozen=True)
class TransferReport(Message):
    """Client feedback after a successful request: realized transfer
    performance on the client-host <-> server-host path.  Feeds the
    agent's learned network table (the NWS-style measurement loop)."""

    TYPE_CODE: ClassVar[int] = 15

    client_host: str
    server_host: str
    #: payload bytes moved in each direction (model-level object sizes)
    nbytes: int
    #: seconds spent moving them (attempt round trip minus server compute)
    seconds: float
    #: set on agent-to-agent mirror copies (never re-forwarded); keeps
    #: every agent's learned network table — and MCT ranking — agreeing
    forwarded: bool = False


@_register
@dataclass(frozen=True)
class Ping(Message):
    TYPE_CODE: ClassVar[int] = 13

    nonce: int = 0


@_register
@dataclass(frozen=True)
class Pong(Message):
    TYPE_CODE: ClassVar[int] = 14

    nonce: int = 0
