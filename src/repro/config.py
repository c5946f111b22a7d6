"""Configuration dataclasses for agents, servers, clients and the simulator.

All configs are frozen dataclasses validated at construction time, so an
invalid deployment fails fast with :class:`repro.errors.ConfigError` rather
than deep inside the event loop.  Defaults correspond to the mid-1990s
environment the paper describes: Ethernet-class links, workstation-class
hosts rated in Mflop/s, UNIX load averages sampled on the order of tens of
seconds.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, fields

from .errors import ConfigError

__all__ = [
    "WorkloadPolicy",
    "AgentConfig",
    "ServerConfig",
    "ClientConfig",
    "SimConfig",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class WorkloadPolicy:
    """Hysteretic workload-broadcast policy of a computational server.

    Every ``time_step`` seconds the server samples its load average and
    broadcasts it to the agent *only if* it moved by more than
    ``threshold`` (absolute load-average units, scaled by 100 as in the
    original: a load of 1.0 is reported as 100) since the last broadcast.
    A ``forced_interval`` acts as a liveness floor: even an unchanged
    workload is re-broadcast at least that often so the agent can detect
    silent death.
    """

    time_step: float = 10.0
    threshold: float = 10.0
    forced_interval: float = 300.0

    def __post_init__(self) -> None:
        _require(self.time_step > 0, "workload time_step must be positive")
        _require(self.threshold >= 0, "workload threshold must be >= 0")
        _require(
            self.forced_interval >= self.time_step,
            "forced_interval must be >= time_step",
        )


@dataclass(frozen=True)
class AgentConfig:
    """Agent behaviour knobs."""

    #: how many ranked candidate servers to return per query
    candidate_list_length: int = 3
    #: seconds with no workload report before a server is marked suspect
    liveness_timeout: float = 900.0
    #: scheduling policy name, resolved via :mod:`repro.core.scheduler`
    policy: str = "mct"
    #: ping suspect servers this often so false suspects (e.g. a lost
    #: reply blamed on the server) rejoin quickly; 0 disables probing
    suspect_probe_interval: float = 30.0
    #: workload units (100 = 1.0 load average) added to a server's view
    #: when a client reports it Busy — re-balances the MCT ranking away
    #: from saturated servers without marking them dead
    busy_penalty_workload: float = 100.0
    #: seconds a busy penalty stays in force before it decays; 0 turns
    #: busy reports into pure telemetry (no ranking effect)
    busy_penalty_seconds: float = 30.0
    #: hot result-cache entries (answers repeat solves at one RTT from
    #: servers' CacheInsert publications); 0 disables the cache
    cache_entries: int = 0
    #: seconds before a hot cache entry expires; 0 = LRU bound only
    cache_ttl: float = 0.0
    #: per-entry size cap (encoded output bytes) for accepted inserts —
    #: the agent must stay cheap per query, so only small results qualify
    cache_entry_bytes: int = 64 * 1024
    #: consistent-hash query sharding across a peered agent fleet: a
    #: query landing on a non-owner hops once to the problem's shard
    #: owner (False keeps every agent answering every query locally)
    shard: bool = False
    #: anti-entropy interval (seconds) between peered agents: each agent
    #: periodically sends fingerprints of its directly-registered
    #: servers so peers that missed a mirror pull the entries and heal;
    #: 0 disables replication repair entirely
    sync_interval: float = 60.0

    def __post_init__(self) -> None:
        _require(self.candidate_list_length >= 1, "candidate_list_length must be >= 1")
        _require(self.liveness_timeout > 0, "liveness_timeout must be positive")
        _require(
            self.suspect_probe_interval >= 0,
            "suspect_probe_interval must be >= 0",
        )
        _require(
            self.busy_penalty_workload >= 0,
            "busy_penalty_workload must be >= 0",
        )
        _require(
            self.busy_penalty_seconds >= 0,
            "busy_penalty_seconds must be >= 0",
        )
        _require(self.cache_entries >= 0, "cache_entries must be >= 0")
        _require(self.cache_ttl >= 0, "cache_ttl must be >= 0")
        _require(self.cache_entry_bytes >= 0, "cache_entry_bytes must be >= 0")
        _require(self.sync_interval >= 0, "sync_interval must be >= 0")


@dataclass(frozen=True)
class ServerConfig:
    """Computational-server behaviour knobs."""

    workload: WorkloadPolicy = field(default_factory=WorkloadPolicy)
    #: maximum requests executing concurrently — the server's *slot*
    #: count, advertised to the agent and bounding in-flight admissions
    #: (1 = the paper's fork model serialized; >1 a multi-CPU server)
    max_concurrent: int = 1
    #: admission cap on the FIFO queue: past this many waiting requests
    #: the server sheds with a retryable ``Busy`` reply instead of
    #: queueing unboundedly; 0 = unbounded (the pre-overload behaviour).
    #: Total admitted work is therefore max_queue + max_concurrent.
    max_queue: int = 0
    #: re-register with the agent at this interval (seconds); 0 disables
    reregister_interval: float = 0.0
    #: byte budget of the resident-object store (client-stored operands
    #: and kept results)
    object_cache_bytes: int = 256 * 1024 * 1024
    #: compute-pool threads on threaded transports; 0 = match
    #: max_concurrent (the pool never needs more threads than slots)
    workers: int = 0
    #: execution lane: "thread" (a compute-pool thread per slot; only
    #: kernels registered as releasing the GIL run side by side, the rest
    #: take turns in the process's interpreter lane) or "process" (opt-in
    #: for GIL-bound handlers; threaded transports and fork platforms
    #: only).  Either way one slot runs one kernel on one BLAS thread:
    #: OpenBLAS's own pool would busy-wait after every call
    #: (repro.numerics.threads)
    executor: str = "thread"
    #: micro-batching: while all slots are busy, up to this many queued
    #: same-problem shape-compatible requests coalesce into one stacked
    #: kernel call; <= 1 disables batching entirely
    batch_max: int = 1
    #: content-addressed result-cache entries; a repeat request whose
    #: digest hits skips admission, the queue and the kernel entirely.
    #: 0 disables caching (no digests are even computed)
    cache_entries: int = 0
    #: seconds before a cached result expires; 0 = LRU bound only
    cache_ttl: float = 0.0
    #: publish fresh results whose encoded outputs are at most this many
    #: bytes to the agent's hot cache (CacheInsert); 0 = never publish
    cache_publish_bytes: int = 0
    #: SQLite file backing the persistent job store (results survive
    #: restarts; FetchResult recovers them by request id); "" disables
    store_path: str = ""
    #: seconds to wait for a RegisterAck before rotating to the next
    #: agent address (only armed when the server was given more than one)
    register_timeout: float = 30.0
    #: seconds an *unpinned* resident object (``keep_result`` outputs,
    #: request-DAG intermediates) lives after its last use; bounds one
    #: whose delete was lost.  0 = no expiry (byte budget only).  Pinned
    #: ``store``d operands never expire.
    handle_ttl: float = 600.0
    #: per-class deadline offsets (seconds past arrival), indexed by
    #: :data:`repro.core.qos.QOS_CLASSES` — the queue drains earliest
    #: deadline first, so a tighter offset is a stronger claim on the
    #: next free slot.  Equal offsets degenerate to plain FIFO.
    qos_deadlines: tuple = (5.0, 60.0, 600.0)
    #: per-class queue shares in (0, 1], same indexing: under a bounded
    #: queue (``max_queue > 0``) a class may occupy at most
    #: ``ceil(max_queue * share)`` waiting entries before *its* requests
    #: shed Busy — background traffic sheds before it can crowd out
    #: interactive traffic
    qos_shed: tuple = (1.0, 1.0, 0.5)

    def __post_init__(self) -> None:
        _require(self.max_concurrent >= 1, "max_concurrent must be >= 1")
        _require(self.max_queue >= 0, "max_queue must be >= 0")
        _require(self.reregister_interval >= 0, "reregister_interval must be >= 0")
        _require(self.object_cache_bytes >= 0, "object_cache_bytes must be >= 0")
        _require(self.workers >= 0, "workers must be >= 0")
        _require(
            self.executor in ("thread", "process"),
            "executor must be 'thread' or 'process'",
        )
        _require(
            self.executor != "process"
            or "fork" in multiprocessing.get_all_start_methods(),
            "executor 'process' needs the fork start method",
        )
        _require(self.batch_max >= 0, "batch_max must be >= 0")
        _require(self.cache_entries >= 0, "cache_entries must be >= 0")
        _require(self.cache_ttl >= 0, "cache_ttl must be >= 0")
        _require(
            self.cache_publish_bytes >= 0, "cache_publish_bytes must be >= 0"
        )
        _require(
            self.register_timeout > 0, "register_timeout must be positive"
        )
        _require(self.handle_ttl >= 0, "handle_ttl must be >= 0")
        _require(
            len(self.qos_deadlines) == 3,
            "qos_deadlines must have one entry per class",
        )
        _require(
            all(d > 0 for d in self.qos_deadlines),
            "qos_deadlines entries must be positive",
        )
        _require(
            len(self.qos_shed) == 3,
            "qos_shed must have one entry per class",
        )
        _require(
            all(0 < s <= 1 for s in self.qos_shed),
            "qos_shed entries must be in (0, 1]",
        )


@dataclass(frozen=True)
class ClientConfig:
    """Client-library behaviour knobs."""

    #: total attempts per request across the candidate list
    max_retries: int = 3
    #: seconds before an unanswered agent query counts as failure
    agent_timeout: float = 60.0
    #: times to re-send an unanswered agent message (describe/query)
    #: before giving up — the protocol has no transport retransmission,
    #: so control messages need their own retry
    agent_retries: int = 3
    #: hard ceiling on the per-attempt server timeout (seconds)
    server_timeout: float = 3600.0
    #: per-attempt timeout = clamp(timeout_factor * predicted, timeout_floor,
    #: server_timeout) — a crashed server is declared dead once the attempt
    #: has overshot its prediction by this factor
    timeout_factor: float = 4.0
    timeout_floor: float = 10.0
    #: re-query the agent for a fresh candidate list after exhausting one
    requery_agent: bool = True
    #: compute a content digest per request and carry it in the agent
    #: query, enabling one-RTT answers from the agent's hot cache.
    #: Off by default: an undigested query is byte-identical whether or
    #: not any cache exists downstream
    cache_digest: bool = False
    #: QoS class stamped on submits that don't pass one explicitly
    #: ("" = batch); see :mod:`repro.core.qos`
    default_qos: str = ""

    def __post_init__(self) -> None:
        _require(self.max_retries >= 1, "max_retries must be >= 1")
        _require(self.agent_timeout > 0, "agent_timeout must be positive")
        _require(self.agent_retries >= 1, "agent_retries must be >= 1")
        _require(self.server_timeout > 0, "server_timeout must be positive")
        _require(self.timeout_factor >= 1.0, "timeout_factor must be >= 1")
        _require(self.timeout_floor > 0, "timeout_floor must be positive")
        _require(
            self.timeout_floor <= self.server_timeout,
            "timeout_floor must be <= server_timeout",
        )
        _require(
            self.default_qos in ("", "interactive", "batch", "background"),
            "default_qos must be '', 'interactive', 'batch' or 'background'",
        )


@dataclass(frozen=True)
class SimConfig:
    """Global knobs of a simulated deployment."""

    seed: int = 0
    #: per-message fixed software overhead added to every transfer (seconds);
    #: models protocol stack cost on 1996-era hosts
    per_message_overhead: float = 1e-3
    #: encode→decode every delivered message through the real codec (the
    #: fidelity invariant: codec bugs surface in every run).  False skips
    #: the materialization for huge farming sweeps — virtual time and all
    #: tables are unchanged, but sender and receiver share payload objects
    codec_roundtrip: bool = True

    def __post_init__(self) -> None:
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.per_message_overhead >= 0, "per_message_overhead must be >= 0")


def replace_validated(cfg, **changes):
    """``dataclasses.replace`` that re-runs ``__post_init__`` validation.

    Frozen dataclasses re-validate automatically on replace; this helper
    exists so call sites read clearly and to centralise the import.
    """
    import dataclasses

    return dataclasses.replace(cfg, **changes)


def config_summary(cfg) -> str:
    """One-line ``key=value`` rendering of any config dataclass."""
    parts = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)]
    return f"{type(cfg).__name__}({', '.join(parts)})"
