"""The NetSolve agent: resource broker and scheduler.

The agent never touches problem data.  It keeps the server table, the
problem-description catalogue uploaded by registering servers, and the
network-characteristics table; for every client query it evaluates the
completion-time predictor over the live candidates and returns a ranked
list.  Failure reports from clients mark servers suspect; a liveness
sweep retires servers whose workload reports stop arriving.

One deliberate exception to the "never touches problem data" rule: with
``cache_entries > 0`` the agent keeps a *hot* result cache of small
outputs that servers publish after fresh computes (``CacheInsert``).  A
query whose content digest hits answers the solve in one round trip —
``QueryReply(cached=True, outputs=...)`` — without touching any server;
the per-entry byte cap keeps the broker cheap.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..config import AgentConfig
from ..errors import NetSolveError, PdlSyntaxError, ProtocolError
from ..problems.pdl import parse_pdl, render_pdl
from ..problems.spec import ProblemSpec
from ..protocol.messages import (
    CacheInsert,
    Candidate,
    DescribeProblem,
    FailureReport,
    ListProblems,
    Ping,
    Pong,
    ProblemDescription,
    ProblemList,
    QueryReply,
    QueryRequest,
    RegisterAck,
    RegisterServer,
    SyncDigest,
    SyncPull,
    SyncState,
    TransferReport,
    WorkloadReport,
)
from ..runtime import (
    DeadlineTable,
    DispatchComponent,
    Periodic,
    RetryChain,
    handles,
)
from ..store import ResultCache
from ..trace.events import EventLog
from ..trace.instruments import Metric, MetricsRegistry, track
from .fleet import HashRing, entry_fingerprint
from .qos import QOS_CLASSES, qos_index
from .predictor import NetworkInfo, predict_batch
from .registry import ServerTable, server_capacity
from .scheduler import SchedulingPolicy, make_policy

__all__ = ["Agent"]

#: distinct problem catalogues an agent keeps parsed
_CATALOGUES = 32
#: seconds to wait for a peer to answer a SyncPull before resending
_SYNC_PULL_TIMEOUT = 15.0
#: SyncPull sends per digest round before giving up (harmless: the
#: next digest round starts a fresh pull)
_SYNC_PULL_ATTEMPTS = 2


class Agent(DispatchComponent):
    """The broker component.

    Parameters
    ----------
    network:
        Link-estimate provider (the agent's "network measurements").
    cfg:
        Behaviour knobs; ``cfg.policy`` picks the scheduling policy.
    rng:
        Required only for stochastic policies (``random``).
    use_workload:
        A1 ablation switch — False makes the predictor ignore workload.
    assignment_feedback:
        Herd-damping switch — False disables the pending-assignment
        correction (A1b ablation).
    peers:
        Addresses of sibling agents in a federated deployment: ground
        truth (registrations, workload reports, failure reports) mirrors
        to them, so clients may query any agent.  Pending-assignment
        hints stay local — the deliberate consistency gap of a
        federation.
    """

    METRICS = (
        Metric("agent.queries", "queries_served", "QueryRequests handled"),
        Metric("agent.query_rejects", "query_rejects",
               "queries answered with no candidates"),
        Metric("agent.registrations", "registrations",
               "server registrations accepted"),
        Metric("agent.register_rejects", "register_rejects",
               "server registrations refused"),
        Metric("agent.workload_reports", "reports_received",
               "workload reports folded in"),
        Metric("agent.failure_reports", "failure_reports",
               "client failure reports received"),
        Metric("agent.busy_reports", "busy_reports_received",
               "busy reports turned into workload penalties"),
        Metric("agent.transfer_reports", "transfer_reports",
               "transfer observations received"),
        Metric("agent.report_rejects", "report_rejects",
               "workload/transfer reports dropped for unusable field values"),
        Metric("agent.describes", "describes_answered",
               "DescribeProblems answered"),
        Metric("agent.lists", "lists_answered", "ListProblems answered"),
        Metric("agent.mirror_forwards", "forwards_sent",
               "ground-truth messages mirrored to peers"),
        Metric("agent.mirror_drops", "mirror_drops",
               "reports dropped for servers this agent does not know "
               "(federation divergence)"),
        Metric("agent.mirror_register_rejects", "forwarded_register_rejects",
               "forwarded registrations rejected (registry divergence)"),
        Metric("agent.query_forwards", "queries_forwarded",
               "queries hopped to their shard owner"),
        Metric("agent.sync_digests", "sync_digests_sent",
               "anti-entropy digests sent to peers"),
        Metric("agent.sync_repairs", "sync_repairs",
               "registry entries healed by anti-entropy"),
        Metric("agent.servers_alive", "servers_alive",
               "registered servers not under suspicion", "gauge", max),
        Metric("agent.servers_total", "servers_total",
               "registered servers", "gauge", max),
        Metric("agent.predicted_head_seconds", "_predicted_head_seconds",
               "MCT prediction shipped for each query's head candidate",
               "histogram"),
        Metric("agent.cache_hits", "result_cache.hits",
               "queries answered from the hot result cache"),
        Metric("agent.cache_misses", "result_cache.misses",
               "digested queries not found in the hot cache"),
        Metric("agent.cache_inserts", "cache_inserts",
               "server result publications accepted"),
        Metric("agent.cache_insert_rejects", "cache_insert_rejects",
               "publications refused (size/disabled)"),
        Metric("agent.cache_evictions", "result_cache.evictions",
               "hot-cache LRU evictions"),
    )

    def __init__(
        self,
        *,
        network: NetworkInfo,
        cfg: AgentConfig = AgentConfig(),
        rng: Optional[np.random.Generator] = None,
        trace: Optional[EventLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        use_workload: bool = True,
        assignment_feedback: bool = True,
        peers: tuple[str, ...] = (),
    ):
        self.cfg = cfg
        self.network = network
        track(self, metrics)
        #: sibling agents; registrations, workload and failure reports
        #: mirror to them so any agent can broker any request
        self.peers = tuple(peers)
        self.table = ServerTable()
        self.specs: dict[str, ProblemSpec] = {}
        #: parsed problem catalogues by PDL text: a re-registration
        #: mostly repeats its catalogue, and parsing it is most of what a
        #: registration costs (specs are immutable, so sharing is safe)
        self._catalogues: dict[str, tuple[ProblemSpec, ...]] = {}
        self.policy: SchedulingPolicy = make_policy(cfg.policy, rng)
        self.trace = trace
        self.use_workload = use_workload
        self.assignment_feedback = assignment_feedback
        #: per-QoS-class query audit (class name -> count); the agent
        #: brokers all classes alike, but the mix is operational signal
        self.queries_by_class = {name: 0 for name in QOS_CLASSES}
        #: registration-shaped record per known server, fingerprinted for
        #: anti-entropy comparison (direct + mirrored + sync-applied)
        self._records: dict[str, dict] = {}
        #: ids of servers registered *directly* with this agent — its
        #: ground truth, the only entries it vouches for in sync digests
        self._home: set[str] = set()
        #: problem -> owner ring; built at bind (needs the node address),
        #: None unless ``cfg.shard`` and peers exist
        self._ring: Optional[HashRing] = None
        #: last time each peer was heard from (any message); a shard
        #: owner that has gone silent is answered around, not forwarded to
        self._peer_seen: dict[str, float] = {}
        self._deadlines = DeadlineTable(self)
        self._sync = Periodic(
            self, cfg.sync_interval or 1.0, self._sync_tick,
            name="anti_entropy",
        )
        #: hot result cache fed by server CacheInsert publications; the
        #: clock lambda is only called once the component is bound
        self.result_cache = ResultCache(
            cfg.cache_entries,
            ttl=cfg.cache_ttl,
            clock=lambda: self.node.now(),
        )
        self._sweep = Periodic(
            self, cfg.liveness_timeout / 4.0, self._sweep_liveness,
            name="liveness_sweep",
        )
        #: ping suspect servers: a lost reply gets innocent servers
        #: blamed, and the hysteretic policy will not clear them (an
        #: unchanged idle load is never re-broadcast), so the agent
        #: checks on them itself
        self._probe = Periodic(
            self, cfg.suspect_probe_interval, self._probe_suspects,
            name="suspect_probe",
        )

    # ------------------------------------------------------------------
    def on_bind(self) -> None:
        self._sweep.start()
        if self.cfg.suspect_probe_interval > 0:
            self._probe.start()
        if self.peers and self.cfg.sync_interval > 0:
            self._sync.start()
        self._ring = (
            HashRing((self.node.address, *self.peers))
            if self.cfg.shard and self.peers
            else None
        )
        now = self.node.now()
        for peer in self.peers:
            self._peer_seen[peer] = now

    def on_restart(self) -> None:
        # Periodic.start() supersedes the previous chain, so delegating
        # here cannot double-arm even on the live TCP restart path; the
        # deadline table drops any in-flight sync pulls with it
        self._deadlines.clear()
        self.on_bind()

    def _note_peer(self, src: str) -> None:
        """Any traffic from a peer (digest, mirror, forwarded query) is
        proof of life — the shard forwarder consults this before hopping
        a query to an owner that may be down."""
        if src in self._peer_seen:
            self._peer_seen[src] = self.node.now()

    def _sweep_liveness(self) -> None:
        died = self.table.sweep_liveness(
            self.node.now(), self.cfg.liveness_timeout
        )
        for server_id in died:
            self._trace("server_presumed_dead", server_id=server_id)

    def _probe_suspects(self) -> None:
        for entry in self.table.entries():
            if not entry.alive:
                self.node.send(entry.address, Ping())

    @handles(Pong)
    def _handle_pong(self, src: str, msg: Pong) -> None:
        revived = self.table.revive_address(src, self.node.now())
        for server_id in revived:
            self._trace("server_revived_by_probe", server_id=server_id)

    def _trace(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.log(self.node.now(), self.node.address, kind, **fields)

    @property
    def servers_total(self) -> int:
        return len(self.table)

    @property
    def servers_alive(self) -> int:
        return len(self.table.alive_entries())

    @property
    def failures_reported(self) -> int:
        """Every ``FailureReport`` received: real failures and busy ones."""
        return self.failure_reports + self.busy_reports_received

    # ------------------------------------------------------------------
    @handles(ListProblems)
    def _handle_list(self, src: str, msg: ListProblems) -> None:
        self.lists_answered += 1
        self.node.send(
            src,
            ProblemList(
                names=tuple(sorted(
                    n for n in self.table.known_problems()
                    if n.startswith(msg.prefix)
                )),
                prefix=msg.prefix,
            ),
        )

    @handles(Ping)
    def _handle_ping(self, src: str, msg: Ping) -> None:
        self.node.send(src, Pong(nonce=msg.nonce))

    # ------------------------------------------------------------------
    def _mirror(self, msg) -> None:
        """Fan ground truth out to sibling agents (never re-forwarded)."""
        for peer in self.peers:
            self.node.send(peer, msg)
            self.forwards_sent += 1

    def _register_rejected(
        self, src: str, msg: RegisterServer, detail: str
    ) -> None:
        """One reject path for direct and mirrored registrations.

        A direct source gets the NACK it can act on.  A mirror copy has
        nobody to NACK — the server only ever hears from its own agent —
        so the refusal is counted and traced distinctly: this is exactly
        the registry-divergence event anti-entropy exists to repair.
        """
        self.register_rejects += 1
        if msg.forwarded:
            self.forwarded_register_rejects += 1
            self._trace(
                "mirror_register_rejected",
                server_id=msg.server_id,
                detail=detail,
            )
        else:
            self.node.send(src, RegisterAck(ok=False, detail=detail))

    def _parse_catalogue(
        self, pdl: str, source: str
    ) -> tuple[ProblemSpec, ...]:
        """``parse_pdl`` memoised by text for the last
        :data:`_CATALOGUES` distinct catalogues (oldest dropped first);
        a failed parse is not kept."""
        if not isinstance(pdl, str):
            raise PdlSyntaxError(f"{source}: problem catalogue is not text")
        specs = self._catalogues.get(pdl)
        if specs is None:
            specs = tuple(parse_pdl(pdl, source=source))
            if len(self._catalogues) >= _CATALOGUES:
                del self._catalogues[next(iter(self._catalogues))]
            self._catalogues[pdl] = specs
        return specs

    @handles(RegisterServer)
    def _handle_register(self, src: str, msg: RegisterServer) -> None:
        if msg.forwarded:
            self._note_peer(src)
        try:
            specs = self._parse_catalogue(
                msg.problems_pdl, f"<{msg.server_id}>"
            )
        except PdlSyntaxError as exc:
            self._register_rejected(src, msg, str(exc))
            return
        if not specs:
            self._register_rejected(src, msg, "no problems in registration")
            return
        for spec in specs:
            known = self.specs.get(spec.name)
            if known is not None and known != spec:
                self._register_rejected(
                    src,
                    msg,
                    f"problem {spec.name!r} conflicts with an "
                    "existing description",
                )
                return
        # a mirror copy carries the server's real address; a direct
        # registration's address is the transport-level source
        server_address = msg.server_address if msg.forwarded else src
        try:
            entry = self.table.register(
                server_id=msg.server_id,
                address=server_address,
                host=msg.host,
                mflops=msg.mflops,
                problems={s.name for s in specs},
                now=self.node.now(),
                slots=msg.slots,
            )
        except NetSolveError as exc:
            self._register_rejected(src, msg, str(exc))
            return
        for spec in specs:
            self.specs[spec.name] = spec
        if msg.forwarded and msg.server_endpoint:
            self.node.learn_endpoint(server_address, msg.server_endpoint)
        # the sync record mirrors what a peer would need to rebuild this
        # registration; the fields are normalised identically on the
        # direct, mirrored and sync-applied paths so fingerprints agree
        record = {
            "server_id": msg.server_id,
            "address": server_address,
            "endpoint": (
                msg.server_endpoint if msg.forwarded
                else self.node.endpoint_of(src)
            ) or "",
            "host": msg.host,
            "mflops": entry.mflops,
            "slots": entry.slots,
            "problems_pdl": msg.problems_pdl,
        }
        record["fp"] = entry_fingerprint(record)
        self._records[msg.server_id] = record
        if msg.forwarded:
            # the latest *direct* registration wins home-ness: if this
            # server re-registered with a peer, it is no longer ours
            self._home.discard(msg.server_id)
        else:
            self._home.add(msg.server_id)
        self.registrations += 1
        self._trace(
            "server_registered",
            server_id=msg.server_id,
            host=msg.host,
            problems=len(specs),
            forwarded=msg.forwarded,
        )
        if not msg.forwarded:
            self.node.send(src, RegisterAck(ok=True))
            if self.peers:
                self._mirror(replace(
                    msg,
                    forwarded=True,
                    server_address=src,
                    server_endpoint=self.node.endpoint_of(src),
                ))

    @handles(WorkloadReport)
    def _handle_report(self, src: str, msg: WorkloadReport) -> None:
        if msg.forwarded:
            self._note_peer(src)
        if msg.server_id not in self.table:
            # a report for a server this agent never saw: for a mirror
            # copy this means the fleet diverged (the registration was
            # lost or rejected), so count and trace it instead of
            # vanishing — anti-entropy pulls the registration itself
            self.mirror_drops += 1
            self._trace(
                "mirror_drop",
                server_id=msg.server_id,
                forwarded=msg.forwarded,
            )
            return
        try:
            self.table.report_workload(
                msg.server_id, msg.workload, self.node.now(),
                inflight=msg.inflight,
            )
        except ProtocolError as exc:
            self._reject_report(msg, exc)
            return
        self.reports_received += 1
        self._trace(
            "workload_report", server_id=msg.server_id, workload=msg.workload
        )
        if not msg.forwarded and self.peers:
            self._mirror(replace(msg, forwarded=True))

    def _reject_report(self, msg, exc: ProtocolError) -> None:
        """A report whose values cannot enter the model: count, trace and
        drop it (nothing is folded in, nothing is mirrored)."""
        self.report_rejects += 1
        self._trace(
            "report_rejected", message=type(msg).__name__, detail=str(exc)
        )

    @handles(FailureReport)
    def _handle_failure(self, src: str, msg: FailureReport) -> None:
        if msg.forwarded:
            self._note_peer(src)
        if msg.kind == "busy":
            # the server answered — with an admission refusal — so it is
            # saturated, not dead: penalise its ranking for a while and
            # let the pool re-balance without losing capacity
            self.busy_reports_received += 1
            self.table.penalize(
                msg.server_id,
                self.node.now(),
                workload=self.cfg.busy_penalty_workload,
                hold_for=self.cfg.busy_penalty_seconds,
            )
            self._trace(
                "busy_report",
                server_id=msg.server_id,
                problem=msg.problem,
                detail=msg.detail,
            )
        else:
            self.failure_reports += 1
            self.table.mark_failed(msg.server_id)
            self._trace(
                "failure_report",
                server_id=msg.server_id,
                problem=msg.problem,
                detail=msg.detail,
            )
        if not msg.forwarded and self.peers:
            self._mirror(replace(msg, forwarded=True))

    @handles(TransferReport)
    def _handle_transfer_report(self, src: str, msg: TransferReport) -> None:
        if msg.forwarded:
            self._note_peer(src)
        self.transfer_reports += 1
        observe = getattr(self.network, "observe", None)
        if observe is None:
            return  # static table: measurements are not folded in
        try:
            observe(msg.client_host, msg.server_host, msg.nbytes, msg.seconds)
        except ProtocolError as exc:
            self._reject_report(msg, exc)
            return
        # measurements are ground truth like registrations and reports —
        # but unlike those, they arrive per completed request, so only a
        # learning fleet pays the mirror cost: with a static table every
        # agent would discard the copy and federation traffic would
        # scale with query volume instead of ground-truth events
        if not msg.forwarded and self.peers:
            self._mirror(replace(msg, forwarded=True))
        self._trace(
            "transfer_observed",
            pair=(msg.client_host, msg.server_host),
            bandwidth=msg.nbytes / msg.seconds if msg.seconds > 0 else 0.0,
        )

    # ------------------------------------------------------------------
    # anti-entropy: digest -> pull -> state.  Each agent vouches only
    # for its *home* servers (the ones registered directly with it);
    # every sync_interval it sends their fingerprints to all peers, and
    # a peer whose copy is missing or different pulls the entries.  A
    # mirror lost on the wire or rejected on arrival therefore heals
    # within one round instead of diverging forever.
    def _peer_reachable(self, peer: str) -> bool:
        """Heard from ``peer`` within two digest rounds?

        With anti-entropy on, every peer emits a digest each
        ``sync_interval`` even when its registry is empty, so the digest
        stream doubles as a heartbeat: two missed rounds of silence mark
        the peer down and the shard forwarder answers its queries
        locally.  With sync off there is no stream to judge silence
        against, so every peer counts as reachable.
        """
        if self.cfg.sync_interval <= 0:
            return True
        seen = self._peer_seen.get(peer)
        if seen is None:
            return False
        return self.node.now() - seen <= 2.0 * self.cfg.sync_interval

    def _sync_tick(self) -> None:
        digest = {
            sid: self._records[sid]["fp"]
            for sid in sorted(self._home)
            if sid in self._records
        }
        msg = SyncDigest(entries=digest)
        for peer in self.peers:
            # an empty digest still goes out: it is the liveness
            # heartbeat _peer_reachable judges silence against.  Sync
            # traffic never counts as a mirror forward — forwards_sent
            # stays a pure ground-truth-fan-out counter
            self.node.send(peer, msg)
            self.sync_digests_sent += 1

    @handles(SyncDigest)
    def _handle_sync_digest(self, src: str, msg: SyncDigest) -> None:
        self._note_peer(src)
        stale = tuple(sorted(
            sid for sid, fp in msg.entries.items()
            if sid not in self._records or self._records[sid]["fp"] != fp
        ))
        if not stale:
            return
        self._trace("sync_pull", peer=src, servers=list(stale))
        RetryChain(
            self._deadlines,
            ("sync", src),
            interval=_SYNC_PULL_TIMEOUT,
            attempts=_SYNC_PULL_ATTEMPTS,
            send=lambda attempt: self.node.send(
                src, SyncPull(server_ids=stale)
            ),
            # exhaustion is harmless: the peer's next digest round
            # starts a fresh pull if the gap is still there
            on_exhausted=lambda: None,
        ).start()

    @handles(SyncPull)
    def _handle_sync_pull(self, src: str, msg: SyncPull) -> None:
        self._note_peer(src)
        now = self.node.now()
        entries = []
        for sid in msg.server_ids:
            record = self._records.get(sid)
            if record is None or sid not in self._home or sid not in self.table:
                continue  # only vouch for home servers still registered
            entry = self.table.get(sid)
            entries.append((
                record["server_id"],
                record["address"],
                record["endpoint"],
                record["host"],
                record["mflops"],
                record["slots"],
                record["problems_pdl"],
                entry.current_workload(now),
                entry.inflight,
                entry.alive,
            ))
        if entries:
            self.node.send(src, SyncState(entries=tuple(entries)))

    @handles(SyncState)
    def _handle_sync_state(self, src: str, msg: SyncState) -> None:
        self._note_peer(src)
        self._deadlines.cancel(("sync", src))
        for entry in msg.entries:
            self._apply_sync_entry(entry)

    def _apply_sync_entry(self, entry) -> None:
        (sid, address, endpoint, host, mflops, slots,
         problems_pdl, workload, inflight, alive) = entry
        try:
            mflops, slots = server_capacity(sid, mflops, slots)
        except NetSolveError as exc:
            self._trace("sync_rejected", server_id=sid, detail=str(exc))
            return
        record = {
            "server_id": sid,
            "address": address,
            "endpoint": endpoint or "",
            "host": host,
            "mflops": mflops,
            "slots": slots,
            "problems_pdl": problems_pdl,
        }
        record["fp"] = entry_fingerprint(record)
        if sid in self._records and self._records[sid]["fp"] == record["fp"]:
            return  # healed already (a racing mirror or an earlier pull)
        try:
            specs = self._parse_catalogue(problems_pdl, f"<sync:{sid}>")
        except PdlSyntaxError as exc:
            self._trace("sync_rejected", server_id=sid, detail=str(exc))
            return
        if not specs:
            return
        for spec in specs:
            known = self.specs.get(spec.name)
            if known is not None and known != spec:
                # the home agent holds a conflicting description: the
                # same divergence class as a rejected forwarded
                # registration, counted under the same metric
                self.forwarded_register_rejects += 1
                self._trace(
                    "mirror_register_rejected",
                    server_id=sid,
                    detail=f"sync conflict on problem {spec.name!r}",
                )
                return
        known_before = sid in self.table
        try:
            self.table.register(
                server_id=sid,
                address=address,
                host=host,
                mflops=mflops,
                problems={s.name for s in specs},
                now=self.node.now(),
                slots=slots,
            )
        except NetSolveError as exc:
            self._trace("sync_rejected", server_id=sid, detail=str(exc))
            return
        for spec in specs:
            self.specs[spec.name] = spec
        if endpoint:
            self.node.learn_endpoint(address, endpoint)
        if not known_before:
            # seed the home agent's workload view; a server already in
            # the table keeps its own (possibly fresher) report stream
            try:
                self.table.report_workload(
                    sid, workload, self.node.now(), inflight=inflight
                )
            except ProtocolError as exc:
                self._trace("sync_rejected", server_id=sid, detail=str(exc))
        if not alive:
            self.table.mark_failed(sid)
        self._records[sid] = record
        self._home.discard(sid)
        # a repair is not a registration event: ``registrations`` stays
        # a direct+mirror arrival counter, repairs get their own ledger
        self.sync_repairs += 1
        self._trace("sync_repair", server_id=sid, alive=bool(alive))

    # ------------------------------------------------------------------
    def _predict_totals(
        self,
        rows: np.ndarray,
        *,
        flops: float,
        input_bytes: float,
        output_bytes: float,
        client_host: str,
        now: float,
        resident: dict,
    ) -> np.ndarray:
        """Predicted seconds per candidate row — the agent's one prediction.

        Gathers what the model needs of each candidate from the table's
        columns (link estimate, peak, workload plus any live busy
        penalty, slots, live pending hints when assignment feedback is
        on) and evaluates :func:`predict_batch` once; every policy
        orders this vector.  ``resident`` (server_id -> input bytes
        already homed there) switches the send term to per-candidate
        effective input bytes: resident bytes never cross the wire.
        Empty keeps the scalar broadcast, so handle-free queries rank on
        the exact pre-locality arithmetic.
        """
        table = self.table
        latency, bandwidth = table.link_columns(
            self.network, client_host, rows
        )
        peak, workload, slots, pending = table.ranking_columns(rows, now)
        if not self.assignment_feedback:
            pending[:] = 0
        in_bytes: "float | np.ndarray" = input_bytes
        if resident:
            in_bytes = np.full(len(rows), input_bytes, dtype=np.float64)
            held = {
                table.get(server_id).row: nbytes
                for server_id, nbytes in resident.items()
                if server_id in table
            }
            # one pass over the candidates, a Python step only for the
            # ones holding resident bytes
            for i in np.flatnonzero(np.isin(rows, list(held))).tolist():
                in_bytes[i] = max(0.0, input_bytes - held[int(rows[i])])
        return predict_batch(
            flops=flops,
            input_bytes=in_bytes,
            output_bytes=output_bytes,
            latency=latency,
            bandwidth=bandwidth,
            peak_mflops=peak,
            workload=workload,
            pending=pending,
            slots=slots,
            use_workload=self.use_workload,
        )

    @handles(CacheInsert)
    def _handle_cache_insert(self, src: str, msg: CacheInsert) -> None:
        """Accept a server's hot-result publication (size-capped)."""
        if msg.forwarded:
            self._note_peer(src)
        # a publication reaches only the server's own agent: without the
        # mirror a repeat query through any *other* agent misses the
        # one-RTT hot-cache answer.  The same per-entry byte cap gates
        # the fan-out, so peers are never sent what this agent would
        # refuse on size — but a cache-disabled agent still relays
        if (
            not msg.forwarded
            and self.peers
            and 0 < msg.nbytes <= self.cfg.cache_entry_bytes
        ):
            self._mirror(replace(msg, forwarded=True))
        if (
            not self.result_cache.enabled
            or msg.nbytes <= 0
            or msg.nbytes > self.cfg.cache_entry_bytes
        ):
            self.cache_insert_rejects += 1
            return
        self.result_cache.put(msg.digest, (tuple(msg.outputs), msg.nbytes))
        self.cache_inserts += 1
        self._trace(
            "cache_insert",
            digest=msg.digest,
            problem=msg.problem,
            nbytes=msg.nbytes,
        )

    def _reject_query(
        self, reply_to: str, msg: QueryRequest, detail: str,
        retryable: bool = False,
    ) -> None:
        self.query_rejects += 1
        self.node.send(
            reply_to,
            QueryReply(
                ok=False, detail=detail, tag=msg.tag, retryable=retryable
            ),
        )

    @handles(QueryRequest)
    def _handle_query(self, src: str, msg: QueryRequest) -> None:
        # a forwarded query answers the *original* client directly — the
        # forwarding agent is out of the loop after one hop
        reply_to = msg.reply_to or src
        if msg.forwarded:
            self._note_peer(src)
            if msg.reply_to and msg.reply_endpoint:
                self.node.learn_endpoint(msg.reply_to, msg.reply_endpoint)
        if self._ring is not None and not msg.forwarded:
            owner = self._ring.owner(msg.problem)
            if owner != self.node.address and self._peer_reachable(owner):
                # hop once to the shard owner; ``forwarded`` guards the
                # second hop exactly like the mirror messages.  An
                # unreachable owner is answered around, not forwarded
                # to: the registry is fully replicated, so this agent
                # can broker the query itself
                self.queries_forwarded += 1
                self._trace(
                    "query_forwarded",
                    problem=msg.problem,
                    owner=owner,
                    client=src,
                )
                self.node.send(owner, replace(
                    msg,
                    forwarded=True,
                    reply_to=src,
                    reply_endpoint=self.node.endpoint_of(src) or "",
                ))
                return
        self.queries_served += 1
        self.queries_by_class[QOS_CLASSES[qos_index(msg.qos)]] += 1
        if msg.digest and self.result_cache.enabled:
            entry = self.result_cache.get(msg.digest)
            if entry is not None:
                # answer the solve itself, in this one round trip: no
                # candidate ranking, no assignment hint, no server
                outputs, nbytes = entry
                self._trace(
                    "cache_answer",
                    problem=msg.problem,
                    client=reply_to,
                    nbytes=nbytes,
                )
                self.node.send(
                    reply_to,
                    QueryReply(
                        ok=True, tag=msg.tag, cached=True, outputs=outputs
                    ),
                )
                return
        spec = self.specs.get(msg.problem)
        if spec is None:
            self._reject_query(
                reply_to, msg, f"unknown problem {msg.problem!r}"
            )
            return
        entries = self.table.candidates_for(msg.problem, exclude=msg.exclude)
        if not entries:
            self._reject_query(
                reply_to, msg, f"no server available for {msg.problem!r}",
                retryable=True,  # suspects may report back in
            )
            return
        now = self.node.now()
        try:
            # everything derived from the request's field values sits
            # under this guard: a frame can be well-formed and still
            # carry sizes the complexity model rejects, text where a
            # number belongs or a host the network table does not know
            # (dict() turns a field that is no mapping into a TypeError)
            env = {k: int(v) for k, v in dict(msg.sizes).items()}
            totals = self._predict_totals(
                entries.rows,
                # spec-derived quantities depend only on (spec, env):
                # one evaluation per query, not one per candidate
                flops=spec.flops(env),
                input_bytes=spec.input_bytes(env),
                output_bytes=spec.output_bytes(env),
                client_host=msg.client_host,
                now=now,
                resident={
                    str(k): max(0, int(v))
                    for k, v in dict(msg.resident).items()
                },
            )
        except (NetSolveError, ValueError, TypeError, OverflowError) as exc:
            self._reject_query(reply_to, msg, f"bad query: {exc}")
            return
        order = self.policy.order(
            entries, totals, self.cfg.candidate_list_length
        )
        candidates = [
            Candidate(
                server_id=e.server_id,
                address=e.address,
                host=e.host,
                predicted_seconds=float(totals[i]),
                endpoint=self.node.endpoint_of(e.address),
            )
            for i, e in ((i, entries[i]) for i in order)
        ]
        # assume the client sends to the head of the list; hold the
        # hint for roughly that request's predicted lifetime
        head = candidates[0]
        hold = min(600.0, max(1.0, head.predicted_seconds * 1.5))
        self.table.note_assignment(head.server_id, now, hold_for=hold)
        self._predicted_head_seconds.observe(head.predicted_seconds)
        self._trace(
            "query",
            problem=msg.problem,
            client=reply_to,
            candidates=[c.server_id for c in candidates],
            predicted=[c.predicted_seconds for c in candidates],
        )
        self.node.send(
            reply_to, QueryReply.from_candidates(candidates, tag=msg.tag)
        )

    @handles(DescribeProblem)
    def _handle_describe(self, src: str, msg: DescribeProblem) -> None:
        self.describes_answered += 1
        spec = self.specs.get(msg.problem)
        if spec is None:
            self.node.send(
                src,
                ProblemDescription(
                    ok=False,
                    problem=msg.problem,
                    detail=f"unknown problem {msg.problem!r}",
                ),
            )
        else:
            self.node.send(
                src, ProblemDescription(ok=True, problem=msg.problem, pdl=render_pdl(spec))
            )
