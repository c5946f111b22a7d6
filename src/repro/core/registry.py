"""The agent's server table.

Tracks every registered computational server: which problems it solves,
its peak speed, the freshest workload report, liveness, failure counts,
and *pending-assignment* hints.  A pending hint is the agent's
correction for report staleness: each time the agent hands a server out
as the best candidate it assumes one more request is about to queue
there, until a fresh workload report supersedes the hint or the hint's
own expiry (derived from the predicted lifetime of the request it
models) passes.  Without the hints, a burst of queries between two
reports would all pick the same momentarily-idle server — the classic
herd effect; without the expiry, short jobs finishing between samples
(which the hysteretic policy never reports) would pollute the view
until the forced keep-alive.

Every client query walks this table, so its read paths are indexed
rather than recomputed:

* a **problem index** (``problem -> {server ids}``) is maintained
  incrementally by :meth:`ServerTable.register` (the only operation that
  changes a server's problem set), making :meth:`candidates_for` cost
  O(candidates) and :meth:`known_problems` O(1);
* the **id-sorted views** (:meth:`entries` and the per-problem candidate
  views) are cached and invalidated only when table *membership*
  changes — workload reports, liveness sweeps and failure marks mutate
  entry attributes in place and never reorder or re-key the views, so
  they leave the caches intact;
* pending hints live in a **min-heap** ordered by expiry, so dropping
  expired hints pops only what actually expired instead of rebuilding
  the list;
* an **address index** (``address -> {server ids}``) serves the
  liveness-probe path: a Pong identifies the sender only by transport
  address, and :meth:`revive_address` resolves it without scanning the
  fleet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..errors import NetSolveError

__all__ = ["ServerEntry", "ServerTable"]


@dataclass
class ServerEntry:
    server_id: str
    address: str
    host: str
    mflops: float
    problems: set[str]
    registered_at: float
    last_report: float
    workload: float = 0.0
    alive: bool = True
    failures: int = 0
    #: executor worker count the server advertised at registration
    slots: int = 1
    #: in-flight executions from the freshest workload report
    inflight: int = 0
    #: min-heap of expiry times of assignments not yet reflected in a
    #: workload report (push via heapq only)
    pending_expiries: list[float] = field(default_factory=list)
    assignments: int = 0
    #: short-lived workload penalty from client Busy reports: the server
    #: is saturated *right now*, so rank it worse without losing it
    penalty_workload: float = 0.0
    penalty_until: float = 0.0
    busy_reports: int = 0

    @property
    def pending(self) -> int:
        return len(self.pending_expiries)

    def current_workload(self, now: float) -> float:
        """Reported workload plus any live busy penalty.

        Returns ``self.workload`` itself (the very same float) when no
        penalty is in force, so unpenalised ranking stays bit-identical
        to ranking on the raw report.
        """
        if self.penalty_workload and now < self.penalty_until:
            return self.workload + self.penalty_workload
        if self.penalty_workload:  # decayed: forget it lazily
            self.penalty_workload = 0.0
            self.penalty_until = 0.0
        return self.workload

    def live_pending(self, now: float) -> int:
        """Pending-assignment count after dropping expired hints."""
        heap = self.pending_expiries
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        return len(heap)


class ServerTable:
    """Registry of servers, keyed by server id."""

    def __init__(self) -> None:
        self._entries: dict[str, ServerEntry] = {}
        #: incremental problem -> server-id index; ids stay in the index
        #: while suspect/dead (candidates_for filters on ``alive``) and
        #: leave it only when a re-registration drops the problem
        self._by_problem: dict[str, set[str]] = {}
        #: transport address -> server ids (several servers may share an
        #: address behind a forwarding agent); used by probe revival
        self._by_address: dict[str, set[str]] = {}
        #: cached id-sorted views, dropped when membership changes
        self._sorted_entries: list[ServerEntry] | None = None
        self._problem_views: dict[str, tuple[ServerEntry, ...]] = {}

    # ------------------------------------------------------------------
    def _index_add(self, server_id: str, problems: set[str]) -> None:
        for name in problems:
            self._by_problem.setdefault(name, set()).add(server_id)
            self._problem_views.pop(name, None)

    def _index_discard(self, server_id: str, problems: set[str]) -> None:
        for name in problems:
            ids = self._by_problem.get(name)
            if ids is None:
                continue
            ids.discard(server_id)
            if not ids:
                del self._by_problem[name]
            self._problem_views.pop(name, None)

    def register(
        self,
        *,
        server_id: str,
        address: str,
        host: str,
        mflops: float,
        problems: set[str],
        now: float,
        slots: int = 1,
    ) -> ServerEntry:
        """Add or refresh a server (re-registration revives and updates)."""
        if mflops <= 0:
            raise NetSolveError(f"server {server_id!r}: bad mflops {mflops}")
        if not problems:
            raise NetSolveError(f"server {server_id!r} advertises no problems")
        if slots < 1:
            raise NetSolveError(f"server {server_id!r}: bad slots {slots}")
        entry = self._entries.get(server_id)
        if entry is None:
            entry = ServerEntry(
                server_id=server_id,
                address=address,
                host=host,
                mflops=mflops,
                problems=set(problems),
                registered_at=now,
                last_report=now,
                slots=slots,
            )
            self._entries[server_id] = entry
            self._sorted_entries = None
            self._index_add(server_id, entry.problems)
            self._by_address.setdefault(address, set()).add(server_id)
        else:
            old = entry.problems
            new = set(problems)
            self._index_discard(server_id, old - new)
            self._index_add(server_id, new - old)
            if address != entry.address:
                ids = self._by_address.get(entry.address)
                if ids is not None:
                    ids.discard(server_id)
                    if not ids:
                        del self._by_address[entry.address]
                self._by_address.setdefault(address, set()).add(server_id)
            entry.address = address
            entry.host = host
            entry.mflops = mflops
            entry.problems = new
            entry.slots = slots
            entry.inflight = 0
            entry.last_report = now
            entry.alive = True
            entry.pending_expiries.clear()
            # a re-registration is a cold restart: whatever saturation
            # the busy penalty modelled died with the old incarnation
            entry.penalty_workload = 0.0
            entry.penalty_until = 0.0
        return entry

    def get(self, server_id: str) -> ServerEntry:
        try:
            return self._entries[server_id]
        except KeyError:
            raise NetSolveError(f"unknown server {server_id!r}") from None

    def __contains__(self, server_id: str) -> bool:
        return server_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[ServerEntry]:
        if self._sorted_entries is None:
            self._sorted_entries = [
                self._entries[k] for k in sorted(self._entries)
            ]
        return list(self._sorted_entries)

    def alive_entries(self) -> list[ServerEntry]:
        return [e for e in self.entries() if e.alive]

    # ------------------------------------------------------------------
    def mark_alive(self, server_id: str, now: float) -> None:
        """The one revival path: fresh evidence the server is up.

        Used by both workload reports and probe Pongs, so revival always
        refreshes liveness bookkeeping *and* drops pending-assignment
        hints — a server that went silent long enough to need reviving
        has certainly shed whatever the hints modelled.
        """
        entry = self.get(server_id)
        entry.last_report = now
        entry.alive = True
        entry.pending_expiries.clear()

    def report_workload(
        self, server_id: str, workload: float, now: float, inflight: int = 0
    ) -> None:
        """Fresh truth from the server: update, revive, clear the hint."""
        entry = self.get(server_id)
        entry.workload = max(0.0, float(workload))
        entry.inflight = max(0, int(inflight))
        self.mark_alive(server_id, now)

    def revive_address(self, address: str, now: float) -> list[str]:
        """Revive every suspect server at ``address``; returns their ids.

        Indexed: cost is the number of servers registered at that
        address, not the fleet size.
        """
        revived = [
            server_id
            for server_id in sorted(self._by_address.get(address, ()))
            if not self._entries[server_id].alive
        ]
        for server_id in revived:
            self.mark_alive(server_id, now)
        return revived

    def note_assignment(
        self, server_id: str, now: float = 0.0, *, hold_for: float = 60.0
    ) -> None:
        """Record that a request was just steered at this server.

        ``hold_for`` should be roughly the predicted completion time of
        that request: once it should have finished, the hint expires.
        """
        entry = self.get(server_id)
        heapq.heappush(entry.pending_expiries, now + max(0.0, hold_for))
        entry.assignments += 1

    def mark_failed(self, server_id: str) -> None:
        """A client reported this server failing: suspect it until it
        speaks again (next workload report or re-registration)."""
        if server_id not in self._entries:
            return  # stale report about a server we already dropped
        entry = self._entries[server_id]
        entry.failures += 1
        entry.alive = False

    def penalize(
        self, server_id: str, now: float, *, workload: float, hold_for: float
    ) -> None:
        """A client reported this server Busy: worsen its ranking for
        ``hold_for`` seconds without touching liveness.

        Repeated reports stack (each refused client is more evidence of
        saturation) and extend the expiry; the penalty decays as a whole
        once ``hold_for`` passes with no further reports.  The server
        stays alive and schedulable throughout — overload is a
        re-balancing signal, not a death sentence.
        """
        if server_id not in self._entries:
            return  # stale report about a server we already dropped
        if workload <= 0 or hold_for <= 0:
            return  # penalties disabled: busy reports are telemetry only
        entry = self._entries[server_id]
        entry.busy_reports += 1
        if now >= entry.penalty_until:
            entry.penalty_workload = 0.0  # previous penalty had decayed
        entry.penalty_workload += workload
        entry.penalty_until = now + hold_for

    def sweep_liveness(self, now: float, timeout: float) -> list[str]:
        """Mark servers silent for longer than ``timeout`` as down."""
        died: list[str] = []
        for entry in self._entries.values():
            if entry.alive and now - entry.last_report > timeout:
                entry.alive = False
                died.append(entry.server_id)
        return sorted(died)

    # ------------------------------------------------------------------
    def candidates_for(
        self, problem: str, *, exclude: tuple[str, ...] = ()
    ) -> list[ServerEntry]:
        """Live servers able to solve ``problem``, minus exclusions.

        Served from the problem index: cost is proportional to the
        number of servers advertising ``problem``, not the fleet size.
        """
        if problem not in self._by_problem:
            return []
        view = self._problem_views.get(problem)
        if view is None:
            view = tuple(
                self._entries[k] for k in sorted(self._by_problem[problem])
            )
            self._problem_views[problem] = view
        if exclude:
            banned = set(exclude)
            return [
                e for e in view if e.alive and e.server_id not in banned
            ]
        return [e for e in view if e.alive]

    def known_problems(self) -> set[str]:
        return set(self._by_problem)
