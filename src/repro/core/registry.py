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

Every client query ranks its candidates from this table, so the table is
**columnar**: a server gets a *row* at its first registration, and the
facts a ranking reads — peak Mflop/s, slots, reported workload, busy
penalty and its expiry, liveness and the live pending-hint count — are
numpy columns indexed by row.  :class:`ServerEntry` keeps the server's
identity and cold fields; its ranking fields are read-only properties
over its row, and the table's methods are their only writers.  A query
is then a handful of array gathers over the candidate rows, never a
Python pass per candidate:

* a **problem index** (``problem -> {server ids}``) is maintained
  incrementally by :meth:`ServerTable.register` (the only operation that
  changes a server's problem set), and each problem's id-sorted row
  array is cached beside it and dropped only when that problem's
  *membership* changes; :meth:`candidates_for` masks it by ``alive`` and
  the query's exclusions;
* **link columns** hold, per client host, the latency and bandwidth the
  network table gives for each row's host.  A row is looked up on first
  use (once per distinct server host), a re-registration that moves a
  server to another host forgets that row, and a different network
  table or a change of its ``version`` forgets them all; columns are
  kept for a bounded number of client hosts, the oldest dropped first;
* pending hints live in one table-wide **min-heap** of
  ``(expiry, row, generation)``: dropping expired hints pops only what
  actually expired, and revival (:meth:`mark_alive`, re-registration)
  zeroes a row's count and bumps its generation, so the hints it
  superseded are discarded when they surface;
* an **address index** (``address -> {server ids}``) serves the
  liveness-probe path: a Pong identifies the sender only by transport
  address, and :meth:`revive_address` resolves it without scanning the
  fleet.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from numbers import Integral

import numpy as np

from ..errors import NetSolveError, ProtocolError
from .predictor import LinkEstimate, NetworkInfo, finite_real

__all__ = ["CandidateSet", "ServerEntry", "ServerTable", "server_capacity"]

#: the most slots the int64 slots column can hold
_MAX_SLOTS = int(np.iinfo(np.int64).max)

#: client hosts whose link columns are kept at once
_LINK_HOSTS = 64


def server_capacity(server_id: str, mflops, slots) -> tuple[float, int]:
    """A registration's ``(mflops, slots)`` as the table stores them.

    Raises :class:`NetSolveError` unless ``mflops`` is a finite positive
    number and ``slots`` an integer; ``slots`` is clamped into
    ``[1, _MAX_SLOTS]``.
    """
    mflops = finite_real(mflops, f"server {server_id!r}: mflops")
    if mflops <= 0:
        raise NetSolveError(f"server {server_id!r}: bad mflops {mflops}")
    # builtin int first: the ABC isinstance check is slow
    if not (isinstance(slots, int) or isinstance(slots, Integral)):
        raise NetSolveError(f"server {server_id!r}: bad slots {slots!r:.40}")
    return mflops, min(max(1, int(slots)), _MAX_SLOTS)


def _column(attr: str, cast, doc: str) -> property:
    def read(entry: "ServerEntry"):
        return cast(getattr(entry._table, attr)[entry._row])

    return property(read, doc=doc)


class ServerEntry:
    """One registered server.

    Identity and cold fields are plain attributes; the ranking fields
    read the owning table's columns at :attr:`row`.
    """

    __slots__ = (
        "server_id", "address", "host", "problems", "registered_at",
        "last_report", "failures", "inflight", "assignments",
        "busy_reports", "_table", "_row",
    )

    mflops = _column("_mflops", float, "peak Mflop/s from the registration")
    slots = _column(
        "_slots", int, "executor worker count the server advertised"
    )
    workload = _column("_workload", float, "freshest reported workload")
    #: short-lived workload penalty from client Busy reports: the server
    #: is saturated *right now*, so rank it worse without losing it
    penalty_workload = _column("_penalty", float, "live or decayed busy penalty")
    penalty_until = _column("_penalty_until", float, "when the penalty lapses")
    alive = _column("_alive", bool, "not under suspicion")
    pending = _column(
        "_pending", int,
        "assignment hints not yet superseded nor seen to expire",
    )

    def __init__(
        self, table: "ServerTable", row: int, *, server_id: str,
        address: str, host: str, problems: set[str], now: float,
    ):
        self._table = table
        self._row = row
        self.server_id = server_id
        self.address = address
        self.host = host
        self.problems = problems
        self.registered_at = now
        self.last_report = now
        self.failures = 0
        #: in-flight executions from the freshest workload report
        self.inflight = 0
        self.assignments = 0
        self.busy_reports = 0

    @property
    def row(self) -> int:
        """This server's row in the table's columns (fixed for life)."""
        return self._row

    def __repr__(self) -> str:
        return f"ServerEntry({self.server_id!r}, row={self._row})"

    def current_workload(self, now: float) -> float:
        """Reported workload plus any live busy penalty; a decayed
        penalty is forgotten lazily."""
        return float(self._table._loaded(np.array([self._row]), now)[0])

    def live_pending(self, now: float) -> int:
        """Pending-assignment count after dropping expired hints (any
        server's: the hints share one heap)."""
        self._table._expire_hints(now)
        return self.pending


class CandidateSet(Sequence):
    """One query's candidates: id-sorted table rows, indexable as
    :class:`ServerEntry` objects."""

    __slots__ = ("rows", "_by_row")

    def __init__(self, rows: np.ndarray, by_row: list[ServerEntry]):
        self.rows = rows
        self._by_row = by_row

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> ServerEntry:
        return self._by_row[self.rows[i]]

    def __iter__(self):
        return map(self._by_row.__getitem__, self.rows.tolist())


_NO_ROWS = np.empty(0, dtype=np.intp)

#: ranking columns: attribute, dtype (a new row starts at zero)
_COLUMNS = (
    ("_mflops", np.float64),
    ("_slots", np.int64),
    ("_workload", np.float64),
    ("_penalty", np.float64),
    ("_penalty_until", np.float64),
    ("_alive", np.bool_),
    ("_pending", np.int64),
)


class ServerTable:
    """Registry of servers, keyed by server id."""

    def __init__(self) -> None:
        self._entries: dict[str, ServerEntry] = {}
        #: incremental problem -> server-id index; ids stay in the index
        #: while suspect/dead (candidates_for masks on ``alive``) and
        #: leave it only when a re-registration drops the problem
        self._by_problem: dict[str, set[str]] = {}
        #: transport address -> server ids (several servers may share an
        #: address behind a forwarding agent); used by probe revival
        self._by_address: dict[str, set[str]] = {}
        #: cached id-sorted views, dropped when membership changes; a
        #: problem's view is its rows plus each id's position in them
        self._sorted_entries: list[ServerEntry] | None = None
        self._problem_views: dict[str, tuple[np.ndarray, dict[str, int]]] = {}
        #: row -> entry, and the hint generation of each row
        self._by_row: list[ServerEntry] = []
        self._generation: list[int] = []
        for attr, dtype in _COLUMNS:
            setattr(self, attr, np.zeros(8, dtype=dtype))
        #: one heap of (expiry, row, generation) for every pending hint
        self._hints: list[tuple[float, int, int]] = []
        #: client host -> (latency, bandwidth, looked-up mask) over rows,
        #: valid for ``_links_network`` at ``_links_version``
        self._links: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._links_network: NetworkInfo | None = None
        self._links_version = None

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

    def _grow(self) -> None:
        """Double every column's capacity (new rows start at zero)."""
        for attr, _dtype in _COLUMNS:
            old = getattr(self, attr)
            setattr(self, attr, np.concatenate((old, np.zeros_like(old))))
        for client_host, columns in self._links.items():
            self._links[client_host] = tuple(
                np.concatenate((a, np.zeros_like(a))) for a in columns
            )

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
        """Add or refresh a server (re-registration revives and updates).

        Raises :class:`NetSolveError` — and changes nothing — unless
        ``mflops`` is a finite positive number, ``slots`` an integer and
        ``problems`` non-empty.  ``slots`` is clamped to at least 1 (and
        to what the slots column holds).
        """
        mflops, slots = server_capacity(server_id, mflops, slots)
        if not problems:
            raise NetSolveError(f"server {server_id!r} advertises no problems")
        entry = self._entries.get(server_id)
        if entry is None:
            row = len(self._by_row)
            if row == len(self._mflops):
                self._grow()
            entry = ServerEntry(
                self, row, server_id=server_id, address=address, host=host,
                problems=set(problems), now=now,
            )
            self._by_row.append(entry)
            self._generation.append(0)
            self._entries[server_id] = entry
            self._sorted_entries = None
            self._index_add(server_id, entry.problems)
            self._by_address.setdefault(address, set()).add(server_id)
        else:
            row = entry._row
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
            if host != entry.host:
                for _latency, _bandwidth, known in self._links.values():
                    known[row] = False
            entry.address = address
            entry.host = host
            entry.problems = new
            entry.inflight = 0
            entry.last_report = now
            self._clear_hints(row)
            # a re-registration is a cold restart: whatever saturation
            # the busy penalty modelled died with the old incarnation
            self._penalty[row] = 0.0
            self._penalty_until[row] = 0.0
        self._mflops[row] = mflops
        self._slots[row] = slots
        self._alive[row] = True
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
    def _clear_hints(self, row: int) -> None:
        # the row's hints stay in the heap under a stale generation
        self._pending[row] = 0
        self._generation[row] += 1

    def _expire_hints(self, now: float) -> None:
        hints, generation, pending = self._hints, self._generation, self._pending
        while hints and hints[0][0] <= now:
            _expiry, row, gen = heapq.heappop(hints)
            if gen == generation[row]:
                pending[row] -= 1

    def _loaded(self, rows: np.ndarray, now: float) -> np.ndarray:
        """Reported workload at ``rows`` plus each live busy penalty; a
        decayed penalty on those rows is forgotten lazily."""
        workload = self._workload[rows]
        penalty = self._penalty[rows]
        if np.count_nonzero(penalty):
            held = penalty != 0
            live = held & (now < self._penalty_until[rows])
            workload = np.where(live, workload + penalty, workload)
            decayed = rows[held & ~live]
            self._penalty[decayed] = 0.0
            self._penalty_until[decayed] = 0.0
        return workload

    def mark_alive(self, server_id: str, now: float) -> None:
        """The one revival path: fresh evidence the server is up.

        Used by both workload reports and probe Pongs, so revival always
        refreshes liveness bookkeeping *and* drops pending-assignment
        hints — a server that went silent long enough to need reviving
        has certainly shed whatever the hints modelled.
        """
        entry = self.get(server_id)
        entry.last_report = now
        self._alive[entry._row] = True
        self._clear_hints(entry._row)

    def report_workload(
        self, server_id: str, workload: float, now: float, inflight: int = 0
    ) -> None:
        """Fresh truth from the server: update, revive, clear the hints.

        The one place a reported value enters the ranking columns, so it
        is checked here: ``workload`` must be a finite number and
        ``inflight`` an integer (a negative value of either clamps to
        zero).  Anything else raises :class:`ProtocolError` and changes
        nothing.
        """
        entry = self.get(server_id)
        workload = max(0.0, finite_real(workload, "workload"))
        if not (isinstance(inflight, int) or isinstance(inflight, Integral)):
            raise ProtocolError(
                f"inflight must be an integer, got {inflight!r:.40}"
            )
        self._workload[entry._row] = workload
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
        row = entry._row
        heapq.heappush(
            self._hints,
            (now + max(0.0, hold_for), row, self._generation[row]),
        )
        self._pending[row] += 1
        entry.assignments += 1

    def mark_failed(self, server_id: str) -> None:
        """A client reported this server failing: suspect it until it
        speaks again (next workload report or re-registration)."""
        if server_id not in self._entries:
            return  # stale report about a server we already dropped
        entry = self._entries[server_id]
        entry.failures += 1
        self._alive[entry._row] = False

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
        row = entry._row
        entry.busy_reports += 1
        if now >= self._penalty_until[row]:
            self._penalty[row] = 0.0  # previous penalty had decayed
        self._penalty[row] += workload
        self._penalty_until[row] = now + hold_for

    def sweep_liveness(self, now: float, timeout: float) -> list[str]:
        """Mark servers silent for longer than ``timeout`` as down."""
        died: list[str] = []
        alive = self._alive
        for entry in self._entries.values():
            if alive[entry._row] and now - entry.last_report > timeout:
                alive[entry._row] = False
                died.append(entry.server_id)
        return sorted(died)

    # ------------------------------------------------------------------
    def candidates_for(
        self, problem: str, *, exclude: tuple[str, ...] = ()
    ) -> CandidateSet:
        """Live servers able to solve ``problem``, minus exclusions, in
        server-id order.

        Served from the problem index: cost is proportional to the
        number of servers advertising ``problem``, not the fleet size.
        """
        if problem not in self._by_problem:
            return CandidateSet(_NO_ROWS, self._by_row)
        view = self._problem_views.get(problem)
        if view is None:
            ids = sorted(self._by_problem[problem])
            view = (
                np.array(
                    [self._entries[k]._row for k in ids], dtype=np.intp
                ),
                {k: i for i, k in enumerate(ids)},
            )
            self._problem_views[problem] = view
        rows, position = view
        keep = self._alive[rows]
        if exclude:
            for server_id in set(exclude):
                i = position.get(server_id)
                if i is not None:
                    keep[i] = False
        return CandidateSet(rows[keep], self._by_row)

    def ranking_columns(
        self, rows: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(mflops, workload, slots, pending)`` gathered at ``rows``.

        ``workload`` carries each live busy penalty (a decayed one is
        forgotten on the rows gathered) and ``pending`` counts only the
        hints that have not expired by ``now`` — element for element the
        values of :meth:`ServerEntry.current_workload` and
        :meth:`ServerEntry.live_pending`.
        """
        self._expire_hints(now)
        return (
            self._mflops[rows], self._loaded(rows, now), self._slots[rows],
            self._pending[rows],
        )

    def link_columns(
        self, network: NetworkInfo, client_host: str, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(latency, bandwidth)`` from ``client_host`` to each row's
        host, per ``network``.

        Rows are looked up in ``network`` once per distinct server host
        and kept until the row's host, the network table or its version
        changes.  Columns are kept for at most :data:`_LINK_HOSTS` client
        hosts (the oldest is dropped first).  A failed lookup raises out
        of here and keeps nothing this call looked up.
        """
        version = network.version
        if network is not self._links_network or \
                version != self._links_version:
            self._links.clear()
            self._links_network, self._links_version = network, version
        columns = self._links.get(client_host)
        fresh = columns is None
        if fresh:
            size = len(self._mflops)
            columns = (np.empty(size), np.empty(size), np.zeros(size, bool))
        latency, bandwidth, known = columns
        missing = rows[~known[rows]]
        if missing.size:
            by_host: dict[str, LinkEstimate] = {}
            links = []
            for row in missing.tolist():
                host = self._by_row[row].host
                link = by_host.get(host)
                if link is None:
                    link = by_host[host] = network.link(client_host, host)
                links.append(link)
            latency[missing] = [link.latency for link in links]
            bandwidth[missing] = [link.bandwidth for link in links]
            known[missing] = True
        if fresh:
            if len(self._links) >= _LINK_HOSTS:
                del self._links[next(iter(self._links))]
            self._links[client_host] = columns
        return latency[rows], bandwidth[rows]

    def known_problems(self) -> set[str]:
        return set(self._by_problem)
