"""Request lifecycle records.

Every client request carries a :class:`RequestRecord` that timestamps
each protocol phase — agent negotiation, per-attempt send/reply, retry
transitions — so the overhead-breakdown experiment (T5) and the
fault-tolerance accounting (T4) read straight off the records without
instrumenting the components further.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RequestStatus", "AttemptRecord", "RequestRecord"]


class RequestStatus(enum.Enum):
    PENDING = "pending"       # created, waiting on spec / agent
    QUERYING = "querying"     # QueryRequest in flight
    EXECUTING = "executing"   # SolveRequest sent to a server
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (RequestStatus.DONE, RequestStatus.FAILED)


@dataclass
class AttemptRecord:
    """One try against one server."""

    server_id: str
    address: str
    predicted_seconds: float
    t_sent: float
    t_end: Optional[float] = None
    #: "ok" | "error" | "timeout" | "busy" (None while in flight)
    outcome: Optional[str] = None
    detail: str = ""
    #: server-reported compute seconds (only on "ok")
    compute_seconds: float = 0.0
    #: the server answered from its result cache (no kernel ran)
    cached: bool = False
    #: keys the server reported not resident (outcome "missing")
    missing: tuple = ()

    @property
    def elapsed(self) -> Optional[float]:
        if self.t_end is None:
            return None
        return self.t_end - self.t_sent


@dataclass
class RequestRecord:
    """Full timeline of one request, attempts included."""

    request_id: int
    problem: str
    sizes: dict
    status: RequestStatus = RequestStatus.PENDING
    t_submit: float = 0.0
    t_query_sent: Optional[float] = None
    t_candidates: Optional[float] = None
    t_done: Optional[float] = None
    attempts: list[AttemptRecord] = field(default_factory=list)
    queries: int = 0
    error: str = ""

    # ------------------------------------------------------------------
    # derived timings (None until the data exists)
    # ------------------------------------------------------------------
    @property
    def negotiation_seconds(self) -> Optional[float]:
        """Agent round-trip: query sent -> candidate list received.

        Covers the *last* negotiation if the request re-queried.
        """
        if self.t_query_sent is None or self.t_candidates is None:
            return None
        return self.t_candidates - self.t_query_sent

    @property
    def total_seconds(self) -> Optional[float]:
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit

    @property
    def successful_attempt(self) -> Optional[AttemptRecord]:
        for attempt in self.attempts:
            if attempt.outcome == "ok":
                return attempt
        return None

    @property
    def compute_seconds(self) -> Optional[float]:
        attempt = self.successful_attempt
        return None if attempt is None else attempt.compute_seconds

    @property
    def transfer_seconds(self) -> Optional[float]:
        """Round-trip minus server compute for the successful attempt:
        input shipping + output return + protocol overhead."""
        attempt = self.successful_attempt
        if attempt is None or attempt.elapsed is None:
            return None
        return attempt.elapsed - attempt.compute_seconds

    @property
    def retries(self) -> int:
        """Failed attempts before (or without) success."""
        return sum(
            1 for a in self.attempts
            if a.outcome in ("error", "timeout", "busy")
        )

    @property
    def server_id(self) -> Optional[str]:
        attempt = self.successful_attempt
        return None if attempt is None else attempt.server_id

    def summary(self) -> str:
        total = self.total_seconds
        t = f"{total:.3f}s" if total is not None else "-"
        return (
            f"req {self.request_id} {self.problem} {self.status.value} "
            f"total={t} attempts={len(self.attempts)} retries={self.retries}"
        )
