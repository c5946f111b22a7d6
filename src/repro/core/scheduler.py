"""Server-selection policies.

The paper's agent ranks candidates by predicted completion time —
minimum completion time (MCT).  The baselines implemented alongside are
the ones the scheduling experiment (T3) compares against:

* ``random`` — uniform choice, the no-information baseline,
* ``roundrobin`` — fair rotation, ignores heterogeneity,
* ``fastestpeak`` — always the highest peak-Mflop/s server, ignores
  workload and network (the "static ranking" straw man),
* ``mct`` — sort by the predictor's total.

The agent predicts every candidate's completion time once (one
``predict_batch`` call) and a policy only *orders* that vector: it
returns the indices of the ``k`` candidates to hand the client, best
first.  Candidates arrive in server-id order (the table's views are
id-sorted).  The client works down the list on failure, so policy
choice also shapes retry behaviour.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError
from .registry import ServerEntry

__all__ = [
    "SchedulingPolicy",
    "MinimumCompletionTime",
    "RandomPolicy",
    "RoundRobinPolicy",
    "FastestPeakPolicy",
    "make_policy",
]


class SchedulingPolicy:
    """Base class: pick and order ``k`` of the candidates.

    ``entries`` are id-sorted and ``totals[i]`` is the predicted seconds
    for ``entries[i]``; the result indexes both.
    """

    name = "base"

    def order(
        self, entries: Sequence[ServerEntry], totals: Sequence[float], k: int
    ) -> list[int]:
        raise NotImplementedError


class MinimumCompletionTime(SchedulingPolicy):
    """Ascending predicted completion time; server id breaks ties so
    equal predictions rank deterministically.

    The entries are id-sorted, so a stable sort of the totals alone
    breaks ties by server id: the result is exactly
    ``sorted(key=(total, server_id))[:k]``, computed in one native sort.
    """

    name = "mct"

    def order(self, entries, totals, k):
        return np.asarray(totals).argsort(kind="stable")[:k].tolist()


class RandomPolicy(SchedulingPolicy):
    """Uniformly random order."""

    name = "random"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def order(self, entries, totals, k):
        indices = list(range(len(entries)))
        self.rng.shuffle(indices)
        return indices[:k]


class RoundRobinPolicy(SchedulingPolicy):
    """Rotate through the candidate set across successive queries."""

    name = "roundrobin"

    def __init__(self) -> None:
        self._counter = 0

    def order(self, entries, totals, k):
        indices = sorted(
            range(len(entries)), key=lambda i: entries[i].server_id
        )
        if not indices:
            return []
        shift = self._counter % len(indices)
        self._counter += 1
        return (indices[shift:] + indices[:shift])[:k]


class FastestPeakPolicy(SchedulingPolicy):
    """Descending peak Mflop/s, blind to workload and network."""

    name = "fastestpeak"

    def order(self, entries, totals, k):
        return sorted(
            range(len(entries)),
            key=lambda i: (-entries[i].mflops, entries[i].server_id),
        )[:k]


def make_policy(
    name: str, rng: np.random.Generator | None = None
) -> SchedulingPolicy:
    """Policy factory used by :class:`~repro.core.agent.Agent`."""
    key = name.lower()
    if key == "mct":
        return MinimumCompletionTime()
    if key == "random":
        if rng is None:
            raise ConfigError("random policy needs an rng")
        return RandomPolicy(rng)
    if key == "roundrobin":
        return RoundRobinPolicy()
    if key == "fastestpeak":
        return FastestPeakPolicy()
    raise ConfigError(f"unknown scheduling policy {name!r}")
