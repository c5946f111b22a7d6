"""Unit tests for the agent's server table and scheduling policies."""

import numpy as np
import pytest

from repro.errors import ConfigError, NetSolveError
from repro.core.registry import ServerTable
from repro.core.scheduler import (
    FastestPeakPolicy,
    MinimumCompletionTime,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)


def table_with(n=3, problems=("p",)):
    table = ServerTable()
    for i in range(n):
        table.register(
            server_id=f"s{i}",
            address=f"server/s{i}",
            host=f"h{i}",
            mflops=50.0 * (i + 1),
            problems=set(problems),
            now=0.0,
        )
    return table


# ----------------------------------------------------------------------
# ServerTable
# ----------------------------------------------------------------------
def test_register_and_lookup():
    table = table_with(2)
    assert len(table) == 2
    assert table.get("s0").mflops == 50.0
    assert "s1" in table and "sX" not in table


def test_register_validation():
    table = ServerTable()
    with pytest.raises(NetSolveError):
        table.register(server_id="s", address="a", host="h", mflops=0.0,
                       problems={"p"}, now=0.0)
    with pytest.raises(NetSolveError):
        table.register(server_id="s", address="a", host="h", mflops=1.0,
                       problems=set(), now=0.0)


def test_reregistration_revives_and_updates():
    table = table_with(1)
    table.mark_failed("s0")
    assert not table.get("s0").alive
    table.register(server_id="s0", address="server/s0", host="h0",
                   mflops=99.0, problems={"q"}, now=5.0)
    entry = table.get("s0")
    assert entry.alive and entry.mflops == 99.0 and entry.problems == {"q"}


def test_unknown_server_raises():
    with pytest.raises(NetSolveError):
        ServerTable().get("nope")


def test_workload_report_updates_and_revives():
    table = table_with(1)
    table.mark_failed("s0")
    table.report_workload("s0", 150.0, now=10.0)
    entry = table.get("s0")
    assert entry.alive
    assert entry.workload == 150.0
    assert entry.last_report == 10.0


def test_workload_report_clamps_negative():
    table = table_with(1)
    table.report_workload("s0", -5.0, now=1.0)
    assert table.get("s0").workload == 0.0


def test_pending_assignment_feedback():
    table = table_with(1)
    table.note_assignment("s0")
    table.note_assignment("s0")
    entry = table.get("s0")
    assert entry.pending == 2
    assert entry.live_pending(0.0) == 2
    table.report_workload("s0", 50.0, now=2.0)
    assert entry.pending == 0
    assert entry.workload == 50.0


def test_mark_failed_counts_and_suspects():
    table = table_with(2)
    table.mark_failed("s0")
    assert table.get("s0").failures == 1
    assert not table.get("s0").alive
    assert table.get("s1").alive
    table.mark_failed("ghost")  # stale report: no crash


def test_sweep_liveness():
    table = table_with(2)
    table.report_workload("s1", 0.0, now=100.0)
    died = table.sweep_liveness(now=200.0, timeout=150.0)
    assert died == ["s0"]
    assert not table.get("s0").alive
    assert table.get("s1").alive


def test_candidates_filtering():
    table = table_with(3)
    table.mark_failed("s1")
    cands = table.candidates_for("p")
    assert [c.server_id for c in cands] == ["s0", "s2"]
    cands = table.candidates_for("p", exclude=("s0",))
    assert [c.server_id for c in cands] == ["s2"]
    assert len(table.candidates_for("unknown-problem")) == 0


def test_known_problems_union():
    table = table_with(1, problems=("a", "b"))
    table.register(server_id="sx", address="ax", host="hx", mflops=1.0,
                   problems={"c"}, now=0.0)
    assert table.known_problems() == {"a", "b", "c"}


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
def ranked(policy, table, totals=None, k=None):
    """Server ids in the order ``policy`` hands them out."""
    entries = table.entries()
    if totals is None:
        totals = [1.0] * len(entries)
    order = policy.order(entries, totals, len(entries) if k is None else k)
    return [entries[i].server_id for i in order]


def test_mct_sorts_by_prediction():
    table = table_with(3)
    policy = MinimumCompletionTime()
    assert ranked(policy, table, [3.0, 1.0, 2.0]) == ["s1", "s2", "s0"]
    assert ranked(policy, table, [3.0, 1.0, 2.0], k=2) == ["s1", "s2"]


def test_mct_deterministic_tiebreak():
    table = table_with(3)
    policy = MinimumCompletionTime()
    assert ranked(policy, table, [1.0, 1.0, 1.0]) == ["s0", "s1", "s2"]
    assert ranked(policy, table, [1.0, 1.0, 1.0], k=2) == ["s0", "s1"]


def test_random_policy_permutes_deterministically():
    table = table_with(5)
    r1 = ranked(RandomPolicy(np.random.default_rng(3)), table)
    r2 = ranked(RandomPolicy(np.random.default_rng(3)), table)
    assert r1 == r2
    assert sorted(r1) == [f"s{i}" for i in range(5)]
    # a short list is the head of the same permutation
    assert ranked(RandomPolicy(np.random.default_rng(3)), table, k=2) == r1[:2]


def test_random_policy_actually_shuffles():
    table = table_with(6)
    policy = RandomPolicy(np.random.default_rng(0))
    orders = {tuple(ranked(policy, table)) for _ in range(20)}
    assert len(orders) > 1


def test_roundrobin_rotates():
    table = table_with(3)
    policy = RoundRobinPolicy()
    firsts = [ranked(policy, table, k=1) for _ in range(4)]
    assert firsts == [["s0"], ["s1"], ["s2"], ["s0"]]
    assert ranked(policy, table) == ["s1", "s2", "s0"]


def test_roundrobin_empty():
    assert RoundRobinPolicy().order([], [], 3) == []


def test_fastest_peak_ignores_prediction():
    table = table_with(3)
    policy = FastestPeakPolicy()
    assert ranked(policy, table, [0.0, 100.0, 50.0]) == ["s2", "s1", "s0"]
    assert ranked(policy, table, [0.0, 100.0, 50.0], k=1) == ["s2"]


def test_make_policy():
    assert make_policy("mct").name == "mct"
    assert make_policy("ROUNDROBIN").name == "roundrobin"
    assert make_policy("fastestpeak").name == "fastestpeak"
    assert make_policy("random", np.random.default_rng(0)).name == "random"
    with pytest.raises(ConfigError):
        make_policy("random")
    with pytest.raises(ConfigError):
        make_policy("nonsense")
