"""Metrics snapshot goldens: three seeded sim scenarios, one registry each.

The files under ``tests/data/metrics_golden/`` were captured on commit
574cc99 — the last one with two counting mechanisms (registry
instruments beside bare ints) — by ``python tests/test_metrics_golden.py
--capture``.  The one-mechanism code must reproduce every counter, every
gauge and every histogram (count, total, min, max, buckets, overflow) of
all three exactly.  (The old hand-kept ``agent.servers_alive`` could go
stale — ``tests/test_agent_unit.py`` has the three-message regression —
but was not stale at the end of any of these runs, so no exception is
needed.)

Re-capture only when a scenario's *behaviour* changes on purpose.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.testbed import fleet_testbed, server_address, standard_testbed
from repro.trace.instruments import Observability

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "metrics_golden"


def _system(rng, n):
    return [rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)]


def farm_crash_revive() -> Observability:
    """Standard farm with short bounded queues; the fastest server dies
    under a burst (timeouts, failure reports, sheds, busy reports) and
    comes back."""
    obs = Observability()
    tb = standard_testbed(
        n_servers=4, seed=7, observability=obs, bandwidth=1e9,
        server_cfg=ServerConfig(max_queue=2),
    )
    tb.settle()
    rng = np.random.default_rng(7)
    handles = [
        tb.submit("c0", "linsys/dgesv", _system(rng, 200)) for _ in range(24)
    ]
    tb.transport.crash(server_address("s3"))
    tb.wait_all(handles, limit=tb.kernel.now + 48 * 3600.0)
    tb.transport.revive(server_address("s3"))
    tb.run(until=tb.kernel.now + 30.0)
    handles = [
        tb.submit("c0", "linsys/dgesv", _system(rng, 64)) for _ in range(6)
    ]
    tb.wait_all(handles, limit=tb.kernel.now + 48 * 3600.0)
    tb.run(until=tb.kernel.now + 30.0)
    return obs


def cache_zipf() -> Observability:
    """Cache stack end to end on an 80/20 repeat trace that overflows
    the four-entry caches, so hits, misses, inserts and evictions all
    move on agent and servers."""
    obs = Observability()
    tb = standard_testbed(
        n_servers=3, seed=29, cache_entries=4, observability=obs
    )
    tb.settle()
    rng = np.random.default_rng(31)
    pool = [_system(rng, 48) for _ in range(10)]
    draw = np.random.default_rng(32)
    for _ in range(60):
        hot = draw.random() < 0.8
        idx = int(draw.integers(2)) if hot else int(2 + draw.integers(8))
        a, b = pool[idx]
        (x,) = tb.solve("c0", "linsys/dgesv", [a, b])
        assert np.allclose(a @ x, b, atol=1e-8)
    tb.run(until=tb.kernel.now + 30.0)
    return obs


def fleet_kill_one() -> Observability:
    """Three sharded agents with anti-entropy; the primary is killed
    mid-run and clients and servers rotate to the survivors."""
    obs = Observability()
    tb = fleet_testbed(
        n_agents=3, n_servers=4, n_clients=2, seed=11,
        shard=True, sync_interval=2.0, observability=obs,
    )
    tb.settle()
    rng = np.random.default_rng(11)
    handles = [
        tb.submit(f"c{k % 2}", "linsys/dgesv", _system(rng, 96))
        for k in range(4)
    ]
    tb.wait_all(handles)
    tb.transport.crash("agent")
    tb.run(until=tb.kernel.now + 15.0)
    handles = [
        tb.submit(f"c{k % 2}", "linsys/dgesv", _system(rng, 96))
        for k in range(6)
    ]
    tb.wait_all(handles)
    tb.run(until=tb.kernel.now + 30.0)
    return obs


SCENARIOS = {
    "farm_crash_revive": farm_crash_revive,
    "cache_zipf": cache_zipf,
    "fleet_kill_one": fleet_kill_one,
}


def _metrics(name: str) -> dict:
    snapshot = SCENARIOS[name]().snapshot()["metrics"]
    return json.loads(json.dumps(snapshot))  # what a dump holds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_snapshot_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = _metrics(name)
    assert got["counters"] == golden["counters"]
    assert got["gauges"] == golden["gauges"]
    assert got["histograms"] == golden["histograms"]


def test_goldens_are_not_vacuous():
    """Each scenario moves the instruments it is there to pin."""
    farm = json.loads((GOLDEN_DIR / "farm_crash_revive.json").read_text())
    assert farm["counters"]["client.attempt_timeouts"] > 0
    assert farm["counters"]["agent.failure_reports"] > 0
    assert farm["counters"]["wire.dropped"] > 0
    for key in ("server.queued", "server.sheds", "agent.busy_reports",
                "client.busy_failovers"):
        assert farm["counters"][key] > 0, key
    assert farm["gauges"]["server.peak_queue"] == 2
    cache = json.loads((GOLDEN_DIR / "cache_zipf.json").read_text())
    for key in ("agent.cache_hits", "agent.cache_evictions",
                "server.cache_misses", "server.cache_evictions",
                "client.cached_replies"):
        assert cache["counters"][key] > 0, key
    fleet = json.loads((GOLDEN_DIR / "fleet_kill_one.json").read_text())
    for key in ("client.agent_failovers", "agent.mirror_forwards",
                "agent.sync_digests", "agent.query_forwards"):
        assert fleet["counters"][key] > 0, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_metrics_golden.py --capture")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in sorted(SCENARIOS):
        path = GOLDEN_DIR / f"{scenario}.json"
        path.write_text(
            json.dumps(_metrics(scenario), indent=1, sort_keys=True) + "\n"
        )
        print(f"captured {path}")
