"""Agent-fleet benchmark — sharded broker scaling + agent-death failover.

Two scenarios, one headline JSON (``benchmarks/results/BENCH_fleet.json``):

* **scaling** — a sans-IO fleet of 1 vs 3 peered agents brokering the
  same query stream under registry churn (periodic re-registrations,
  mirrored fleet-wide).  Each agent's message-handling wall time is
  accumulated separately; aggregate throughput is ``queries /
  max(per-agent busy time)`` — the fleet runs on separate machines, so
  the busiest broker is the bottleneck.  With ``shard`` on, a non-owner
  hops a query one hop to its consistent-hash owner, so the ranking work
  (column gathers and predict_batch over the whole table) splits across
  the fleet while every agent still pays the full churn cost and its
  share of the hops.  Each configuration runs ``REPEATS`` times,
  alternating, and each agent keeps its least busy run: a busy time is a
  sum of ~100 µs handler calls, so one preemption of the process would
  otherwise decide the ratio.  Gates the claim that sharding divides
  the ranking work with an exact count instead of that wall-clock
  ratio: the busiest of 3 agents serves (ranks) at most half the
  queries the single agent serves.  The q/s ratio is reported only.
* **kill_agent** — a simulated ``fleet_testbed`` deployment (3 sharded
  agents, anti-entropy on); the primary agent is crashed mid-run and
  clients keep submitting.  Asserts zero failed requests and that the
  client failover rotation actually fired.

Set ``BENCH_SMOKE=1`` for a quick CI run (smaller fleet, same asserts).
"""

import json
import os
import time

from _harness import RESULTS_DIR, emit
from repro.config import AgentConfig
from repro.core.agent import Agent
from repro.core.fleet import HashRing
from repro.core.predictor import LinkEstimate, StaticNetworkInfo
from repro.protocol.messages import QueryReply, QueryRequest, RegisterServer
from repro.testbed import fleet_testbed

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

N_PROBLEMS = 30
N_SERVERS = 250 if SMOKE else 600
N_QUERIES = 600 if SMOKE else 2400
CHURN_EVERY = 10  # one churn-server (re-)registration per this many queries
N_CHURN_SERVERS = 8  # dedicated churners cycling through registrations
REPEATS = 3  # runs per configuration; each agent keeps its least busy


def bench_pdl(n_problems: int) -> str:
    """A synthetic catalogue: ``bench/pNN`` dense-solver lookalikes."""
    blocks = []
    for i in range(n_problems):
        blocks.append(
            f"problem bench/p{i:02d}\n"
            f"    complexity  2/3*n^3 + {i + 1}*n^2\n"
            f"    input  A matrix[n,n]\n"
            f"    input  b vector[n]\n"
            f"    output x vector[n]\n"
            f"end\n"
        )
    return "\n".join(blocks)


#: what the churning servers advertise — a problem nobody queries, so
#: the candidate sets under measurement never change shape; the churn
#: cost is the *registration processing* (PDL parse, table update,
#: mirror fan-out), which every agent pays for every churn event
CHURN_PDL = (
    "problem bench/churn\n"
    "    complexity  n^2\n"
    "    input  A matrix[n,n]\n"
    "    output s scalar\n"
    "end\n"
)


class _FleetNode:
    """Sans-IO node for one fleet member: sends go to a shared router."""

    def __init__(self, address: str, outbox: list):
        self.address = address
        self.host = f"host-{address}"
        self.t = 0.0
        self.outbox = outbox

    def now(self):
        return self.t

    def send(self, dst, msg):
        self.outbox.append((self.address, dst, msg))

    def call_after(self, delay, fn):
        return None

    def endpoint_of(self, address):
        return None

    def learn_endpoint(self, address, endpoint):
        return None


class _Fleet:
    """N peered agents wired through an explicit message router, with
    per-agent busy-time accounting around every delivery."""

    def __init__(self, n_agents: int, *, shard: bool):
        self.outbox: list = []
        self.addresses = [f"agent{i}" for i in range(n_agents)]
        self.agents: dict[str, Agent] = {}
        self.busy = dict.fromkeys(self.addresses, 0.0)
        self.replies: list[QueryReply] = []
        network = StaticNetworkInfo(
            default=LinkEstimate(latency=1e-3, bandwidth=1.25e6)
        )
        for addr in self.addresses:
            peers = tuple(a for a in self.addresses if a != addr)
            agent = Agent(
                network=network,
                # sync_interval=0: no anti-entropy timers in the hot
                # loop, and the shard forwarder treats every peer as
                # reachable (no heartbeats to go stale)
                cfg=AgentConfig(shard=shard, sync_interval=0.0),
                peers=peers,
            )
            agent.bind(_FleetNode(addr, self.outbox))
            self.agents[addr] = agent

    def deliver(self, src: str, dst: str, msg, *, timed: bool) -> None:
        agent = self.agents.get(dst)
        if agent is None:
            if isinstance(msg, QueryReply):
                self.replies.append(msg)
            return
        if timed:
            t0 = time.perf_counter()
            agent.on_message(src, msg)
            self.busy[dst] += time.perf_counter() - t0
        else:
            agent.on_message(src, msg)

    def drain(self, *, timed: bool) -> None:
        while self.outbox:
            src, dst, msg = self.outbox.pop(0)
            self.deliver(src, dst, msg, timed=timed)

    def register_all(self, pdl: str) -> None:
        """Home each server round-robin; mirrors fan out untimed."""
        for i in range(N_SERVERS):
            home = self.addresses[i % len(self.addresses)]
            self.deliver(
                f"server/s{i:04d}", home,
                RegisterServer(
                    server_id=f"s{i:04d}",
                    host=f"h{i % 64}",
                    mflops=20.0 + (i * 37) % 400,
                    problems_pdl=pdl,
                ),
                timed=False,
            )
            self.drain(timed=False)


def run_scaling(n_agents: int, *, shard: bool) -> dict:
    pdl = bench_pdl(N_PROBLEMS)
    fleet = _Fleet(n_agents, shard=shard)
    fleet.register_all(pdl)
    for agent in fleet.agents.values():
        assert len(agent.table) == N_SERVERS

    churn_id = 0
    for q in range(N_QUERIES):
        # farm-style stream: a block of same-problem queries at a time
        # (the same stream feeds both configs; blocks keep the owner's
        # working set hot the way a real per-machine broker would be)
        problem = f"bench/p{(q * N_PROBLEMS) // N_QUERIES:02d}"
        entry_agent = fleet.addresses[q % n_agents]
        fleet.deliver(
            f"client/c{q % 8}", entry_agent,
            QueryRequest(
                problem=problem, sizes={"n": 300},
                client_host=f"ws{q % 8}", tag=q,
            ),
            timed=True,
        )
        fleet.drain(timed=True)  # forwarded hop + its reply
        if q % CHURN_EVERY == CHURN_EVERY - 1:
            i = churn_id % N_CHURN_SERVERS
            churn_id += 1
            home = fleet.addresses[i % n_agents]
            fleet.deliver(
                f"server/x{i:02d}", home,
                RegisterServer(
                    server_id=f"x{i:02d}",
                    host=f"h{i % 64}",
                    mflops=50.0 + churn_id,  # changes every round: a
                    # genuinely new registration shape, not a no-op
                    problems_pdl=CHURN_PDL,
                ),
                timed=True,
            )
            fleet.drain(timed=True)  # the mirror copies
        # assignment hints pile up (the clock never moves, so none
        # lapses); the table keeps them as a count per row, so ranking
        # cost stays flat over the run

    ok = [r for r in fleet.replies if r.ok]
    assert len(ok) == N_QUERIES, (len(ok), N_QUERIES)
    forwards = sum(a.queries_forwarded for a in fleet.agents.values())
    served = {a: fleet.agents[a].queries_served for a in fleet.addresses}
    bottleneck = max(fleet.busy.values())
    return {
        "agents": n_agents,
        "shard": shard,
        "queries": N_QUERIES,
        "registrations": churn_id,
        "forwards": forwards,
        "served": served,
        "busy_seconds": dict(fleet.busy),
        "qps": N_QUERIES / bottleneck,
    }


def least_busy(runs: list[dict]) -> dict:
    """Repeated runs of one configuration, each agent at its least busy
    run; ``qps`` is recomputed from those busy times."""
    busy = {
        agent: min(r["busy_seconds"][agent] for r in runs)
        for agent in runs[0]["busy_seconds"]
    }
    return {
        **runs[0],
        "repeats": len(runs),
        "busy_seconds": busy,
        "qps": runs[0]["queries"] / max(busy.values()),
    }


def run_kill_agent() -> dict:
    n_requests = 4 if SMOKE else 8
    tb = fleet_testbed(
        n_agents=3, n_servers=4, n_clients=2, seed=11,
        shard=True, sync_interval=2.0,
    )
    tb.settle()

    import numpy as np

    rng = np.random.default_rng(11)

    def system(n=96):
        return [rng.standard_normal((n, n)) + n * np.eye(n),
                rng.standard_normal(n)]

    handles = []
    for k in range(n_requests // 2):
        handles.append(tb.submit(f"c{k % 2}", "linsys/dgesv", system()))
    tb.wait_all(handles)

    # kill c0's (and s0's) primary broker mid-run; the survivors' peer
    # heartbeats notice within 2 sync intervals, clients rotate on their
    # own query timeouts
    tb.transport.crash("agent")
    tb.run(until=tb.kernel.now + 15.0)
    for k in range(n_requests - n_requests // 2):
        handles.append(tb.submit(f"c{k % 2}", "linsys/dgesv", system()))
    tb.wait_all(handles)

    from repro.core.client import RequestStatus

    failed = [h for h in handles if h.status is not RequestStatus.DONE]
    failovers = sum(c.agent_failovers for c in tb.clients.values())
    return {
        "requests": len(handles),
        "failed": len(failed),
        "client_failovers": failovers,
    }


def test_fleet_bench():
    singles, fleets = [], []
    for _ in range(REPEATS):  # alternate, so drift hits both alike
        singles.append(run_scaling(1, shard=False))
        fleets.append(run_scaling(3, shard=True))
    single, fleet = least_busy(singles), least_busy(fleets)
    speedup = fleet["qps"] / single["qps"]

    ring = HashRing(tuple(f"agent{i}" for i in range(3)))
    owners = [ring.owner(f"bench/p{i:02d}") for i in range(N_PROBLEMS)]
    spread = {a: owners.count(a) for a in sorted(set(owners))}

    kill = run_kill_agent()

    lines = [
        "Agent fleet — sharded brokering under registry churn",
        "",
        f"{'agents':>7} {'queries':>8} {'churn':>6} {'forwards':>9} "
        f"{'agg q/s':>10}",
    ]
    for r in (single, fleet):
        lines.append(
            f"{r['agents']:>7} {r['queries']:>8} {r['registrations']:>6} "
            f"{r['forwards']:>9} {r['qps']:>10.1f}"
        )
    lines += [
        "",
        f"speedup: {speedup:.2f}x  (aggregate q/s = queries / busiest "
        f"agent's handling time, each agent's least of {REPEATS} runs)",
        f"shard ownership of {N_PROBLEMS} problems: "
        + " ".join(f"{a}:{n}" for a, n in spread.items()),
        "",
        f"kill-one-agent: {kill['requests']} requests, "
        f"{kill['failed']} failed, "
        f"{kill['client_failovers']} client failover(s)",
    ]
    emit("BENCH_fleet", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fleet.json").write_text(
        json.dumps(
            {
                "benchmark": "fleet",
                "smoke": SMOKE,
                "scaling": {
                    "single": single,
                    "fleet": fleet,
                    "speedup": speedup,
                    "ownership": spread,
                },
                "kill_agent": kill,
            },
            indent=2,
        )
        + "\n"
    )

    # sharding divides the ranking work: each owner ranks only its
    # problems' queries (an exact count, where the q/s ratio is a clock)
    busiest = max(fleet["served"].values())
    assert 2 * busiest <= single["served"]["agent0"], (
        single["served"], fleet["served"]
    )
    assert kill["failed"] == 0, kill
    assert kill["client_failovers"] > 0, kill


if __name__ == "__main__":
    test_fleet_bench()
