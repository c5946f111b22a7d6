"""Agent query-path benchmark — fast path vs the seed's per-candidate path.

Measures broker throughput (queries/second) against table sizes of 10,
100 and 1000 servers, all advertising the queried problem:

* ``legacy`` — the seed's query path, inlined below as the baseline:
  ``candidates_for`` re-sorting the whole table, the complexity AST
  tree-walked three times per candidate (flops + input/output bytes),
  one scalar prediction per candidate, and a full sort to ship the top
  ``candidate_list_length``;
* ``fast``   — the shipped path: compiled+memoized complexity evaluated
  once per query, the columnar table (candidate rows, gathered ranking
  and link columns), one ``predict_batch``, and a stable argsort.

Both paths run against the same agent state and must return identical
candidate lists — the benchmark asserts decision equality before it
measures.  Prints a paper-style table, persists it under
``benchmarks/results/``, and writes machine-readable
``benchmarks/results/BENCH_agent.json``.  Asserts the headline claim:
>= 10x queries/sec at the 1000-server table.  Set ``BENCH_SMOKE=1`` for
a quick CI run (fewer repetitions, same asserts).
"""

import json
import os
import time

from _harness import RESULTS_DIR, emit
from repro.config import AgentConfig
from repro.core.agent import Agent
from repro.core.predictor import LinkEstimate, StaticNetworkInfo, predict
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import QueryReply, QueryRequest

PROBLEM = "linsys/dgesv"
SIZES = (10, 100, 1000)
SMOKE = bool(os.environ.get("BENCH_SMOKE"))


class _BenchNode:
    """Minimal sans-IO node: constant clock, sink for replies."""

    address = "agent/a0"
    host = "agenthost"

    def __init__(self):
        self.t = 0.0
        self.sent = []

    def now(self):
        return self.t

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def call_after(self, delay, fn):
        return None

    def endpoint_of(self, address):
        return None

    def learn_endpoint(self, address, endpoint):
        return None


def make_agent(n_servers: int) -> Agent:
    agent = Agent(
        network=StaticNetworkInfo(
            default=LinkEstimate(latency=1e-3, bandwidth=1.25e6)
        ),
        cfg=AgentConfig(),
    )
    agent.bind(_BenchNode())
    spec = builtin_registry().get(PROBLEM).spec
    agent.specs[spec.name] = spec
    for i in range(n_servers):
        agent.table.register(
            server_id=f"s{i:04d}",
            address=f"server/s{i:04d}",
            host=f"h{i % 64}",
            mflops=20.0 + (i * 37) % 400,
            problems={spec.name},
            now=0.0,
        )
        agent.table.report_workload(f"s{i:04d}", float((i * 13) % 250), now=0.0)
    return agent


# ----------------------------------------------------------------------
# The seed's query path, kept as the measured baseline.
# ----------------------------------------------------------------------
def legacy_handle_query(agent: Agent, src: str, msg: QueryRequest):
    spec = agent.specs[msg.problem]
    # seed candidates_for: sort every server id, then filter
    banned = set(msg.exclude)
    entries = [
        e
        for e in (
            agent.table._entries[k] for k in sorted(agent.table._entries)
        )
        if e.alive and msg.problem in e.problems and e.server_id not in banned
    ]
    env = {k: int(v) for k, v in msg.sizes.items()}

    predictions = {}

    def predict_one(entry):
        cached = predictions.get(entry.server_id)
        if cached is None:
            # the seed's prediction: three spec evaluations per candidate,
            # with the complexity AST tree-walked (no compiled form)
            base = predict(
                flops=spec.complexity.interpret(env),
                input_bytes=spec.input_bytes(env),
                output_bytes=spec.output_bytes(env),
                link=agent.network.link(msg.client_host, entry.host),
                peak_mflops=entry.mflops,
                workload=entry.workload,
                use_workload=agent.use_workload,
            )
            # seed pending inflation (every bench server has one slot):
            # each live hint costs one more service time
            pending = (
                entry.live_pending(agent.node.now())
                if agent.assignment_feedback else 0
            )
            cached = (
                base.send_seconds
                + base.compute_seconds * (1 + pending)
                + base.recv_seconds
            )
            predictions[entry.server_id] = cached
        return cached

    ranked = sorted(entries, key=lambda e: (predict_one(e), e.server_id))
    top = ranked[: agent.cfg.candidate_list_length]
    if top:
        hold = min(600.0, max(1.0, predict_one(top[0]) * 1.5))
        agent.table.note_assignment(
            top[0].server_id, agent.node.now(), hold_for=hold
        )
    return [(e.server_id, predict_one(e)) for e in top]


def _drain(agent: Agent):
    """Reset per-run side effects (reply sink, pending hints)."""
    agent.node.sent.clear()
    for entry in agent.table.entries():
        # the bench clock never moves, so revival only drops the hints
        agent.table.mark_alive(entry.server_id, agent.node.now())


def _fast_reply(agent: Agent, msg: QueryRequest):
    agent._handle_query("client/c0", msg)
    _dst, reply = agent.node.sent[-1]
    assert isinstance(reply, QueryReply) and reply.ok
    return [
        (c.server_id, c.predicted_seconds) for c in reply.candidate_list()
    ]


def _qps(fn, agent, msg, repeats: int) -> float:
    fn(agent, msg)  # warm caches/memos outside the timed window
    _drain(agent)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(agent, msg)
    elapsed = time.perf_counter() - t0
    _drain(agent)
    return repeats / elapsed


def _measure(n_servers: int) -> dict:
    agent = make_agent(n_servers)
    msg = QueryRequest(problem=PROBLEM, sizes={"n": 500}, client_host="c0")

    # decision equality first: same candidates, same predictions
    legacy_decision = legacy_handle_query(agent, "client/c0", msg)
    _drain(agent)
    fast_decision = _fast_reply(agent, msg)
    _drain(agent)
    assert fast_decision == legacy_decision, (fast_decision, legacy_decision)

    budget = 20_000 if SMOKE else 400_000
    repeats = max(10, budget // n_servers)
    legacy_qps = _qps(
        lambda a, m: legacy_handle_query(a, "client/c0", m),
        agent, msg, max(5, repeats // 20),
    )
    fast_qps = _qps(
        lambda a, m: a._handle_query("client/c0", m), agent, msg, repeats
    )
    return {
        "servers": n_servers,
        "legacy_qps": legacy_qps,
        "fast_qps": fast_qps,
        "speedup": fast_qps / legacy_qps,
    }


def test_agent_query_bench():
    rows = [_measure(n) for n in SIZES]

    lines = [
        "Agent query path — queries/second vs server-table size",
        "",
        f"{'servers':>8} {'legacy q/s':>12} {'fast q/s':>12} {'speedup':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['servers']:>8} {r['legacy_qps']:>12.1f} "
            f"{r['fast_qps']:>12.1f} {r['speedup']:>7.1f}x"
        )
    lines.append("")
    lines.append(
        "legacy = seed path (per-candidate AST walks, full re-sorts); "
        "fast = compiled complexity + columnar table + predict_batch + argsort"
    )
    emit("BENCH_agent", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_agent.json").write_text(
        json.dumps(
            {"benchmark": "agent_query", "problem": PROBLEM, "rows": rows},
            indent=2,
        )
        + "\n"
    )

    at_1000 = next(r for r in rows if r["servers"] == 1000)
    assert at_1000["speedup"] >= 10.0, at_1000


if __name__ == "__main__":
    test_agent_query_bench()
