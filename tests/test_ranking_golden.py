"""Decision goldens for all four scheduling policies.

The files under ``tests/data/ranking_golden/`` were captured on the
commit named inside them — the last one where the agent ranked three
ways (a scalar ``predict_entry``, a cached per-candidate closure for the
non-MCT policies and the vectorized MCT path) — by ``python
tests/test_ranking_golden.py --capture``.  The one-path agent must
reproduce every reply of every policy exactly: the same candidate ids in
the same order, the same ``predicted_seconds`` bit patterns and the same
pending-assignment hold for the head.

The scenario talks to the agent's handlers directly over a stub node
whose clock the script owns: 14 servers on 5 hosts with slots 1/2/4,
workload reports, a failure and a revival, one busy penalty that decays
mid-run and one still in force at the end, pending hints that expire and
hints that outlive the run, handle-free and ``resident``-bearing
queries, ``exclude`` lists up to the whole pool, three problems, and
four agent variants crossing ``use_workload`` / ``assignment_feedback``
with candidate lists shorter and longer than the pool.

Beside the golden, every reply is checked against the documented scalar
model — ``predictor.predict`` plus the pending inflation, written out
here — so the resident discount, the slot division and the busy penalty
stay pinned to the reference the property tests compare
``predict_batch`` with.

Re-capture only when the prediction model or a policy changes on
purpose.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.config import AgentConfig
from repro.core.agent import Agent
from repro.core.predictor import LinkEstimate, StaticNetworkInfo, predict
from repro.problems.builtin import builtin_registry
from repro.problems.pdl import render_pdl
from repro.protocol.messages import (
    FailureReport,
    QueryReply,
    QueryRequest,
    RegisterServer,
    WorkloadReport,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "ranking_golden"

POLICIES = ("mct", "random", "roundrobin", "fastestpeak")
#: (use_workload, assignment_feedback, candidate_list_length)
VARIANTS = ((True, True, 32), (True, False, 3), (False, True, 5),
            (False, False, 2))
QUERIES = 64  # per variant: 256 per policy

HOSTS = ("h0", "h1", "h2", "h3", "h4")
CLIENT_HOSTS = ("c0", "c1", "h1")  # the last shares a host with servers
MFLOPS = (50.0, 100.0, 200.0, 100.0, 400.0, 50.0, 200.0,
          100.0, 800.0, 400.0, 100.0, 200.0, 50.0, 400.0)
SERVER_IDS = tuple(f"s{i:02d}" for i in range(len(MFLOPS)))
PROBLEMS = ("linsys/dgesv", "blas/dgemm", "signal/fft")


class StubNode:
    """What the agent's handlers need of a node, with a settable clock."""

    address = "agent"

    def __init__(self):
        self.t = 0.0
        self.sent = []

    def now(self):
        return self.t

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def endpoint_of(self, address):
        return ""


def _network() -> StaticNetworkInfo:
    rng = np.random.default_rng(41)
    net = StaticNetworkInfo()
    for client in CLIENT_HOSTS:
        for host in HOSTS:
            if client != host:
                net.set(client, host, LinkEstimate(
                    latency=float(rng.uniform(1e-4, 5e-2)),
                    bandwidth=float(rng.uniform(1e5, 1e8)),
                ))
    return net


def _build_agent(policy, use_workload, feedback, k):
    agent = Agent(
        network=_network(),
        cfg=AgentConfig(policy=policy, candidate_list_length=k),
        rng=np.random.default_rng(5),
        use_workload=use_workload,
        assignment_feedback=feedback,
    )
    agent.node = StubNode()  # not bound: no periodic timers to arm
    holds = []
    note = agent.table.note_assignment
    agent.table.note_assignment = lambda sid, now, *, hold_for: (
        holds.append((sid, hold_for)), note(sid, now, hold_for=hold_for)
    )
    reg = builtin_registry()
    for i, sid in enumerate(SERVER_IDS):
        serves = [PROBLEMS[0]]
        if i % 2 == 0:
            serves.append(PROBLEMS[1])
        if i % 3:
            serves.append(PROBLEMS[2])
        agent._handle_register(f"server/{sid}", RegisterServer(
            server_id=sid, host=HOSTS[i % len(HOSTS)], mflops=MFLOPS[i],
            problems_pdl=render_pdl(reg.subset(serves).specs()),
            slots=(1, 2, 4)[i % 3],
        ))
    return agent, holds


def _draw_query(rng, q) -> QueryRequest:
    problem = PROBLEMS[int(rng.choice([0, 0, 0, 1, 2]))]
    if problem == "blas/dgemm":
        sizes = {s: int(rng.integers(10, 1500)) for s in ("m", "n", "k")}
    elif problem == "signal/fft":
        sizes = {"n": 2 ** int(rng.integers(6, 23))}
    else:
        sizes = {"n": int(rng.integers(10, 4000))}
    exclude = ()
    draw = rng.random()
    if draw < 0.02:
        exclude = SERVER_IDS  # nobody left: a rejecting reply
    elif draw < 0.35:
        exclude = tuple(rng.choice(
            SERVER_IDS, size=int(rng.integers(1, 5)), replace=False
        ).tolist())
    resident = {}
    if rng.random() < 0.4:
        for sid in rng.choice(
            SERVER_IDS, size=int(rng.integers(1, 3)), replace=False
        ).tolist():
            # a share of the inputs, all of them, or more than all
            resident[sid] = int(rng.choice([4096, 8 * 300 * 300, 2 ** 40]))
    return QueryRequest(
        problem=problem, sizes=sizes,
        client_host=CLIENT_HOSTS[int(rng.integers(len(CLIENT_HOSTS)))],
        exclude=exclude, tag=q, resident=resident,
    )


def _reference_totals(agent, msg) -> dict:
    """server_id -> predicted seconds by the scalar model, test-side."""
    spec = agent.specs[msg.problem]
    now = agent.node.now()
    totals = {}
    for e in agent.table.candidates_for(msg.problem, exclude=msg.exclude):
        base = predict(
            flops=spec.flops(msg.sizes),
            input_bytes=max(
                0.0, spec.input_bytes(msg.sizes)
                - msg.resident.get(e.server_id, 0)
            ),
            output_bytes=spec.output_bytes(msg.sizes),
            link=agent.network.link(msg.client_host, e.host),
            peak_mflops=e.mflops,
            workload=e.current_workload(now),
            slots=e.slots,
            use_workload=agent.use_workload,
        )
        rounds = (
            e.live_pending(now) // e.slots if agent.assignment_feedback else 0
        )
        totals[e.server_id] = (
            base.send_seconds
            + base.compute_seconds * (1 + rounds)
            + base.recv_seconds
        )
    return totals


def run_variant(policy, variant_index) -> list:
    """One agent through the scripted timeline; one record per query."""
    use_workload, feedback, k = VARIANTS[variant_index]
    agent, holds = _build_agent(policy, use_workload, feedback, k)
    node = agent.node
    # the script depends on the variant only, so all four policies are
    # shown the same reports and the same queries at the same instants
    rng = np.random.default_rng([97, variant_index])

    def busy(sid):
        agent._handle_failure("client/c0", FailureReport(
            server_id=sid, problem=PROBLEMS[0], kind="busy"
        ))

    busy("s03")  # decays 30 s in, about the middle of the run
    records = []
    for q in range(QUERIES):
        node.t += float(rng.uniform(0.05, 1.5))
        if rng.random() < 0.35:
            sid = SERVER_IDS[int(rng.integers(len(SERVER_IDS)))]
            agent._handle_report(f"server/{sid}", WorkloadReport(
                server_id=sid, workload=float(rng.uniform(0.0, 400.0)),
                inflight=int(rng.integers(0, 5)),
            ))
        if q == 20:
            agent._handle_failure("client/c0", FailureReport(
                server_id="s05", problem=PROBLEMS[0]
            ))
        if q in (44, 50):
            busy("s08")  # stacked, and in force to the end
        msg = _draw_query(rng, q)
        expected = _reference_totals(agent, msg)
        del holds[:], node.sent[:]
        agent._handle_query("client/c0", msg)
        ((dst, reply),) = node.sent
        assert dst == "client/c0" and type(reply) is QueryReply
        assert reply.tag == q
        if not reply.ok:
            assert not expected and not holds
            records.append({"reject": reply.detail})
            continue
        cands = reply.candidate_list()
        assert len(cands) == min(k, len(expected))
        for c in cands:
            assert c.predicted_seconds == expected[c.server_id]
        if policy == "mct":
            assert [c.server_id for c in cands] == sorted(
                expected, key=lambda sid: (expected[sid], sid)
            )[:k]
        ((head, hold),) = holds
        assert head == cands[0].server_id
        assert hold == min(600.0, max(1.0, cands[0].predicted_seconds * 1.5))
        records.append({
            "candidates": [
                [c.server_id, c.predicted_seconds.hex()] for c in cands
            ],
            "hold": hold.hex(),
        })
    assert agent.table.get("s03").penalty_workload == 0.0  # decayed
    assert agent.table.get("s08").current_workload(node.t) > \
        agent.table.get("s08").workload  # in force
    return records


def _variant_name(index) -> str:
    use_workload, feedback, k = VARIANTS[index]
    return f"workload={int(use_workload)},feedback={int(feedback)},k={k}"


def _decisions(policy) -> dict:
    return {
        _variant_name(i): run_variant(policy, i) for i in range(len(VARIANTS))
    }


@pytest.mark.parametrize("policy", POLICIES)
def test_decisions_match_golden(policy):
    golden = json.loads((GOLDEN_DIR / f"{policy}.json").read_text())
    assert golden["policy"] == policy
    assert _decisions(policy) == golden["variants"]


def test_goldens_are_not_vacuous():
    """The scenario reaches what it is there to pin."""
    ranked, heads = [], {}
    for policy in POLICIES:
        golden = json.loads((GOLDEN_DIR / f"{policy}.json").read_text())
        replies = [r for recs in golden["variants"].values() for r in recs]
        assert len(replies) >= 200
        assert any("reject" in r for r in replies)
        mine = [r for r in replies if "candidates" in r]
        assert max(len(r["candidates"]) for r in mine) > 8  # k above the pool
        heads[policy] = tuple(r["candidates"][0][0] for r in mine)
        ranked += mine
    # four policies, four different decision sequences
    assert len(set(heads.values())) == len(POLICIES)
    assert len(set(heads["mct"])) > 3  # MCT is moved around, not parked
    holds = {float.fromhex(r["hold"]) for r in ranked}
    assert {1.0, 600.0} < holds  # both clamps, and values between them


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_ranking_golden.py --capture")
    commit = subprocess.check_output(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=pathlib.Path(__file__).parent, text=True,
    ).strip()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in POLICIES:
        variants = ",\n".join(  # one reply per line
            f' {json.dumps(variant)}: [\n'
            + ",\n".join(f"  {json.dumps(r, sort_keys=True)}" for r in recs)
            + "\n ]"
            for variant, recs in _decisions(name).items()
        )
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            f'{{"captured_at": "{commit}", "policy": "{name}", '
            f'"variants": {{\n{variants}\n}}}}\n'
        )
        print(f"captured {path} at {commit}")
