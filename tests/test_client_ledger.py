"""Client ledger: every exchange a client starts ends exactly once.

A seeded sim fleet — two agents, three servers, two clients — carries
every kind of traffic the client library starts: brokered ``submit``
with the request digest on (``c0``) and off (``c1``), ``keep_result``,
handle inputs whose object is gone with ``payloads`` in hand (the
missing-object re-submit), ``submit`` pinned to a ``server`` with
and without references, ``query_candidates``, ``describe`` beside a
``submit`` of the same problem, ``list_problems``, ``store`` /
``delete_stored`` on distinct keys, ``fetch``, ``fetch_result`` and
``submit_dag``.  Under it: 10% message loss, one server crashed and
revived, and the primary agent killed for good.

Per client, in order, the ledger records every trace event, every
message sent, every promise settlement, every ``RequestRecord``, every
span, every ``client.*`` count and each histogram's count and sum.  The
files under ``tests/data/client_ledger/`` were captured by ``python
tests/test_client_ledger.py --capture`` on the commit before the client
collapsed its control exchanges into one call table; the collapsed
client must reproduce them exactly.  The corpus keeps clear of the three
interleavings that collapse fixed (two operations in flight on one
stored key, two attributions of one ``fetch_result``, and a pinned
submit under a non-default ``default_qos``), whose regressions live
beside the code they pin.

At quiescence the books close: every promise settled exactly once,
``requests_done + requests_failed == submits + pinned_submits``, no
deadline armed and no request active.

Re-capture only when the client's *behaviour* changes on purpose.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.config import AgentConfig, ClientConfig, ServerConfig
from repro.core.client import NetSolveClient
from repro.problems.spec import ProblemSpec
from repro.dag import NodeOutput
from repro.protocol.messages import Candidate, DataHandle, ResultStatus
from repro.simnet.rng import RngStreams
from repro.testbed import client_address, fleet_testbed, server_address
from repro.trace.instruments import MetricsRegistry, track
from repro.trace.spans import SpanLog

LEDGER_DIR = pathlib.Path(__file__).parent / "data" / "client_ledger"
SEEDS = (3, 5, 8)
CLIENTS = ("c0", "c1")
SERVERS = ("s0", "s1", "s2")
#: virtual seconds after the scripted traffic ends; every exchange has
#: long since settled by then
QUIESCE = 900.0


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def _plain(value):
    """A JSON-stable view of ``value`` (floats rounded, arrays summed)."""
    if isinstance(value, np.ndarray):
        return ["ndarray", list(value.shape), round(float(np.sum(value)), 6)]
    if isinstance(value, (np.floating, float)):
        return round(float(value), 9)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, DataHandle):
        return ["handle", value.key, value.nbytes, value.server_id,
                value.address]
    if isinstance(value, ResultStatus):
        return ["status", value.request_id, value.status, value.detail,
                _plain(value.outputs)]
    if isinstance(value, Candidate):
        return ["candidate", value.server_id,
                round(value.predicted_seconds, 9)]
    if isinstance(value, ProblemSpec):
        return ["spec", value.name]
    return ["repr", type(value).__name__]


def _ident(msg) -> str:
    for field in ("request_id", "tag", "key", "dag_id", "prefix",
                  "server_id", "problem", "server_host"):
        if hasattr(msg, field):
            return f"{field}={getattr(msg, field)}"
    return ""


class Ledger:
    """What one client did, in order."""

    def __init__(self, tb, client_id: str):
        self.tb = tb
        self.client = tb.client(client_id)
        self.address = client_address(client_id)
        self.sent: list = []
        self.settled: list = []
        self.promises: list = []
        # a private registry and span log per client, so histograms and
        # spans are this client's alone (the testbed runs unobserved)
        track(self.client, MetricsRegistry())
        self.client.spans = SpanLog()
        node = tb.transport.node(self.address)
        send = node.send

        def recording_send(dest, msg):
            self.sent.append([_plain(node.now()), dest, type(msg).__name__,
                              _ident(msg)])
            send(dest, msg)

        node.send = recording_send

    def watch(self, label: str, promise):
        index = len(self.promises)
        self.promises.append([label, promise, 0])

        def settled(p):
            self.promises[index][2] += 1
            now = _plain(self.tb.kernel.now)
            if p.error is None:
                self.settled.append([now, label, "ok", _plain(p.result())])
            else:
                self.settled.append([now, label, type(p.error).__name__,
                                     str(p.error)])

        promise.on_settled(settled)
        return promise

    def snapshot(self) -> dict:
        client = self.client
        counters, histograms = {}, {}
        for metric in NetSolveClient.METRICS:
            value = getattr(client, metric.attr)
            if metric.kind == "histogram":
                histograms[metric.name] = [value.count, _plain(value.total)]
            else:
                counters[metric.name] = value
        return {
            "trace": [
                [_plain(ev.time), ev.kind, _plain(ev.fields)]
                for ev in self.tb.trace if ev.source == self.address
            ],
            "sent": self.sent,
            "settled": self.settled,
            "records": [
                {
                    "id": r.request_id, "problem": r.problem,
                    "status": r.status.value, "error": r.error,
                    "queries": r.queries, "t_done": _plain(r.t_done),
                    "attempts": [
                        [a.server_id, a.outcome, a.detail, a.cached,
                         _plain(a.t_sent), _plain(a.t_end)]
                        for a in r.attempts
                    ],
                }
                for r in client.records
            ],
            "spans": _plain(client.spans.snapshot()),
            "counters": counters,
            "histograms": histograms,
        }


# ----------------------------------------------------------------------
# the world and its traffic
# ----------------------------------------------------------------------
def _system(rng, n):
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


def script(ledger: Ledger, j: int, rng):
    """``[(seconds after start, action)]`` for client ``c{j}``."""
    client = ledger.client
    home = server_address(SERVERS[j])
    other = server_address(SERVERS[(j + 1) % 3])
    crashed = server_address("s2")
    tag = f"c{j}"
    kept, stored, first = {}, {}, {}

    def watch(label, promise):
        return ledger.watch(label, promise)

    def submit(label, problem, args, **kw):
        handle = client.submit(problem, args, **kw)
        watch(label, handle.promise)
        return handle

    def solves(label, count, sizes=(8, 12, 16)):
        def act():
            for k in range(count):
                n = sizes[int(rng.integers(len(sizes)))]
                handle = submit(f"{label}{k}", "linsys/dgesv", list(_system(rng, n)))
                first.setdefault(label, handle.request_id)
        return act

    repeat = list(_system(rng, 12))

    def describe_and_submit():
        watch("describe dnrm2", client.describe("blas/dnrm2"))
        submit("dnrm2", "blas/dnrm2", [rng.standard_normal(6)])

    def lists(prefix):
        return lambda: watch(f"list {prefix!r}", client.list_problems(prefix))

    def repeats():
        submit("repeat a", "linsys/dgesv", [v.copy() for v in repeat])

    def repeat_again():
        submit("repeat b", "linsys/dgesv", [v.copy() for v in repeat])

    def keep():
        kept["handle"] = submit("keep", "linsys/dgesv",
                                list(_system(rng, 10)), keep_result=True)

    def stores():
        value = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        stored["value"] = value
        watch("store a", client.store(home, f"{tag}/a", value))
        stored["handle"] = watch(
            "store b", client.store(other, f"{tag}/b", rng.standard_normal(5)),
        )
        watch("delete absent", client.delete_stored(home, f"{tag}/absent"))

    def candidates(problem, n):
        return lambda: watch(
            f"candidates {problem}",
            client.query_candidates(problem, {"n": n}),
        )

    def ghost():
        a, b = _system(rng, 7)
        handle = DataHandle(
            key=f"{tag}/ghost", nbytes=a.nbytes, server_id=SERVERS[j],
            address=home, shape=a.shape, dtype="float64",
        )
        submit("ghost", "blas/dgemv", [handle, b],
               payloads={f"{tag}/ghost": a})

    def pinned(label, address, problem, args, payloads=lambda: None):
        def act():
            handle = client.submit(
                problem, args(), server=address,
                server_id=address.split("/")[1], payloads=payloads(),
            )
            watch(label, handle.promise)
        return act

    def dag(label, address):
        def act():
            a, b = _system(rng, 8)
            x = NodeOutput(node="solve", index=0)
            nodes = (
                {"id": "solve", "problem": "linsys/dgesv", "inputs": (a, b),
                 "keep": True, "emit": False},
                {"id": "dot", "problem": "blas/ddot", "inputs": (x, x),
                 "keep": False, "emit": True},
            )
            watch(label, client.submit_dag(nodes, address=address))
        return act

    def fetch_kept():
        handle = kept["handle"]
        if handle.done and handle.promise.error is None:
            target = handle.result()[0]
        else:
            target = DataHandle(key=f"{tag}/never", address=home)
        watch("fetch kept", client.fetch(target))

    def fetch_stored():
        promise = stored["handle"]
        if promise.done and promise.error is None:
            target = promise.result()
        else:
            target = DataHandle(key=f"{tag}/b", address=other)
        watch("fetch stored", client.fetch(target))

    def fetch_result(label, server, key):
        return lambda: watch(
            label, client.fetch_result(server, first.get(key, 1))
        )

    def store_crashed():
        watch("store c", client.store(crashed, f"{tag}/c", np.ones(4)))

    def delete_stored():
        # "store a" has settled by now (acked, or given up after
        # server_timeout): a delete in flight beside it would be the
        # same-key interleaving the corpus keeps clear of
        watch("delete a", client.delete_stored(home, f"{tag}/a"))

    def unknown():
        watch("describe unknown", client.describe("zzz/none"))
        submit("unknown", "zzz/none", [np.ones(3)])
        watch("candidates unknown",
              client.query_candidates("zzz/none", {}))

    return [
        (0.0, describe_and_submit),
        (0.5, lists("blas/")),
        (1.0, solves("wave1-", 3)),
        (2.0, repeats),
        (3.0, keep),
        (3.5, stores),
        (5.0, candidates("linsys/dgesv", 32)),
        (6.0, ghost),
        (7.0, pinned("pinned", home, "linsys/dgesv",
                     lambda: list(_system(rng, 9)))),
        (8.0, pinned("pinned ref", home, "blas/dgemv",
                     lambda: [DataHandle(key=f"{tag}/a"), np.ones(6)],
                     lambda: {f"{tag}/a": stored["value"]})),
        (9.0, dag("dag home", home)),
        (12.0, fetch_kept),
        (13.0, fetch_stored),
        (14.0, fetch_result("fetch_result wave1", home, "wave1-")),
        (18.0, repeat_again),
        (20.0, solves("wave2-", 4)),
        (21.0, pinned("pinned crashed", crashed, "linsys/dgesv",
                      lambda: list(_system(rng, 8)))),
        (22.0, store_crashed),
        (23.0, unknown),
        (30.0, delete_stored),
        (45.0, solves("wave3-", 4)),
        (46.0, lists("")),
        (47.0, lambda: watch("describe ddot", client.describe("blas/ddot"))),
        (48.0, candidates("linsys/dgesv", 64)),
        (60.0, dag("dag other", other)),
        (62.0, fetch_result("fetch_result wave2", other, "wave2-")),
    ]


def run_ledger(seed: int):
    """Play the scripted traffic under faults; returns the testbed and
    one :class:`Ledger` per client."""
    tb = fleet_testbed(
        n_agents=2, n_servers=3, n_clients=2, seed=seed,
        sync_interval=5.0,
        agent_cfg=AgentConfig(cache_entries=16),
        server_cfg=ServerConfig(
            cache_entries=16,
            cache_publish_bytes=AgentConfig().cache_entry_bytes,
        ),
        client_cfg=ClientConfig(
            agent_timeout=4.0, agent_retries=3, server_timeout=20.0,
            timeout_floor=2.0, max_retries=4,
        ),
    )
    # the digest on for c0, off for c1
    tb.clients["c0"].cfg = ClientConfig(
        agent_timeout=4.0, agent_retries=3, server_timeout=20.0,
        timeout_floor=2.0, max_retries=4, cache_digest=True,
    )
    tb.settle()
    ledgers = {cid: Ledger(tb, cid) for cid in CLIENTS}
    tb.transport.set_message_loss(0.10, tb.rng.get("ledger.loss"))
    t0 = tb.kernel.now
    for j, cid in enumerate(CLIENTS):
        rng = RngStreams(seed).get(f"ledger.{cid}")
        for when, act in script(ledgers[cid], j, rng):
            tb.kernel.call_at(t0 + when + 0.37 * j, act)
    tb.kernel.call_at(t0 + 15.0, lambda: tb.transport.crash(server_address("s2")))
    tb.kernel.call_at(t0 + 40.0, lambda: tb.transport.crash("agent"))
    tb.kernel.call_at(t0 + 50.0, lambda: tb.transport.revive(server_address("s2")))
    tb.run(until=t0 + 62.0 + QUIESCE)
    return tb, ledgers


def capture(seed: int) -> dict:
    _tb, ledgers = run_ledger(seed)
    return {cid: ledger.snapshot() for cid, ledger in ledgers.items()}


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_closes_at_quiescence(seed):
    _tb, ledgers = run_ledger(seed)
    for cid, ledger in ledgers.items():
        client = ledger.client
        unsettled = [label for label, p, n in ledger.promises if n != 1]
        assert not unsettled, f"{cid}: not settled exactly once: {unsettled}"
        assert all(p.done for _label, p, _n in ledger.promises)
        assert (client.requests_done + client.requests_failed
                == client.submits + client.pinned_submits), cid
        assert len(client._deadlines) == 0, cid
        assert client.active_requests == 0, cid


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_matches_capture(seed):
    golden = json.loads((LEDGER_DIR / f"seed{seed}.json").read_text())
    got = json.loads(json.dumps(capture(seed)))
    for cid in CLIENTS:
        for part in golden[cid]:
            assert got[cid][part] == golden[cid][part], (cid, part)


def test_ledger_is_not_vacuous():
    """Guard the guard: across the seeds the corpus reaches every path
    the call lifecycle owns — resends, agent failover, give-ups, the
    payload re-submit, cached answers, pinned timeouts, DAG nodes."""
    totals: dict = {}
    kinds: set = set()
    for seed in SEEDS:
        data = json.loads((LEDGER_DIR / f"seed{seed}.json").read_text())
        for cid in CLIENTS:
            for name, value in data[cid]["counters"].items():
                totals[name] = totals.get(name, 0) + value
            kinds |= {event[1] for event in data[cid]["trace"]}
    for name in ("client.describe_retries", "client.query_retries",
                 "client.agent_failovers", "client.attempt_timeouts",
                 "client.payload_resubmits", "client.cached_replies",
                 "client.store_timeouts", "client.failovers",
                 "client.requests_failed", "client.dag_submits",
                 "client.fetches", "client.object_fetches"):
        assert totals[name] > 0, name
    for kind in ("dag_node_done", "dag_done", "fetch_sent",
                 "object_fetch_sent", "resubmit_with_payload",
                 "submit_pinned", "cached_answer", "agent_failover",
                 "describe_retry", "query_retry", "attempt_timeout"):
        assert kind in kinds, kind


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_client_ledger.py --capture")
    LEDGER_DIR.mkdir(parents=True, exist_ok=True)
    for seed in SEEDS:
        path = LEDGER_DIR / f"seed{seed}.json"
        path.write_text(json.dumps(capture(seed), sort_keys=True) + "\n")
        print(f"captured {path}")
