"""Property test: the server table's columns are the scalar model, bit
for bit.

``ServerTable`` keeps every ranking input in numpy columns indexed by a
per-server row — peak, slots, workload, busy penalty, liveness, the live
pending-hint count (one table-wide heap with per-row generations) and,
per client host, link latency/bandwidth columns cached against the
network table's version.  A column that goes stale ranks on fiction
without raising anything, so this state machine drives random sequences
of every writer — registration and re-registration (moving host, peak
and slots), workload reports, busy penalties, assignment hints, failure
marks, liveness sweeps, probe revival, ``StaticNetworkInfo.set`` on the
prior, ``LearnedNetworkInfo.observe`` and replacing the agent's network
table outright — against a plain-Python shadow
of the same facts, and after every query checks the agent's reply
against the shadow:

* each shipped ``predicted_seconds`` equals ``predictor.predict`` built
  from the shadow's values (and a fresh ``network.link`` lookup), with
  the pending inflation written out, compared with ``==``;
* the shipped order is the full sort by ``(total, server_id)``, cut at
  ``candidate_list_length``.

The shadow tracks hints as a list of expiries cleared on revival, so a
missed generation bump, a hint expired twice or a link column kept past
a host move or a network update shows up as a wrong total.  Entry
properties are compared with the shadow after every step; the calls with
side effects (``current_workload``, ``live_pending``) run only as a rule
of their own, so they never tidy up after the query path.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import AgentConfig
from repro.core.agent import Agent
from repro.core.predictor import (
    LearnedNetworkInfo,
    LinkEstimate,
    StaticNetworkInfo,
    predict,
)
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import QueryReply, QueryRequest

SERVERS = tuple(f"s{i}" for i in range(10))  # past the first column growth
HOSTS = ("h0", "h1", "h2")
CLIENTS = ("c0", "h1")  # the last shares a host with servers
ADDRESSES = ("a0", "a1", "a2")  # shared: revive_address finds several
PROBLEMS = ("linsys/dgesv", "blas/dgemm")


class ClockNode:
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


def _shadow(address, host, mflops, slots, problems, now):
    return {
        "address": address, "host": host, "mflops": mflops, "slots": slots,
        "problems": set(problems), "workload": 0.0, "alive": True,
        "hints": [], "penalty": 0.0, "until": 0.0, "last_report": now,
    }


def _revive(s, now):
    s.update(alive=True, hints=[], last_report=now)


def _workload(s, now):
    if s["penalty"] and now < s["until"]:
        return s["workload"] + s["penalty"]
    return s["workload"]


def _live(s, now):
    return sum(1 for expiry in s["hints"] if expiry > now)


servers = st.sampled_from(SERVERS)


class ColumnsMatchScalarModel(RuleBasedStateMachine):
    @initialize(
        k=st.integers(1, 12),
        feedback=st.booleans(),
        use_workload=st.booleans(),
        preload=st.integers(0, len(SERVERS)),
    )
    def build(self, k, feedback, use_workload, preload):
        self._use_network(scale=1.0)
        self.agent = Agent(
            network=self.network,
            cfg=AgentConfig(candidate_list_length=k),
            use_workload=use_workload,
            assignment_feedback=feedback,
        )
        self.node = ClockNode()
        self.agent.node = self.node  # not bound: no periodic timers
        registry = builtin_registry()
        for name in PROBLEMS:
            self.agent.specs[name] = registry.spec(name)
        self.table = self.agent.table
        self.shadow = {}
        for i in range(preload):
            self._register(
                SERVERS[i], HOSTS[i % len(HOSTS)],
                ADDRESSES[i % len(ADDRESSES)], 100.0, 1 + i % 3, {PROBLEMS[0]},
            )

    def _known(self, sid):
        return sid in self.shadow

    def _use_network(self, scale):
        # every (client, host) pair its own link, so any stale column
        # entry ranks on a visibly wrong estimate
        self.prior = StaticNetworkInfo({
            (client, host): LinkEstimate(
                latency=1e-3 * (1 + i) * scale,
                bandwidth=1e6 * (1 + j) * scale,
            )
            for i, client in enumerate(CLIENTS)
            for j, host in enumerate(HOSTS)
            if client != host
        })
        self.network = LearnedNetworkInfo(self.prior, alpha=0.5)

    # ------------------------------------------------------------------
    # writers
    # ------------------------------------------------------------------
    @rule(
        sid=servers,
        host=st.sampled_from(HOSTS),
        address=st.sampled_from(ADDRESSES),
        mflops=st.sampled_from((50.0, 100.0, 100.0, 333.0, 800.0)),
        slots=st.integers(1, 4),
        problems=st.sets(st.sampled_from(PROBLEMS), min_size=1),
    )
    def register(self, sid, host, address, mflops, slots, problems):
        self._register(sid, host, address, mflops, slots, problems)

    def _register(self, sid, host, address, mflops, slots, problems):
        now = self.node.t
        self.table.register(
            server_id=sid, address=address, host=host, mflops=mflops,
            problems=problems, now=now, slots=slots,
        )
        s = self.shadow.get(sid)
        if s is None:
            self.shadow[sid] = _shadow(
                address, host, mflops, slots, problems, now
            )
            return
        s.update(
            address=address, host=host, mflops=mflops, slots=slots,
            problems=set(problems), penalty=0.0, until=0.0,
        )
        _revive(s, now)

    @rule(dt=st.sampled_from((0.0, 0.25, 1.0, 7.5, 40.0)))
    def advance(self, dt):
        self.node.t += dt

    @rule(
        sid=servers,
        workload=st.sampled_from((-3.0, 0.0, 50.0, 100.0, 123.4, 400.0)),
        inflight=st.integers(-1, 4),
    )
    def report_workload(self, sid, workload, inflight):
        if not self._known(sid):
            return
        self.table.report_workload(
            sid, workload, self.node.t, inflight=inflight
        )
        s = self.shadow[sid]
        s["workload"] = max(0.0, workload)
        _revive(s, self.node.t)

    @rule(
        sid=servers,
        workload=st.sampled_from((0.0, 25.0, 100.0)),
        hold=st.sampled_from((0.0, 0.5, 5.0, 30.0)),
    )
    def penalize(self, sid, workload, hold):
        now = self.node.t
        self.table.penalize(sid, now, workload=workload, hold_for=hold)
        s = self.shadow.get(sid)
        if s is None or workload <= 0 or hold <= 0:
            return
        if now >= s["until"]:
            s["penalty"] = 0.0
        s["penalty"] += workload
        s["until"] = now + hold

    @rule(sid=servers, hold=st.sampled_from((-1.0, 0.0, 0.5, 3.0, 20.0)))
    def note_assignment(self, sid, hold):
        if not self._known(sid):
            return
        self.table.note_assignment(sid, self.node.t, hold_for=hold)
        self.shadow[sid]["hints"].append(self.node.t + max(0.0, hold))

    @rule(sid=servers)
    def mark_failed(self, sid):
        self.table.mark_failed(sid)
        if self._known(sid):
            self.shadow[sid]["alive"] = False

    @rule(timeout=st.sampled_from((0.0, 5.0, 30.0)))
    def sweep_liveness(self, timeout):
        now = self.node.t
        died = self.table.sweep_liveness(now, timeout)
        expected = sorted(
            sid for sid, s in self.shadow.items()
            if s["alive"] and now - s["last_report"] > timeout
        )
        assert died == expected
        for sid in expected:
            self.shadow[sid]["alive"] = False

    @rule(address=st.sampled_from(ADDRESSES))
    def revive_address(self, address):
        now = self.node.t
        revived = self.table.revive_address(address, now)
        expected = sorted(
            sid for sid, s in self.shadow.items()
            if s["address"] == address and not s["alive"]
        )
        assert revived == expected
        for sid in expected:
            _revive(self.shadow[sid], now)

    @rule(
        client=st.sampled_from(CLIENTS),
        host=st.sampled_from(HOSTS),
        latency=st.sampled_from((0.0, 2e-4, 5e-2)),
        bandwidth=st.sampled_from((1e5, 3e6, 1e9)),
    )
    def set_prior_link(self, client, host, latency, bandwidth):
        self.prior.set(client, host, LinkEstimate(latency, bandwidth))

    @rule(scale=st.sampled_from((0.5, 2.0)))
    def replace_network(self, scale):
        # a fresh table starts at the same version the old one began at
        self._use_network(scale)
        self.agent.network = self.network

    @rule(
        client=st.sampled_from(CLIENTS),
        host=st.sampled_from(HOSTS),
        nbytes=st.sampled_from((0, 4096, 10**6)),
        seconds=st.sampled_from((0.0, 0.01, 2.0)),
    )
    def observe_transfer(self, client, host, nbytes, seconds):
        self.network.observe(client, host, nbytes, seconds)

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    @precondition(lambda self: self.shadow)
    @rule(data=st.data())
    def scalar_accessors(self, data):
        sid = data.draw(st.sampled_from(sorted(self.shadow)))
        s, entry, now = self.shadow[sid], self.table.get(sid), self.node.t
        assert entry.current_workload(now) == _workload(s, now)
        assert entry.live_pending(now) == _live(s, now)

    @rule(
        problem=st.sampled_from(PROBLEMS),
        client=st.sampled_from(CLIENTS),
        n=st.integers(8, 900),
        exclude=st.lists(st.sampled_from(SERVERS + ("ghost",)), max_size=3),
        resident=st.dictionaries(
            st.sampled_from(SERVERS + ("ghost",)),
            st.sampled_from((0, 4096, 10**6, 2**40)),
            max_size=2,
        ),
    )
    def query(self, problem, client, n, exclude, resident):
        agent, now = self.agent, self.node.t
        spec = agent.specs[problem]
        sizes = {"n": n} if problem == PROBLEMS[0] else {
            "m": n, "n": n // 2 + 1, "k": 64,
        }
        flops = spec.flops(sizes)
        input_bytes = spec.input_bytes(sizes)
        output_bytes = spec.output_bytes(sizes)
        expected = {}
        for sid in sorted(self.shadow):
            s = self.shadow[sid]
            if problem not in s["problems"] or not s["alive"] \
                    or sid in exclude:
                continue
            base = predict(
                flops=flops,
                input_bytes=max(0.0, input_bytes - resident.get(sid, 0)),
                output_bytes=output_bytes,
                link=self.network.link(client, s["host"]),
                peak_mflops=s["mflops"],
                workload=_workload(s, now),
                slots=s["slots"],
                use_workload=agent.use_workload,
            )
            rounds = (
                _live(s, now) // s["slots"] if agent.assignment_feedback
                else 0
            )
            expected[sid] = (
                base.send_seconds
                + base.compute_seconds * (1 + rounds)
                + base.recv_seconds
            )
        self.node.sent.clear()
        agent._handle_query("client/c", QueryRequest(
            problem=problem, sizes=sizes, client_host=client,
            exclude=tuple(exclude), resident=resident, tag=1,
        ))
        ((_dst, reply),) = self.node.sent
        assert type(reply) is QueryReply
        if not expected:
            assert not reply.ok and reply.retryable
            return
        assert reply.ok, reply.detail
        got = reply.candidate_list()
        k = agent.cfg.candidate_list_length
        assert [c.server_id for c in got] == sorted(
            expected, key=lambda sid: (expected[sid], sid)
        )[:k]
        for c in got:
            assert c.predicted_seconds == expected[c.server_id], c.server_id
        head = got[0]
        hold = min(600.0, max(1.0, head.predicted_seconds * 1.5))
        self.shadow[head.server_id]["hints"].append(now + hold)

    # ------------------------------------------------------------------
    @invariant()
    def entries_read_their_rows(self):
        if not hasattr(self, "shadow"):
            return
        assert len(self.table) == len(self.shadow)
        for sid, s in self.shadow.items():
            entry = self.table.get(sid)
            assert (entry.address, entry.host, entry.problems) == (
                s["address"], s["host"], s["problems"]
            )
            assert (entry.mflops, entry.slots, entry.alive) == (
                s["mflops"], s["slots"], s["alive"]
            )
            assert entry.workload == max(0.0, s["workload"])
            # a decayed penalty may already be forgotten; a live one not
            if s["penalty"] and self.node.t < s["until"]:
                assert entry.penalty_workload == s["penalty"]
                assert entry.penalty_until == s["until"]
            assert entry.pending >= _live(s, self.node.t)
        ids = [e.server_id for e in self.table.entries()]
        assert ids == sorted(self.shadow)
        for problem in PROBLEMS:
            live = [
                sid for sid in ids
                if problem in self.shadow[sid]["problems"]
                and self.shadow[sid]["alive"]
            ]
            candidates = self.table.candidates_for(problem)
            assert [e.server_id for e in candidates] == live
            assert candidates.rows.tolist() == [
                self.table.get(sid).row for sid in live
            ]


ColumnsMatchScalarModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestColumnsMatchScalarModel = ColumnsMatchScalarModel.TestCase
