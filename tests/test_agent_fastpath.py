"""Property tests pinning the agent's query fast path to the scalar
reference implementations.

The query path (compiled complexity expressions, vectorized
``predict_batch``, partial top-k selection) must change *nothing* about
scheduling decisions: every test here asserts exact float equality and
identical orderings, not approximate closeness.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor import LinkEstimate, predict, predict_batch
from repro.core.registry import ServerTable
from repro.core.scheduler import MinimumCompletionTime, RoundRobinPolicy
from repro.problems.complexity import Complexity


# ----------------------------------------------------------------------
# predict_batch == scalar predict (+ pending inflation), bit for bit
# ----------------------------------------------------------------------
candidate = st.tuples(
    st.floats(min_value=0.1, max_value=1e5),     # peak mflops
    st.floats(min_value=0.0, max_value=1e4),     # workload
    st.integers(min_value=0, max_value=8),       # pending
    st.floats(min_value=0.0, max_value=2.0),     # latency
    st.floats(min_value=1.0, max_value=1e10),    # bandwidth
)

query_invariants = st.tuples(
    st.floats(min_value=0.0, max_value=1e15),    # flops
    st.integers(min_value=0, max_value=2**40),   # input bytes
    st.integers(min_value=0, max_value=2**40),   # output bytes
)


def scalar_totals(cands, flops, input_bytes, output_bytes, use_workload):
    """The pre-change per-candidate path: predict() + pending inflation."""
    totals = []
    for peak, workload, pending, latency, bandwidth in cands:
        base = predict(
            flops=flops,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            link=LinkEstimate(latency=latency, bandwidth=bandwidth),
            peak_mflops=peak,
            workload=workload,
            use_workload=use_workload,
        )
        compute = base.compute_seconds
        if pending:
            compute = compute * (1 + pending)
        totals.append(base.send_seconds + compute + base.recv_seconds)
    return totals


@settings(max_examples=200, deadline=None)
@given(
    cands=st.lists(candidate, min_size=1, max_size=40),
    invariants=query_invariants,
    use_workload=st.booleans(),
)
def test_predict_batch_matches_scalar_exactly(cands, invariants, use_workload):
    flops, input_bytes, output_bytes = invariants
    expected = scalar_totals(
        cands, flops, input_bytes, output_bytes, use_workload
    )
    got = predict_batch(
        flops=flops,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        latency=np.array([c[3] for c in cands]),
        bandwidth=np.array([c[4] for c in cands]),
        peak_mflops=np.array([c[0] for c in cands]),
        workload=np.array([c[1] for c in cands]),
        pending=np.array([c[2] for c in cands], dtype=np.int64),
        use_workload=use_workload,
    )
    assert got.dtype == np.float64
    # exact equality: the vector path must be the scalar path, not an
    # approximation of it
    assert [float(t) for t in got] == expected


@settings(max_examples=150, deadline=None)
@given(
    totals=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
    ),
    k=st.integers(min_value=1, max_value=35),
    dup=st.booleans(),
)
def test_mct_top_k_matches_full_sort(totals, k, dup):
    if dup and len(totals) >= 2:
        totals[1] = totals[0]  # force a tie so the id tie-break matters
    table = ServerTable()
    for i in range(len(totals)):
        table.register(
            server_id=f"s{i:03d}", address=f"a{i}", host=f"h{i}",
            mflops=1.0, problems={"p"}, now=0.0,
        )
    entries = table.entries()
    full = sorted(
        range(len(entries)), key=lambda i: (totals[i], entries[i].server_id)
    )
    assert MinimumCompletionTime().order(entries, totals, k) == full[:k]


# ----------------------------------------------------------------------
# compiled complexity == tree-walking interpreter, bit for bit
# ----------------------------------------------------------------------
EXPRESSIONS = [
    "n",
    "2*n",
    "n^2",
    "2/3*n^3 + 2*n^2",
    "m*n*k",
    "5*n*log2(n)",
    "n*log(n)",
    "sqrt(n)",
    "min(n, m)",
    "max(n, m)",
    "ceil(n/2)",
    "floor(n/2)",
    "(n+1)*(n+2)",
    "2^n / n",
    "n - -m",
    "log10(n) + sqrt(m)*k",
    "max(n, m) * min(m, k) + ceil(n/m)",
]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10**6),
    m=st.integers(min_value=1, max_value=10**6),
    k=st.integers(min_value=1, max_value=10**6),
)
def test_compiled_complexity_matches_interpreter(n, m, k):
    env = {"n": n, "m": m, "k": k}
    for text in EXPRESSIONS:
        cx = Complexity(text)
        try:
            interpreted = cx.interpret(env)
        except Exception as exc:  # same failure must come from both paths
            with pytest.raises(type(exc)):
                cx.flops(env)
            continue
        assert cx.flops(env) == interpreted
        # and again, through the memo
        assert cx.flops(env) == interpreted


def test_compiled_memo_caches_per_env():
    cx = Complexity("2/3*n^3 + 2*n^2")
    a = cx.flops({"n": 100})
    assert cx._memo  # populated
    assert cx.flops({"n": 100}) == a
    assert cx.flops({"n": 200}) == cx.interpret({"n": 200})


def test_compiled_preserves_error_behaviour():
    from repro.errors import ComplexityError

    with pytest.raises(ComplexityError, match="unbound symbol"):
        Complexity("n^2").flops({})
    with pytest.raises(ComplexityError, match="division by zero"):
        Complexity("n/m").flops({"n": 1, "m": 0})
    with pytest.raises(ComplexityError):
        Complexity("log2(n)").flops({"n": 0})
    with pytest.raises(ComplexityError):
        Complexity("sqrt(n)").flops({"n": -1})
    with pytest.raises(ComplexityError, match="negative"):
        Complexity("n - 10").flops({"n": 1})
    with pytest.raises(ComplexityError):
        Complexity("n^n").flops({"n": 1e308})


# ----------------------------------------------------------------------
# round-robin rotation under candidate-set churn
# ----------------------------------------------------------------------
def _entries(table, ids):
    return [table.get(i) for i in sorted(ids)]


def test_roundrobin_rotation_survives_churn():
    table = ServerTable()
    for i in range(4):
        table.register(
            server_id=f"s{i}", address=f"a{i}", host=f"h{i}",
            mflops=1.0, problems={"p"}, now=0.0,
        )
    policy = RoundRobinPolicy()

    def rank(entries):  # round robin never reads the totals
        order = policy.order(entries, [0.0] * len(entries), len(entries))
        return [entries[i] for i in order]

    # full set: rotation advances one per query
    firsts = [
        rank(_entries(table, ["s0", "s1", "s2", "s3"]))[0].server_id
        for _ in range(4)
    ]
    assert firsts == ["s0", "s1", "s2", "s3"]

    # the set shrinks: every rank is still a permutation of the input
    # and the rotation keeps advancing (no stuck or skipped counter)
    shrunk = _entries(table, ["s0", "s2"])
    orders = [
        tuple(e.server_id for e in rank(shrunk))
        for _ in range(4)
    ]
    for order in orders:
        assert sorted(order) == ["s0", "s2"]
    assert orders[0] != orders[1]  # shift advanced
    assert orders[0] == orders[2] and orders[1] == orders[3]

    # the set grows again: still permutations, still rotating
    table.register(
        server_id="s9", address="a9", host="h9",
        mflops=1.0, problems={"p"}, now=0.0,
    )
    grown = _entries(table, ["s0", "s1", "s2", "s3", "s9"])
    seen_firsts = {
        rank(grown)[0].server_id for _ in range(5)
    }
    assert seen_firsts == {"s0", "s1", "s2", "s3", "s9"}


# ----------------------------------------------------------------------
# server-table index invariants
# ----------------------------------------------------------------------
def test_reregistration_updates_problem_index():
    table = ServerTable()
    table.register(server_id="s0", address="a", host="h",
                   mflops=1.0, problems={"p", "q"}, now=0.0)
    table.register(server_id="s1", address="b", host="h",
                   mflops=1.0, problems={"q"}, now=0.0)
    assert table.known_problems() == {"p", "q"}
    assert [e.server_id for e in table.candidates_for("q")] == ["s0", "s1"]

    # s0 drops p, picks up r: the index must follow
    table.register(server_id="s0", address="a", host="h",
                   mflops=1.0, problems={"q", "r"}, now=1.0)
    assert table.known_problems() == {"q", "r"}
    assert len(table.candidates_for("p")) == 0
    assert [e.server_id for e in table.candidates_for("r")] == ["s0"]
    assert [e.server_id for e in table.candidates_for("q")] == ["s0", "s1"]


def test_entries_cache_tracks_membership_and_mutation():
    table = ServerTable()
    table.register(server_id="s1", address="a", host="h",
                   mflops=1.0, problems={"p"}, now=0.0)
    first = table.entries()
    table.register(server_id="s0", address="b", host="h",
                   mflops=1.0, problems={"p"}, now=0.0)
    assert [e.server_id for e in table.entries()] == ["s0", "s1"]
    # attribute mutation (report/sweep/failure) needs no invalidation:
    # the views hold the same entry objects
    table.mark_failed("s0")
    assert [e.server_id for e in table.alive_entries()] == ["s1"]
    assert [e.server_id for e in table.candidates_for("p")] == ["s1"]
    assert first[0] is table.get("s1")


def test_pending_heap_expires_out_of_order_holds():
    table = ServerTable()
    table.register(server_id="s0", address="a", host="h",
                   mflops=1.0, problems={"p"}, now=0.0)
    # long hold first, short hold second: expiry order != insertion order
    table.note_assignment("s0", now=0.0, hold_for=100.0)
    table.note_assignment("s0", now=0.0, hold_for=10.0)
    table.note_assignment("s0", now=0.0, hold_for=50.0)
    entry = table.get("s0")
    assert entry.live_pending(5.0) == 3
    assert entry.live_pending(10.0) == 2   # expiry at t<=now drops
    assert entry.live_pending(60.0) == 1
    assert entry.live_pending(100.0) == 0
