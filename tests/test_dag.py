"""Request-DAG tests: graph validation (builder and raw node lists alike,
refused before anything is sent), client-run execution with per-node
streaming and concurrent branches, what the server holds afterwards,
and lifecycle across a restart and a shutdown.
"""

import numpy as np
import pytest

from repro.config import ClientConfig, ServerConfig
from repro.dag import DagBuilder, NodeDone, NodeOutput
from repro.errors import NetSolveError, RequestFailed
from repro.simnet.rng import RngStreams
from repro.testbed import client_address, server_address, standard_testbed


def linsys(n, seed=0):
    rng = RngStreams(seed).get("dag.data")
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


def resident(server):
    """``(pinned keys, unpinned keys)`` of the server's object store."""
    pinned = sorted(k for k in server.objects._data
                    if server.objects.entry(k).pinned)
    kept = sorted(k for k in server.objects._data
                  if not server.objects.entry(k).pinned)
    return pinned, kept


# ----------------------------------------------------------------------
# builder: graphs are validated as they are written
# ----------------------------------------------------------------------
def test_builder_rejects_duplicate_ids():
    dag = DagBuilder()
    dag.node("a", "blas/ddot", [np.ones(2), np.ones(2)])
    with pytest.raises(NetSolveError):
        dag.node("a", "blas/ddot", [np.ones(2), np.ones(2)])


def test_builder_rejects_forward_references():
    dag = DagBuilder()
    with pytest.raises(NetSolveError):
        dag.node("a", "blas/ddot", [NodeOutput(node="later"), np.ones(2)])


def test_builder_rejects_empty_graph_and_bad_ids():
    with pytest.raises(NetSolveError):
        DagBuilder().build()
    with pytest.raises(NetSolveError):
        DagBuilder().node("", "blas/ddot")
    with pytest.raises(NetSolveError):
        DagBuilder().node("a", "")


def test_builder_output_references():
    dag = DagBuilder()
    solve = dag.node("solve", "linsys/dgesv", [np.eye(2), np.ones(2)])
    ref = solve.output(0)
    assert ref == NodeOutput(node="solve", index=0)
    with pytest.raises(NetSolveError):
        solve.output(-1)
    nodes = dag.build()
    assert len(nodes) == 1 and nodes[0]["id"] == "solve"


# ----------------------------------------------------------------------
# raw node lists: a bad graph is refused by the client, 0 bytes sent
# ----------------------------------------------------------------------
def ddot(node_id, *inputs):
    return {"id": node_id, "problem": "blas/ddot",
            "inputs": inputs or (np.ones(2), np.ones(2))}


BAD_GRAPHS = {
    "forward": ((ddot("a", NodeOutput(node="b"), np.ones(2)), ddot("b")),
                "not defined yet"),
    "unknown": ((ddot("a", NodeOutput(node="ghost"), np.ones(2)),),
                "not defined yet"),
    "cycle": ((ddot("a", NodeOutput(node="b"), NodeOutput(node="b")),
               ddot("b", NodeOutput(node="a"), NodeOutput(node="a"))),
              "not defined yet"),
    "self": ((ddot("a", NodeOutput(node="a"), np.ones(2)),),
             "not defined yet"),
    "duplicate": ((ddot("a"), ddot("a")), "duplicate"),
    "empty": ((), "no nodes"),
}


@pytest.mark.parametrize("kind", BAD_GRAPHS)
def test_bad_graphs_are_rejected_locally(kind):
    nodes, reason = BAD_GRAPHS[kind]
    tb = standard_testbed(n_servers=1, seed=21)
    tb.settle()
    node = tb.transport.node(client_address("c0"))
    sent = []
    send = node.send
    node.send = lambda dest, msg: (sent.append(msg), send(dest, msg))
    promise = tb.client("c0").submit_dag(nodes, address=server_address("s0"))
    assert promise.done
    with pytest.raises(NetSolveError, match=reason):
        promise.result()
    tb.run(until=tb.kernel.now + 5.0)
    assert sent == []


def test_failed_node_fails_the_dag_with_its_name():
    tb = standard_testbed(n_servers=1, seed=21)
    tb.settle()
    promise = tb.client("c0").submit_dag((
        {"id": "bad", "problem": "linsys/dgesv",
         "inputs": (np.ones((2, 3)), np.ones(2))},   # not square
    ), address=server_address("s0"))
    with pytest.raises(RequestFailed) as err:
        tb.transport.run_until(promise)
    assert err.value.failed_node == "bad"
    assert tb.client("c0").active_requests == 0


def test_missing_operand_fails_typed():
    tb = standard_testbed(n_servers=1, seed=21)
    tb.settle()
    a, b = linsys(8)
    h = tb.store("c0", "s0", "A", a)
    tb.server("s0").objects.delete("A")
    dag = DagBuilder()
    dag.node("solve", "linsys/dgesv", [h, b])
    with pytest.raises(RequestFailed) as err:
        tb.solve_dag("c0", dag.build())
    assert err.value.failed_node == "solve"
    assert err.value.error_kind == "missing_object"
    assert err.value.missing == ("A",)


# ----------------------------------------------------------------------
# execution: dependency order, streaming, concurrency, numerics
# ----------------------------------------------------------------------
def test_chain_executes_in_order_with_streaming():
    tb = standard_testbed(n_servers=2, seed=22)
    tb.settle()
    a, b = linsys(32)
    h = tb.store("c0", "s0", "A", a)

    dag = DagBuilder()
    solve = dag.node("solve", "linsys/dgesv", [h, b], keep=True)
    dag.node(
        "norm", "blas/ddot", [solve.output(0), solve.output(0)], emit=True
    )
    events = []
    # no explicit address: routed to the handle's home server
    outputs = tb.solve_dag("c0", dag.build(), on_node=events.append)

    x = np.linalg.solve(a, b)
    assert len(outputs) == 1
    assert np.allclose(outputs[0], float(x @ x))
    assert [e.node for e in events] == ["solve", "norm"]
    assert all(isinstance(e, NodeDone) and e.ok for e in events)
    assert [e.remaining for e in events] == [1, 0]
    assert all(e.compute_seconds > 0 for e in events)
    # every node ran pinned on the handle's home; s1 saw nothing
    assert tb.server("s1").requests_accepted == 0
    # the keep node's output is resident and fetchable after the run
    server = tb.server("s0")
    _pinned, kept = resident(server)
    assert len(kept) == 1
    assert np.allclose(server.objects.get(kept[0]), x)
    assert resident(server)[0] == ["A"]  # the operand; no intermediates


def test_diamond_resolves_both_branches():
    tb = standard_testbed(n_servers=1, seed=23)
    tb.settle()
    a, b = linsys(24)
    h = tb.store("c0", "s0", "A", a)
    dag = DagBuilder()
    solve = dag.node("solve", "linsys/dgesv", [h, b], keep=True)
    left = dag.node("left", "blas/dgemv", [h, solve.output(0)])
    right = dag.node("right", "linsys/dgesv", [h, solve.output(0)])
    dag.node("dot", "blas/ddot",
             [left.output(0), right.output(0)], emit=True)
    outputs = tb.solve_dag("c0", dag.build())
    x = np.linalg.solve(a, b)
    expected = float((a @ x) @ np.linalg.solve(a, x))
    assert np.allclose(outputs[0], expected)
    # the branches are independent: both are sent before either answers
    records = {r.request_id: r for r in tb.client("c0").records}
    _solve, left_r, right_r, _dot = sorted(records.values(),
                                           key=lambda r: r.request_id)
    assert (left_r.problem, right_r.problem) == ("blas/dgemv", "linsys/dgesv")
    first_reply = min(left_r.attempts[0].t_end, right_r.attempts[0].t_end)
    assert left_r.attempts[0].t_sent < first_reply
    assert right_r.attempts[0].t_sent < first_reply


def test_default_emit_is_terminal_nodes():
    tb = standard_testbed(n_servers=1, seed=24)
    tb.settle()
    dag = DagBuilder()
    first = dag.node("first", "blas/dgemv",
                     [2.0 * np.eye(3), np.ones(3)])
    dag.node("second", "blas/ddot", [first.output(0), np.ones(3)])
    outputs = tb.solve_dag("c0", dag.build(),
                           address=server_address("s0"))
    # only "second" is terminal; its single output is the reply
    assert outputs == (pytest.approx(6.0),)


def test_dag_nodes_share_the_result_cache():
    tb = standard_testbed(
        n_servers=1, seed=25, server_cfg=ServerConfig(cache_entries=8),
    )
    tb.settle()
    a, b = linsys(24)
    h = tb.store("c0", "s0", "A", a)

    def build():
        dag = DagBuilder()
        solve = dag.node("solve", "linsys/dgesv", [h, b])
        dag.node("norm", "blas/ddot",
                 [solve.output(0), solve.output(0)], emit=True)
        return dag.build()

    first = tb.solve_dag("c0", build())
    server = tb.server("s0")
    hits_before = server.result_cache.hits
    events = []
    second = tb.solve_dag("c0", build(), on_node=events.append)
    assert np.array_equal(first[0], second[0])
    # every node of the repeat run is answered from the result cache
    assert server.result_cache.hits == hits_before + 2
    assert [e.cached for e in events] == [True, True]


# ----------------------------------------------------------------------
# residency: edges are deleted, keep outputs and pins stay
# ----------------------------------------------------------------------
def test_server_holds_only_keep_outputs_and_pinned_operands():
    tb = standard_testbed(n_servers=1, seed=29)
    tb.settle()
    a, b = linsys(16)
    h = tb.store("c0", "s0", "A", a)
    server = tb.server("s0")

    dag = DagBuilder()
    x1 = dag.node("x1", "blas/dgemv", [h, b])
    x2 = dag.node("x2", "blas/dgemv", [h, x1.output(0)], emit=True)
    x3 = dag.node("x3", "blas/dgemv", [h, x2.output(0)], keep=True)
    dag.node("x4", "blas/dgemv", [h, x3.output(0)], emit=True)
    outputs = tb.solve_dag("c0", dag.build())
    tb.run(until=tb.kernel.now + 5.0)  # let the deletes land
    x2_value = a @ (a @ b)
    x4_value = a @ (a @ x2_value)
    # an emitted node that fed others is fetched: a value, not a handle
    assert isinstance(outputs[0], np.ndarray)
    assert np.allclose(outputs[0], x2_value)
    assert np.allclose(outputs[1], x4_value)
    pinned, kept = resident(server)
    assert pinned == ["A"]
    assert len(kept) == 1 and np.allclose(
        server.objects.get(kept[0]), a @ x2_value
    )

    # a failing graph: the edge "y1" fed the failed node and is dropped;
    # the keep node "k" stays
    server.objects.delete(kept[0])
    dag = DagBuilder()
    y1 = dag.node("y1", "blas/dgemv", [h, b])
    dag.node("k", "blas/dgemv", [h, b], keep=True)
    bad = dag.node("bad", "blas/ddot", [y1.output(0), np.ones(3)])  # length
    dag.node("never", "blas/ddot", [bad.output(0), y1.output(0)])
    with pytest.raises(RequestFailed) as err:
        tb.solve_dag("c0", dag.build())
    tb.run(until=tb.kernel.now + 5.0)
    assert err.value.failed_node == "bad"
    pinned, kept = resident(server)
    assert pinned == ["A"]
    assert len(kept) == 1 and np.allclose(server.objects.get(kept[0]), a @ b)
    # "never" was not sent: y1, k and bad are the graph's only requests
    assert [r.problem for r in tb.client("c0").records[-3:]] == [
        "blas/dgemv", "blas/dgemv", "blas/ddot",
    ]
    assert len(tb.client("c0").records) == 4 + 3


# ----------------------------------------------------------------------
# lifecycle: a restart or a shutdown mid-graph; TTLs reclaim kept outputs
# ----------------------------------------------------------------------
def test_restart_abandons_runs_without_leaking_refcounts():
    tb = standard_testbed(
        n_servers=1, seed=26, client_cfg=ClientConfig(server_timeout=60.0),
    )
    tb.settle()
    a, b = linsys(512)
    h = tb.store("c0", "s0", "A", a)
    dag = DagBuilder()
    solve = dag.node("solve", "linsys/dgesv", [h, b], keep=True)
    dag.node("norm", "blas/ddot",
             [solve.output(0), solve.output(0)], emit=True)
    promise = tb.client("c0").submit_dag(dag.build())
    settles = []
    promise.on_settled(settles.append)
    server = tb.server("s0")
    # step virtual time until the first node is computing (the n=512
    # solve alone takes ~1 virtual second of compute)
    deadline = tb.kernel.now + 1.0
    while not server.executing and tb.kernel.now < deadline:
        tb.run(until=tb.kernel.now + 0.002)
    assert server.executing
    server.on_restart()
    with pytest.raises(RequestFailed) as err:
        tb.transport.run_until(promise)
    assert err.value.failed_node == "solve"
    tb.run(until=tb.kernel.now + 120.0)
    assert len(settles) == 1
    # the pinned operand survived the hiccup, and the abandoned node
    # left nothing behind
    assert resident(server) == (["A"], [])


def test_kept_outputs_expire_after_ttl_but_pins_do_not():
    tb = standard_testbed(
        n_servers=1, seed=27, server_cfg=ServerConfig(handle_ttl=30.0),
    )
    tb.settle()
    a, b = linsys(24)
    h = tb.store("c0", "s0", "A", a)
    (out_h,) = tb.solve("c0", "linsys/dgesv", [h, b], keep_result=True)
    server = tb.server("s0")
    assert server.objects.entry(out_h.key) is not None
    tb.run(until=tb.kernel.now + 31.0)
    # the unpinned keep_result output lapsed; the pinned operand did not
    assert server.objects.entry(out_h.key) is None
    assert server.objects.entry("A") is not None


def test_shutdown_clears_dag_state_and_objects():
    tb = standard_testbed(n_servers=1, seed=28)
    tb.settle()
    a, b = linsys(24)
    tb.store("c0", "s0", "A", a)
    server = tb.server("s0")
    server.on_shutdown()
    assert server.cached_objects == 0
