"""Extension experiment E1 — request sequencing vs independent brokering.

The original project's follow-on release added *request sequencing*:
related requests sharing a large operand execute on one server with the
operand shipped once and referenced thereafter.  This bench quantifies
the trade on the canonical pattern — k matrix-vector products against a
single large ``A`` over a slow (10 Mb/s) client link:

* brokered: every request re-ships A (the agent may also bounce the
  work between servers),
* sequenced: A is stored once on the agent's top pick; each request
  is pinned there and carries only the vector and the ``DataHandle``
  the store returned (plus, client-side only, A as a recovery payload
  should the server lose it).
"""

import numpy as np

from repro.simnet.rng import RngStreams
from repro.testbed import standard_testbed
from repro.trace.metrics import format_table

from _harness import emit, once

N = 512
K = 12


def build():
    tb = standard_testbed(n_servers=3, seed=101, bandwidth=1.25e6)
    tb.settle()
    rng = RngStreams(101).get("e1.data")
    a = rng.standard_normal((N, N)) + N * np.eye(N)
    xs = [rng.standard_normal(N) for _ in range(K)]
    return tb, a, xs


def run_brokered():
    tb, a, xs = build()
    start = tb.kernel.now
    for x in xs:
        (y,) = tb.solve("c0", "blas/dgemv", [a, x])
        assert np.allclose(y, a @ x)
    bytes_sent = tb.transport.node("client/c0").bytes_sent
    return tb.kernel.now - start, bytes_sent


def run_sequenced():
    tb, a, xs = build()
    client = tb.client("c0")
    wait = tb.transport.run_until
    start = tb.kernel.now
    best = wait(client.query_candidates("blas/dgemv", {"m": N, "n": N}))[0]
    a_ref = wait(client.store(best.address, "A", a))
    for x in xs:
        handle = client.submit(
            "blas/dgemv", [a_ref, x], server=best.address,
            server_id=best.server_id, payloads={"A": a},
        )
        (y,) = wait(handle.promise)
        assert np.allclose(y, a @ x)
    wait(client.delete_stored(best.address, "A"))
    bytes_sent = tb.transport.node("client/c0").bytes_sent
    return tb.kernel.now - start, bytes_sent


def test_e1_request_sequencing(benchmark):
    def experiment():
        return run_brokered(), run_sequenced()

    (t_brokered, b_brokered), (t_sequenced, b_sequenced) = once(
        benchmark, experiment
    )

    rows = [
        ["brokered (reship A)", f"{t_brokered:.2f}", f"{b_brokered / 1e6:.1f}"],
        ["sequenced (store once)", f"{t_sequenced:.2f}",
         f"{b_sequenced / 1e6:.1f}"],
        ["ratio", f"{t_brokered / t_sequenced:.1f}x",
         f"{b_brokered / b_sequenced:.1f}x"],
    ]
    text = format_table(
        ["mode", "total time(s)", "client bytes sent (MB)"],
        rows,
        title=(
            f"E1: {K} dgemv requests against one {N}x{N} matrix over "
            "10 Mb/s (store-once vs reship)"
        ),
    )
    emit("E1_sequencing", text)

    # claims: sequencing saves nearly the whole repeated-operand cost
    assert t_sequenced < t_brokered / 4
    # client traffic collapses to ~one matrix + k vectors
    assert b_sequenced < b_brokered / 4
    # lower bound sanity: it still had to ship the matrix once
    assert b_sequenced > N * N * 8
