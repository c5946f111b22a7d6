"""End-to-end tests of the reference data path.

Covers the tentpole flows (store -> handle -> solve-by-reference ->
keep_result -> fetch), the digest-folding cache behaviour for
handle-based repeats, the typed missing-object error with the client's
re-submit-with-payload recovery, and the locality-aware MCT ranking —
including the bit-identity guarantee for handle-free requests.
"""

import numpy as np
import pytest

from repro.config import AgentConfig, ClientConfig, ServerConfig
from repro.core.predictor import predict_batch
from repro.errors import MissingObjectError, RequestFailed
from repro.protocol.messages import DataHandle
from repro.simnet.rng import RngStreams
from repro.testbed import server_address, standard_testbed


def linsys(n, seed=0):
    rng = RngStreams(seed).get("handles.data")
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


def pin(tb, n):
    """The agent's first choice for an ``n``-sized dgesv, to pin to."""
    return tb.transport.run_until(
        tb.client("c0").query_candidates("linsys/dgesv", {"n": n})
    )[0]


def pinned_solve(tb, best, args, payloads=None):
    """Blocking ``submit`` pinned to ``best``; returns the outputs."""
    handle = tb.client("c0").submit(
        "linsys/dgesv", args, server=best.address, server_id=best.server_id,
        payloads=payloads,
    )
    return tb.transport.run_until(handle.promise)


# ----------------------------------------------------------------------
# store -> handle -> brokered solve by reference -> keep -> fetch
# ----------------------------------------------------------------------
def test_store_returns_handle_with_metadata():
    tb = standard_testbed(n_servers=2, seed=3)
    tb.settle()
    a, _ = linsys(32)
    h = tb.store("c0", "s0", "A", a)
    assert isinstance(h, DataHandle)
    assert h.key == "A" and h.server_id == "s0"
    assert h.address == server_address("s0")
    assert h.shape == (32, 32) and h.dtype == "float64"
    assert h.digest and h.nbytes > 0


def test_brokered_solve_with_handle_and_keep_result():
    tb = standard_testbed(n_servers=2, seed=3)
    tb.settle()
    a, b = linsys(48)
    h = tb.store("c0", "s0", "A", a)
    outputs = tb.solve("c0", "linsys/dgesv", [h, b], keep_result=True)
    (out_h,) = outputs
    assert isinstance(out_h, DataHandle)
    assert out_h.server_id and out_h.address
    x = tb.fetch("c0", out_h)
    assert np.allclose(x, np.linalg.solve(a, b))


def test_fetch_missing_key_rejects_typed():
    tb = standard_testbed(n_servers=1, seed=3)
    tb.settle()
    promise = tb.client("c0").fetch("no-such-key", address=server_address("s0"))
    with pytest.raises(MissingObjectError):
        tb.transport.run_until(promise)


def test_ship_everything_path_unchanged():
    # the old by-value flow must be untouched by the reference machinery
    tb = standard_testbed(n_servers=2, seed=3)
    tb.settle()
    a, b = linsys(48)
    (x,) = tb.solve("c0", "linsys/dgesv", [a, b])
    assert np.allclose(x, np.linalg.solve(a, b))
    record = tb.client("c0").records[-1]
    assert record.status.value == "done"


# ----------------------------------------------------------------------
# satellite 1: digest folding — handle-based repeats hit the result cache
# ----------------------------------------------------------------------
def test_handle_repeat_hits_server_result_cache():
    tb = standard_testbed(
        n_servers=1, seed=5,
        server_cfg=ServerConfig(cache_entries=8),
    )
    tb.settle()
    server = tb.server("s0")
    a, b = linsys(40)
    best = pin(tb, 40)
    a_ref = tb.store("c0", best.server_id, "A", a)
    first = pinned_solve(tb, best, [a_ref, b])
    assert server.result_cache.hits == 0
    second = pinned_solve(tb, best, [DataHandle(key="A"), b])
    # the folded digest is the stored content's, so a repeat hits
    # whether it names the object by full or by bare-key handle
    assert server.result_cache.hits == 1
    assert np.array_equal(first[0], second[0])


def test_by_reference_and_by_value_digests_do_not_collide():
    tb = standard_testbed(
        n_servers=1, seed=5,
        server_cfg=ServerConfig(cache_entries=8),
    )
    tb.settle()
    server = tb.server("s0")
    a, b = linsys(40)
    tb.solve("c0", "linsys/dgesv", [a, b])
    h = tb.store("c0", "s0", "A", a)
    tb.solve("c0", "linsys/dgesv", [h, b])
    # same logical request, different key space: no false sharing
    assert server.result_cache.hits == 0
    assert len(server.result_cache) == 2


def test_restore_after_content_change_misses_cache():
    # folded digests key the *stored content*: re-storing different
    # bytes under the same key must not alias the old cached result
    tb = standard_testbed(
        n_servers=1, seed=5,
        server_cfg=ServerConfig(cache_entries=8),
    )
    tb.settle()
    server = tb.server("s0")
    a, b = linsys(40)
    a2 = a + np.eye(40)
    best = pin(tb, 40)
    a_ref = tb.store("c0", best.server_id, "A", a)
    first = pinned_solve(tb, best, [a_ref, b])
    tb.store("c0", best.server_id, "A", a2)
    # the old handle still carries a's digest: the server folds in the
    # digest of what is resident now, so the stale one cannot alias
    second = pinned_solve(tb, best, [a_ref, b])
    assert server.result_cache.hits == 0
    assert not np.array_equal(first[0], second[0])
    assert np.allclose(second[0], np.linalg.solve(a2, b))


# ----------------------------------------------------------------------
# satellite 2: missing key -> typed retryable error -> payload re-submit
# ----------------------------------------------------------------------
def test_missing_object_fails_fast_without_payloads():
    tb = standard_testbed(n_servers=1, seed=7)
    tb.settle()
    _, b = linsys(24)
    handle = tb.submit("c0", "linsys/dgesv",
                       [DataHandle(key="never-stored"), b])
    # the pinned path is not needed: brokered requests may reference too
    with pytest.raises(RequestFailed):
        tb.transport.run_until(handle.promise)
    attempts = tb.client("c0").records[-1].attempts
    assert attempts and all(a.outcome == "missing" for a in attempts)
    # the server is healthy — no FailureReport may have suspected it
    assert not tb.trace.filter(kind="failure_report")
    assert tb.server("s0").objects.stats()["misses"] >= 1


def test_missing_object_recovers_with_payloads():
    tb = standard_testbed(n_servers=1, seed=7)
    tb.settle()
    a, b = linsys(24)
    (x,) = tb.solve(
        "c0", "linsys/dgesv",
        [DataHandle(key="ghost", shape=(24, 24), dtype="float64"), b],
        payloads={"ghost": a},
    )
    assert np.allclose(x, np.linalg.solve(a, b))
    record = tb.client("c0").records[-1]
    # exactly two attempts: the miss, then the inlined re-submission
    assert [att.outcome for att in record.attempts] == ["missing", "ok"]


def test_sequence_survives_hard_server_death():
    # the crash split: on_shutdown wipes residents; the client-side
    # payload copy recovers the request on the same server
    tb = standard_testbed(n_servers=1, seed=7)
    tb.settle()
    a, b = linsys(24)
    best = pin(tb, 24)
    a_ref = tb.store("c0", best.server_id, "A", a)
    first = pinned_solve(tb, best, [a_ref, b], payloads={"A": a})
    server = tb.server("s0")
    server.on_shutdown()   # process death: resident objects are gone
    server.on_restart()
    assert server.cached_objects == 0
    second = pinned_solve(tb, best, [a_ref, b], payloads={"A": a})
    assert np.array_equal(first[0], second[0])
    record = tb.client("c0").records[-1]
    assert [att.outcome for att in record.attempts] == ["missing", "ok"]


def test_resident_objects_survive_soft_restart():
    tb = standard_testbed(n_servers=1, seed=7)
    tb.settle()
    a, b = linsys(24)
    h = tb.store("c0", "s0", "A", a)
    server = tb.server("s0")
    server.on_restart()    # in-process hiccup: no data loss
    assert server.cached_objects == 1
    (x,) = tb.solve("c0", "linsys/dgesv", [h, b])
    assert np.allclose(x, np.linalg.solve(a, b))


# ----------------------------------------------------------------------
# locality-aware MCT
# ----------------------------------------------------------------------
def test_residency_steers_scheduling_to_data():
    # slow server holds the matrix; fast server would have to receive
    # it.  With a slow LAN the transfer dominates, so the locality-aware
    # ranking must pick the slow-but-resident server — and the identical
    # by-value request must still pick the fast one.
    tb = standard_testbed(
        n_servers=2, server_mflops=[50.0, 200.0], seed=9,
        bandwidth=1.25e6,
    )
    tb.settle()
    a, b = linsys(400)
    (x_value,) = tb.solve("c0", "linsys/dgesv", [a, b])
    assert tb.client("c0").records[-1].server_id == "s1"
    h = tb.store("c0", "s0", "A", a)
    (x_ref,) = tb.solve("c0", "linsys/dgesv", [h, b])
    assert tb.client("c0").records[-1].server_id == "s0"
    # the scheduling decision moved; the numbers must not
    assert np.array_equal(x_value, x_ref)


def test_handle_free_ranking_bit_identical():
    # property: an empty resident map must take the scalar code path —
    # same totals, same ranking, to the last ulp
    rng = np.random.default_rng(11)
    n = 16
    kwargs = dict(
        flops=2e8,
        output_bytes=8_000.0,
        latency=rng.uniform(1e-4, 1e-2, n),
        bandwidth=rng.uniform(1e5, 1e9, n),
        peak_mflops=rng.uniform(10, 500, n),
        workload=rng.uniform(0, 300, n),
        pending=rng.integers(0, 4, n),
        slots=rng.integers(1, 4, n),
    )
    scalar = predict_batch(input_bytes=1_280_000.0, **kwargs)
    array = predict_batch(
        input_bytes=np.full(n, 1_280_000.0), **kwargs
    )
    assert np.array_equal(scalar, array)
