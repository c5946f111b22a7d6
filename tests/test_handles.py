"""Unit tests for the server-resident object store (HandleStore).

The semantics under test are the data-handle contract: content digests
at insert, pin immunity, TTL reclamation of unpinned entries,
byte-budget behaviour split by pin state, and the restart-vs-shutdown
lifecycle split (an in-process hiccup keeps residents; process death
clears them).
"""

import numpy as np
import pytest

from repro.errors import MissingObjectError, NetSolveError
from repro.protocol.codec import encoded_size
from repro.protocol.messages import DataHandle
from repro.store import HandleStore
from repro.store.handles import value_digest


class Clock:
    """Injectable virtual clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_store(budget=10**9, ttl=0.0):
    clock = Clock()
    return HandleStore(budget, ttl=ttl, clock=clock), clock


# ----------------------------------------------------------------------
# basics: put/get, digests, handle metadata
# ----------------------------------------------------------------------
def test_roundtrip_and_digest():
    store, _ = make_store()
    a = np.arange(12.0).reshape(3, 4)
    obj = store.put("A", a, pin=True)
    assert np.array_equal(store.get("A"), a)
    assert obj.digest == value_digest(a)
    assert obj.nbytes == encoded_size(a)
    assert store.digest_of("A") == obj.digest
    assert store.nbytes == obj.nbytes
    assert len(store) == 1 and "A" in store


def test_handle_carries_metadata():
    store, _ = make_store()
    a = np.zeros((5, 7))
    obj = store.put("A", a, pin=True)
    h = obj.handle(server_id="s0", address="server/s0")
    assert isinstance(h, DataHandle)
    assert h.key == "A" and h.server_id == "s0" and h.address == "server/s0"
    assert h.shape == (5, 7) and h.dtype == "float64"
    assert h.nbytes == obj.nbytes and h.digest == obj.digest


def test_scalar_objects_have_no_shape():
    store, _ = make_store()
    obj = store.put("x", 3.25)
    h = obj.handle()
    assert h.shape == () and h.dtype == ""


def test_get_missing_raises_typed_error():
    store, _ = make_store()
    with pytest.raises(MissingObjectError) as err:
        store.get("nope")
    assert err.value.keys == ("nope",)
    assert store.stats()["misses"] == 1


def test_replace_updates_value_and_digest():
    store, _ = make_store()
    store.put("k", np.ones(4), pin=True)
    first = store.digest_of("k")
    store.put("k", np.zeros(4), pin=True)
    assert store.digest_of("k") != first
    assert len(store) == 1
    assert np.array_equal(store.get("k"), np.zeros(4))


def test_delete_is_idempotent_and_ignores_pins():
    store, _ = make_store()
    obj = store.put("k", np.ones(8), pin=True)
    assert store.delete("k") == obj.nbytes
    assert store.delete("k") == 0
    assert store.nbytes == 0


# ----------------------------------------------------------------------
# byte budget: pinned rejects, unpinned evicts idle unpinned LRU-first
# ----------------------------------------------------------------------
def test_pinned_insert_rejected_past_budget():
    a = np.ones(64)
    budget = encoded_size(a) + 8
    store = HandleStore(budget)
    store.put("a", a, pin=True)
    with pytest.raises(NetSolveError):
        store.put("b", np.ones(64), pin=True)
    assert "b" not in store
    assert store.stats()["rejects"] == 1


def test_unpinned_insert_evicts_unpinned_lru():
    a = np.ones(64)
    per = encoded_size(a)
    store = HandleStore(2 * per + 8)
    store.put("old", a)
    store.put("newer", np.ones(64))
    store.put("newest", np.ones(64))  # must evict "old" (LRU)
    assert "old" not in store
    assert "newer" in store and "newest" in store
    assert store.stats()["evictions"] == 1


def test_eviction_never_touches_pinned():
    a = np.ones(64)
    per = encoded_size(a)
    store = HandleStore(2 * per + 8)
    store.put("pinned", a, pin=True)
    store.put("also", np.ones(64), pin=True)
    with pytest.raises(NetSolveError):
        store.put("third", np.ones(64))  # nothing evictable
    assert "pinned" in store and "also" in store
    assert store.stats()["evictions"] == 0


# ----------------------------------------------------------------------
# TTL (virtual-time safe via the injected clock)
# ----------------------------------------------------------------------
def test_ttl_expires_idle_unpinned_only():
    store, clock = make_store(ttl=10.0)
    store.put("tmp", np.ones(4))
    store.put("op", np.ones(4), pin=True)
    clock.t = 11.0
    assert store.entry("tmp") is None       # lapsed
    assert store.entry("op") is not None    # pins never expire
    assert store.stats()["expirations"] == 1


def test_sweep_reclaims_expired():
    store, clock = make_store(ttl=5.0)
    store.put("a", np.ones(4))
    store.put("b", np.ones(4), pin=True)
    clock.t = 6.0
    assert store.sweep() == 1
    assert len(store) == 1


def test_clear_models_process_death():
    store, _ = make_store()
    store.put("a", np.ones(4), pin=True)
    store.put("b", np.ones(4))
    store.clear()
    assert len(store) == 0 and store.nbytes == 0
