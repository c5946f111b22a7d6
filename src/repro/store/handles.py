"""Server-resident object store behind :class:`~repro.protocol.messages.DataHandle`.

A keyed store with the semantics handles need:

* **digests** — every object is content-digested at insert time (blake2b
  over its canonical wire encoding, the same scheme ``solve_digest``
  uses), so handle-bearing requests can fold the *stored* digest into
  their request digest instead of re-hashing megabytes per call;
* **pins** — client-``store``d operands are pinned: immune to TTL and
  eviction, released only by an explicit delete (ship once, refer
  after);
* **TTL** — unpinned entries (``keep_result`` outputs, request-DAG
  intermediates) are reclaimable: each lives until its TTL lapses or
  the byte budget forces LRU eviction;
* **byte budget** — pinned inserts are *rejected* past the budget (the
  client hears a failed StoreAck, as before); unpinned inserts instead
  evict idle unpinned entries LRU-first and fail only if the object
  cannot fit at all.

Deliberately transport-agnostic, like :class:`ResultCache`: the clock is
injected so TTLs run under virtual and wall time alike.  Lifecycle
contract (pinned by tests): the store *survives* ``on_restart`` (an
in-process hiccup loses no resident data) and is *cleared* by
``on_shutdown`` (process death wipes memory; clients re-submit with
payloads via the typed ``missing_object`` error).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Optional

import numpy as np

from ..errors import CodecError, ConfigError, MissingObjectError
from ..protocol.codec import encoded_parts, encoded_size
from ..protocol.messages import DataHandle

__all__ = ["HandleStore", "StoredObject"]

#: matches ``repro.store.digest._DIGEST_BYTES`` — same digest family, so
#: a folded handle digest is as collision-resistant as a value digest
_DIGEST_BYTES = 20


def _zero_clock() -> float:
    return 0.0


def value_digest(value: Any) -> str:
    """blake2b hex of ``value``'s canonical wire encoding.

    Raises :class:`CodecError` for values the codec cannot carry (which
    could not have arrived over the wire anyway).
    """
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in encoded_parts(value):
        h.update(part)
    return h.hexdigest()


class StoredObject:
    """One resident object plus its handle metadata."""

    __slots__ = (
        "key", "value", "nbytes", "digest", "pinned", "inserted", "shape",
        "dtype",
    )

    def __init__(self, key, value, nbytes, digest, pinned, inserted):
        self.key = key
        self.value = value
        self.nbytes = nbytes
        self.digest = digest
        self.pinned = pinned
        self.inserted = inserted
        if isinstance(value, np.ndarray):
            self.shape = tuple(int(d) for d in value.shape)
            self.dtype = value.dtype.name
        else:
            self.shape = ()
            self.dtype = ""

    def handle(self, *, server_id: str = "", address: str = "") -> DataHandle:
        return DataHandle(
            key=self.key,
            digest=self.digest,
            nbytes=self.nbytes,
            server_id=server_id,
            address=address,
            shape=self.shape,
            dtype=self.dtype,
        )


class HandleStore:
    """Key -> resident object map with pin/TTL/budget semantics."""

    __slots__ = (
        "budget", "ttl", "_clock", "_data", "nbytes",
        "stores", "rejects", "deletes", "evictions", "expirations", "misses",
    )

    def __init__(
        self,
        budget: int,
        *,
        ttl: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if budget < 0:
            raise ConfigError(f"handle-store budget must be >= 0, got {budget}")
        if ttl < 0:
            raise ConfigError(f"handle ttl must be >= 0, got {ttl}")
        self.budget = budget
        self.ttl = ttl
        self._clock = clock if clock is not None else _zero_clock
        #: insertion/recency order — LRU reclamation walks from the front
        self._data: OrderedDict[str, StoredObject] = OrderedDict()
        self.nbytes = 0
        self.stores = 0
        self.rejects = 0
        self.deletes = 0
        self.evictions = 0
        self.expirations = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return self._lookup(key) is not None

    def _expired(self, obj: StoredObject, now: float) -> bool:
        return (
            self.ttl > 0
            and not obj.pinned
            and now - obj.inserted > self.ttl
        )

    def _lookup(self, key: str) -> Optional[StoredObject]:
        """The live entry for ``key``, expiring it lazily if stale."""
        obj = self._data.get(key)
        if obj is None:
            return None
        if self._expired(obj, self._clock()):
            del self._data[key]
            self.nbytes -= obj.nbytes
            self.expirations += 1
            return None
        return obj

    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, *, pin: bool = False) -> StoredObject:
        """Insert ``value`` under ``key``; returns its entry.

        Replacing an existing key keeps the stronger pin (re-storing a
        pinned operand never silently unpins it).  Raises
        :class:`CodecError` for unencodable values and
        :class:`ConfigError` when the object cannot be admitted within
        the byte budget: pinned inserts never evict on their own behalf
        (the historical StoreObject contract — the client is told the
        cache is full), unpinned inserts may evict idle unpinned
        entries LRU-first.
        """
        nbytes = encoded_size(value)
        old = self._data.get(key)
        old_bytes = old.nbytes if old is not None else 0
        projected = self.nbytes - old_bytes + nbytes
        if projected > self.budget:
            if pin or (old is not None and old.pinned):
                self.rejects += 1
                raise ConfigError(
                    f"object cache full ({projected} > {self.budget} bytes)"
                )
            projected -= self._evict(projected - self.budget, skip=key)
            if projected > self.budget:
                self.rejects += 1
                raise ConfigError(
                    f"object cache full ({projected} > {self.budget} bytes)"
                )
        obj = StoredObject(
            key, value, nbytes,
            value_digest(value),
            pin or (old is not None and old.pinned),
            self._clock(),
        )
        if old is not None:
            del self._data[key]
        self._data[key] = obj
        self.nbytes += nbytes - old_bytes
        self.stores += 1
        return obj

    def _evict(self, needed: int, *, skip: str) -> int:
        """Free at least ``needed`` bytes of idle unpinned entries
        (LRU-first); returns the bytes actually freed."""
        freed = 0
        for key in list(self._data):
            if freed >= needed:
                break
            obj = self._data[key]
            if key == skip or obj.pinned:
                continue
            del self._data[key]
            self.nbytes -= obj.nbytes
            freed += obj.nbytes
            self.evictions += 1
        return freed

    def get(self, key: str) -> Any:
        """The resident value.  Raises :class:`MissingObjectError` when
        ``key`` is not resident (never stored, deleted, expired, evicted
        or lost to a shutdown) — the typed, retryable failure the client
        maps to re-submit-with-payload."""
        obj = self._lookup(key)
        if obj is None:
            self.misses += 1
            raise MissingObjectError(key)
        self._data.move_to_end(key)
        return obj.value

    def entry(self, key: str) -> Optional[StoredObject]:
        """The live entry, or ``None`` — no miss counted, LRU untouched."""
        return self._lookup(key)

    def digest_of(self, key: str) -> Optional[str]:
        """Stored content digest for ``key``, or ``None`` if absent."""
        obj = self._lookup(key)
        return obj.digest if obj is not None else None

    def delete(self, key: str) -> int:
        """Drop ``key`` regardless of pin state; returns bytes freed
        (0 when absent — deletion is idempotent)."""
        obj = self._data.pop(key, None)
        if obj is None:
            return 0
        self.nbytes -= obj.nbytes
        self.deletes += 1
        return obj.nbytes

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Process death: every resident object is gone, pins included."""
        self._data.clear()
        self.nbytes = 0

    def sweep(self) -> int:
        """Expire every stale entry now (TTL is otherwise lazy); returns
        the number expired."""
        now = self._clock()
        stale = [k for k, o in self._data.items() if self._expired(o, now)]
        for key in stale:
            obj = self._data.pop(key)
            self.nbytes -= obj.nbytes
            self.expirations += 1
        return len(stale)

    def stats(self) -> dict:
        return {
            "objects": len(self._data),
            "nbytes": self.nbytes,
            "budget": self.budget,
            "pinned": sum(1 for o in self._data.values() if o.pinned),
            "stores": self.stores,
            "rejects": self.rejects,
            "deletes": self.deletes,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "misses": self.misses,
        }
