"""Content-addressed result caching and the persistent job store.

Three small pieces, composed by the server/agent/client components:

- :func:`~repro.store.digest.solve_digest` — a content-addressed digest
  of ``(problem, canonicalized inputs, env)``, computed incrementally
  over the zero-copy iov encoding (no serialization pass);
- :class:`~repro.store.cache.ResultCache` — a bounded LRU with optional
  TTL, clocked by the owning node so it works under virtual time;
- :class:`~repro.store.jobstore.JobStore` — an optional SQLite-backed
  NEOS-style job database (request id -> digest -> solution blob) that
  survives server restarts;
- :class:`~repro.store.handles.HandleStore` — the server-resident object
  store behind ``DataHandle``: digest-at-insert, pin/TTL
  semantics and a byte budget, surviving ``on_restart`` but not
  ``on_shutdown``.
"""

from .cache import ResultCache
from .digest import solve_digest
from .handles import HandleStore, StoredObject
from .jobstore import JobRow, JobStore

__all__ = [
    "ResultCache", "solve_digest", "JobRow", "JobStore",
    "HandleStore", "StoredObject",
]
