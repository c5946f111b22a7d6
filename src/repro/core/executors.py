"""Bounded execution pools backing a computational server.

The seed's TCP transport spawned one daemon thread per ``compute`` call:
``max_concurrent`` bounded how many requests a *server* admitted, but
nothing bounded how many OS threads a burst could create, and nothing
made a thread explosion visible.  This module provides the two bounded
lanes a server can execute on:

* :class:`WorkerPool` — a fixed set of lazily-spawned worker threads
  draining an unbounded task queue.  Workers run kernels in parallel
  only where the kernel releases the GIL (``blas/dgemm``: on a 2-vCPU
  host two slots halve its wall time per 384x384 product, 3.06 -> 1.52
  ms).  Most of the catalogue is Python loops that hold the GIL, and
  those take turns in one process-wide interpreter lane instead:
  ``linsys/det`` n=384 takes 17.8 ms of wall per item in the lane and
  18.0 ms two at a time, which also costs 50% more CPU.  Each worker is
  one compute slot running one kernel on one BLAS thread
  (:mod:`repro.numerics.threads`): left at its default, OpenBLAS
  would spread each kernel over its own thread pool, whose
  idle threads busy-wait after every call (a 384x384 ``@`` every 9 ms
  on 2 vCPUs: 13.3 ms of CPU for 2.1 ms of wall, against 3.4 ms of both
  pinned).  ``submit`` never blocks; when every worker is busy the task
  queues and the pool counts the saturation (the ``on_saturated`` hook
  feeds the ``server.pool_saturated`` counter).

* :class:`ProcessPool` — an opt-in lane over
  :class:`concurrent.futures.ProcessPoolExecutor` for GIL-bound
  handlers (pure-Python kernels that never release the lock).  Closures
  do not pickle, so this lane ships ``(problem, inputs)`` pairs, and each
  child forks with the server's own problem registry already in memory.
  Real-socket transports only: results return on executor threads, and
  the simulated transport's virtual clock cannot account for them.

Both pools are transport-agnostic plumbing: no sockets, no messages, no
component state — just "run this, tell me when it finished and how long
it took", which is exactly the contract of ``Node.compute``.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Optional, Sequence

from ..errors import NetSolveError
from ..numerics.threads import pin_blas_threads

__all__ = ["WorkerPool", "ProcessPool"]


class WorkerPool:
    """A bounded pool of daemon worker threads over an unbounded queue.

    Workers are spawned lazily, one per submission, up to ``workers``;
    an idle pool costs nothing and a mostly-serial server never pays for
    threads it does not use.  ``submit(fn)`` enqueues and returns
    immediately — admission control lives with the caller (the server's
    ``max_concurrent``/``max_queue``), not here — but a submission that
    finds every worker busy increments :attr:`saturated` and fires
    ``on_saturated``, so unbounded-thread behaviour of the old
    per-request spawn becomes a visible counter instead of silent OS
    pressure.
    """

    def __init__(
        self,
        workers: int,
        *,
        name: str = "pool",
        on_saturated: Optional[Callable[[], None]] = None,
    ):
        if workers < 1:
            raise NetSolveError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = int(workers)
        self.name = name
        self.on_saturated = on_saturated
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._busy = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0
        #: submissions that found every worker busy (the task queued)
        self.saturated = 0
        self.peak_pending = 0

    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        return self._busy

    @property
    def pending(self) -> int:
        """Tasks enqueued but not yet picked up (approximate)."""
        return self._tasks.qsize()

    def submit(self, fn: Callable[[], None]) -> None:
        """Enqueue ``fn`` for execution on a pool thread; never blocks."""
        with self._lock:
            if self._closed:
                raise NetSolveError(f"worker pool {self.name!r} is shut down")
            # tasks queued or running, counted under the lock: a worker
            # between dequeue and ``_busy += 1`` is still outstanding
            outstanding = self.submitted - self.completed
            self.submitted += 1
            spawned = len(self._threads)
            if spawned < self.workers and outstanding >= spawned:
                thread = threading.Thread(
                    target=self._work,
                    name=f"{self.name}-worker-{spawned}",
                    daemon=True,
                )
                self._threads.append(thread)
            else:
                thread = None
            if outstanding >= self.workers:
                self.saturated += 1
                depth = outstanding - self.workers + 1
                if depth > self.peak_pending:
                    self.peak_pending = depth
                hook = self.on_saturated
            else:
                hook = None
        self._tasks.put(fn)
        if thread is not None:
            pin_blas_threads()  # process-wide and idempotent
            thread.start()
        if hook is not None:
            hook()

    def _work(self) -> None:
        while True:
            fn = self._tasks.get()
            if fn is None:
                return  # shutdown sentinel
            with self._lock:
                self._busy += 1
            try:
                fn()
            except Exception:  # pragma: no cover - tasks guard themselves
                pass
            finally:
                with self._lock:
                    self._busy -= 1
                    self.completed += 1

    def shutdown(self) -> None:
        """Stop accepting work and release the workers.

        Queued tasks already submitted still run; each worker exits when
        it drains to its sentinel.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._tasks.put(None)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "busy": self._busy,
                "submitted": self.submitted,
                "completed": self.completed,
                "saturated": self.saturated,
                "peak_pending": self.peak_pending,
            }


# ----------------------------------------------------------------------
# process lane
# ----------------------------------------------------------------------
_CHILD_REGISTRY = None


def _child_init(registry) -> None:  # pragma: no cover - runs in the child
    global _CHILD_REGISTRY
    pin_blas_threads()  # each child is one slot
    _CHILD_REGISTRY = registry


def _child_run(problem: str, inputs: Sequence[Any]):  # pragma: no cover
    t0 = time.perf_counter()
    try:
        result: Any = _CHILD_REGISTRY.execute(problem, list(inputs))
    except Exception as exc:
        result = exc
    return result, time.perf_counter() - t0


class ProcessPool:
    """Opt-in process executor for GIL-bound problem handlers.

    ``submit(problem, inputs, done)`` runs the named problem of
    ``registry`` (a :class:`~repro.problems.registry.ProblemRegistry`) in
    a child process and invokes ``done(result, elapsed)`` from an
    executor thread — callers on a threaded transport must re-enter
    their own lock (the server marshals through ``node.post``).
    Exceptions travel as values, matching ``Node.compute``.  Children
    are forked, so each inherits the registry as it stood when it
    forked, closures and all: nothing about it is pickled.
    """

    def __init__(self, workers: int, registry):
        import concurrent.futures
        import multiprocessing

        if workers < 1:
            raise NetSolveError(f"process pool needs >= 1 worker, got {workers}")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            raise NetSolveError(
                "the process lane needs the fork start method"
            ) from None
        self.workers = int(workers)
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_child_init,
            initargs=(registry,),
        )
        self.submitted = 0
        self.completed = 0

    def submit(
        self,
        problem: str,
        inputs: Sequence[Any],
        done: Callable[[Any, float], None],
    ) -> None:
        self.submitted += 1
        future = self._executor.submit(_child_run, problem, list(inputs))

        def _settle(fut) -> None:
            self.completed += 1
            try:
                result, elapsed = fut.result()
            except Exception as exc:  # broken pool / unpicklable result
                result, elapsed = exc, 0.0
            done(result, elapsed)

        future.add_done_callback(_settle)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
