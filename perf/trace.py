"""Wrapper-based span tracing for the traced benchmark pass.

Nothing under ``src/`` knows about this module.  Layers are measured
from outside: :meth:`Tracer.install` wraps the public functions and role
entry points of each ``repro.*`` layer, and every callable that code
hands to a scheduling primitive (``call_at``, ``Event.add_callback``,
``Node.call_after``, ``Node.compute``, ``DeadlineTable.arm``,
``Periodic``) is wrapped
on the way in and labelled with the module that defined it.  Callers
bind functions by name (``from .codec import frame_size``), so a module
function is rebound in every loaded ``repro.*`` module whose attribute
*is* the original; the defining module itself is left alone unless the
target asks for it, which keeps recursive helpers (``encoded_size``)
from opening one span per recursion step.

A span is ``(name, start_ns, end_ns, parent, request_id)`` on a
per-thread stack.  A layer's *self time* is its spans' duration minus
the part their child spans cover; summing self times over every span of
a run therefore never counts a nanosecond twice on one thread.  On the
threaded TCP deployment durations are thread CPU time (busy time), on
the single-threaded simulator wall time.  Spans stay in memory and are
written once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

__all__ = ["Tracer", "LAYER_PREFIXES", "layer_of"]

_now = time.perf_counter_ns
_cpu_now = time.thread_time_ns

#: span-name prefix -> layer, first match wins (longest prefixes first)
LAYER_PREFIXES = (
    ("repro.protocol.codec", "codec"),
    ("repro.protocol.messages", "codec"),
    ("repro.protocol.tcp", "tcp"),
    ("repro.protocol.transport", "simtransport"),
    ("repro.simnet.kernel", "kernel"),
    ("repro.simnet", "simnet"),
    ("repro.core.client", "client"),
    ("repro.core.agent", "agent"),
    ("repro.core.registry", "registry"),
    ("repro.core.predictor", "predictor"),
    ("repro.core.scheduler", "predictor"),
    ("repro.core.server", "server"),
    ("repro.core.executors", "server"),
    ("repro.core.workload", "server"),
    ("repro.problems.spec", "spec"),
    ("repro.problems", "numerics"),
    ("repro.numerics", "numerics"),
    ("repro.store.digest", "digest"),
    ("repro.store.cache", "cache"),
    ("repro.store", "store"),
    ("repro.runtime", "runtime"),
    ("perf", "driver"),
)


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return "other"


class _ThreadState:
    __slots__ = ("stack", "spans", "agg", "counts", "thread")

    def __init__(self, thread: str) -> None:
        #: open spans: [span index, name id, start_ns, child_ns, cpu_start]
        self.stack: list[list] = []
        #: five int64 per span: name id, start_ns, end_ns, parent span
        #: index (-1 at the root), request id (-1 when the call carried
        #: none).  A flat array keeps millions of spans out of the
        #: garbage collector's sight; a tuple per span made every
        #: collection walk them all and tripled the traced run time.
        self.spans = array("q")
        #: name id -> [count, self_ns, total_ns, wall_ns]
        self.agg: dict[int, list] = {}
        self.counts: dict = defaultdict(int)
        self.thread = thread


_FIELDS = 5
_BLANK = (0, 0, 0, -1, -1)
#: raw spans written per thread; a sim run holds around a million, and
#: the aggregates are computed from all of them
RAW_SPANS_WRITTEN = 20000


def _callable_name(fn) -> str:
    """``module.qualname`` of whatever ``fn`` ultimately runs."""
    inner = fn
    while isinstance(inner, functools.partial):
        inner = inner.func
    inner = getattr(inner, "__func__", inner)
    module = getattr(inner, "__module__", None) or "unknown"
    qual = getattr(inner, "__qualname__", None) or type(inner).__name__
    return f"{module}.{qual}"


def _request_id(obj):
    return getattr(obj, "request_id", None)


class Tracer:
    """Installs the wrappers, records spans, restores on ``uninstall``."""

    def __init__(self, *, cpu: bool = False) -> None:
        #: wrappers are inert (one attribute test) while this is False
        self.enabled = False
        #: account durations in the calling thread's CPU time instead of
        #: wall time.  With several threads a wall-clock span also counts
        #: the time its thread waited for the GIL, a lock or a socket, so
        #: self times summed over threads exceed the wall; CPU time is
        #: the layer's *busy* time and sums to the process's CPU.
        self.cpu = cpu
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple] = []
        #: live WorkerPool instances seen by the submit wrapper
        self.pools: list = []
        #: code object -> span name, for callbacks
        self._names: dict = {}
        #: span names by id (spans and aggregates store the id)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _enter(self, st: _ThreadState, name_id: int) -> list:
        spans = st.spans
        frame = [len(spans) // _FIELDS, name_id, 0, 0, 0]
        spans.extend(_BLANK)
        st.stack.append(frame)
        if self.cpu:
            frame[4] = _cpu_now()
        frame[2] = _now()
        return frame

    def _exit(self, st: _ThreadState, frame: list, rid=None) -> None:
        end = _now()
        stack = st.stack
        stack.pop()
        index, name_id, start, child_ns, cpu_start = frame
        # durations feed the self-time accounts; the stored start and
        # end are always wall clock, so spans line up across threads
        duration = (_cpu_now() - cpu_start) if self.cpu else end - start
        spans = st.spans
        base = index * _FIELDS
        spans[base] = name_id
        spans[base + 1] = start
        spans[base + 2] = end
        if stack:
            top = stack[-1]
            top[3] += duration
            spans[base + 3] = top[0]
        if type(rid) is int:
            spans[base + 4] = rid
        entry = st.agg.get(name_id)
        if entry is None:
            st.agg[name_id] = [1, duration - child_ns, duration, end - start]
        else:
            entry[0] += 1
            entry[1] += duration - child_ns
            entry[2] += duration
            entry[3] += end - start

    def span(self, name: str):
        """Context manager for the benchmark's own code."""
        return _ManualSpan(self, name)

    def wrap(self, fn, name: str | None = None, *, rid=None, post=None):
        """A traced stand-in for ``fn``.

        ``rid(args, result)`` extracts a request id once the call has
        returned; ``post(state_counts, args, result)`` updates counters
        after the span has closed (so counting is not billed to it).
        """
        span_name = self._name_id(name or _callable_name(fn))
        tracer = self
        local = self._local
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                st = local.state
            except AttributeError:
                st = tracer._state()
            frame = enter(st, span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if rid is None:
                    exit_(st, frame)
                else:
                    exit_(st, frame, rid(args, result))
                if post is not None:
                    post(st.counts, args, result)

        traced.__wrapped__ = fn
        return traced

    def wrap_callback(self, fn):
        """Wrap a callable handed to a scheduling primitive, labelled by
        the module that defined it.  Already-traced callables and
        ``None`` pass through.  The name is cached per code object:
        closures are created per event, their code is not."""
        if fn is None:
            return fn
        code = getattr(fn, "__code__", None) or getattr(
            getattr(fn, "__func__", None), "__code__", None
        )
        if code is _TRACED_CODE:
            return fn
        name = self._names.get(code) if code is not None else None
        if name is None:
            name = _callable_name(fn)
            if code is not None:
                self._names[code] = name
        return self.wrap(fn, name)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def patch_function(
        self, module, attr: str, *, internal: bool = False, **wrap_kw
    ) -> None:
        """Trace module-level ``module.attr`` wherever it was imported."""
        original = getattr(module, attr)
        traced = self.wrap(
            original, f"{module.__name__}.{attr}", **wrap_kw
        )
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            if mod is module and not internal:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr: str, *, via=None, **wrap_kw) -> None:
        """Trace ``cls.attr`` (inherited entry points are wrapped on the
        concrete class, leaving the base untouched).  ``via`` builds the
        replacement from the original instead of a plain span wrapper."""
        original = getattr(cls, attr)
        name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        if via is not None:
            replacement = via(original, name)
        else:
            replacement = self.wrap(original, name, **wrap_kw)
        self._set(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary listed in perf/README.md."""
        from repro.core import predictor, registry as table_mod
        from repro.core.agent import Agent
        from repro.core.client import NetSolveClient
        from repro.core.executors import WorkerPool
        from repro.core.server import ComputationalServer
        from repro.problems import spec as spec_mod
        from repro.problems.registry import ProblemRegistry
        from repro.protocol import codec, tcp
        from repro.protocol.tcp import TcpNode
        from repro.protocol.transport import SimNode
        from repro.runtime.deadlines import DeadlineTable
        from repro.runtime.periodic import Periodic
        from repro.simnet.host import SimHost
        from repro.simnet.kernel import Event, EventKernel
        from repro.simnet.network import Topology
        from repro.store import digest as digest_mod
        from repro.store.cache import ResultCache

        cb = self.wrap_callback

        def msg_rid(index):
            return lambda args, _result: _request_id(args[index])

        def result_rid(_args, result):
            return _request_id(result)

        def count_frame(counts, args, result):
            # frame_size returns the byte count, encode_message_iov the
            # parts; a message is sized or encoded once per send, never
            # both, so the two wrappers together see every frame once
            nbytes = result if isinstance(result, int) else sum(
                len(p) for p in result or ()
            )
            counts["frames", type(args[0]).__name__] += 1
            counts["wire_bytes", type(args[0]).__name__] += nbytes

        # protocol.codec
        self.patch_function(
            codec, "frame_size", rid=msg_rid(0), post=count_frame
        )
        self.patch_function(
            codec, "encode_message_iov", rid=msg_rid(0), post=count_frame
        )
        self.patch_function(codec, "decode_message", rid=result_rid)
        for name in ("encode_value", "decode_value", "encoded_parts",
                     "encoded_size"):
            self.patch_function(codec, name)

        # protocol.tcp — _sendmsg_all and the read helpers are called by
        # name inside tcp.py, so the defining module is rebound too
        self.patch_method(TcpNode, "send", rid=msg_rid(2))
        self.patch_method(tcp.TcpTransport, "learn_peer")
        for name in ("_sendmsg_all", "_read_exact_into", "_read_exact"):
            self.patch_function(tcp, name, internal=True)

        # protocol.transport (sim)
        self.patch_method(SimNode, "send", rid=msg_rid(2))

        # scheduling primitives: label what they are handed
        def call_at_via(original, name):
            # wrapping the callback is billed to the caller, not to the
            # kernel.schedule span
            traced = self.wrap(original, name)

            def call_at(kernel, when, fn, priority=0):
                return traced(kernel, when, cb(fn), priority)
            return call_at

        def add_callback_via(original, _name):
            def add_callback(event, fn):
                return original(event, cb(fn))
            return add_callback

        def call_after_via(original, name):
            # a span of its own: on TcpNode arming a timer starts a thread
            traced = self.wrap(original, name)

            def call_after(node, delay, fn):
                return traced(node, delay, cb(fn))
            return call_after

        def compute_via(original, _name):
            def compute(node, flops, thunk, done):
                return original(node, flops, cb(thunk), cb(done))
            return compute

        def arm_via(original, _name):
            def arm(table, key, delay, fn):
                return original(table, key, delay, cb(fn))
            return arm

        self.patch_method(EventKernel, "run")
        self.patch_method(EventKernel, "call_at", via=call_at_via)
        self.patch_method(Event, "add_callback", via=add_callback_via)
        for node_cls in (SimNode, TcpNode):
            self.patch_method(node_cls, "call_after", via=call_after_via)
            self.patch_method(node_cls, "compute", via=compute_via)
        def periodic_via(original, _name):
            def __init__(periodic, component, interval, fn, **kwargs):
                original(periodic, component, interval, cb(fn), **kwargs)
            return __init__

        self.patch_method(DeadlineTable, "arm", via=arm_via)
        self.patch_method(Periodic, "__init__", via=periodic_via)

        # simnet models
        self.patch_method(Topology, "transfer")
        self.patch_method(SimHost, "submit_job")

        # roles: entry points on the concrete classes
        for role in (NetSolveClient, Agent, ComputationalServer):
            self.patch_method(role, "on_message", rid=msg_rid(2))
        self.patch_method(NetSolveClient, "submit")

        # core.registry + core.predictor
        def count_write(counts, _args, _result):
            counts["registry_writes"] += 1

        table = table_mod.ServerTable
        self.patch_method(table, "candidates_for")
        for name in ("register", "report_workload", "mark_failed"):
            self.patch_method(table, name, post=count_write)
        self.patch_function(predictor, "predict_batch")

        # problems.spec / problems.registry + numerics
        def count_validation(counts, _args, _result):
            counts["validations"] += 1

        self.patch_function(
            spec_mod, "validate_inputs", post=count_validation
        )
        self.patch_method(ProblemRegistry, "execute")
        self.patch_method(ProblemRegistry, "execute_batch")

        # store
        self.patch_function(digest_mod, "solve_digest")
        for name in ("get", "peek", "put"):
            self.patch_method(ResultCache, name)

        # executors: remember the pools so their stats() can be read
        def remember_pool(_counts, args, _result):
            if args[0] not in self.pools:
                self.pools.append(args[0])

        self.patch_method(WorkerPool, "submit", post=remember_pool)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, previous, had in reversed(self._patches):
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, list]:
        """name -> [count, self_ns, total_ns, wall_ns] merged over
        threads; self and total are in the accounting clock (CPU or
        wall), wall_ns is always the spans' wall-clock duration."""
        merged: dict[str, list] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name_id, values in st.agg.items():
                entry = merged.setdefault(self.names[name_id], [0, 0, 0, 0])
                for i, value in enumerate(values):
                    entry[i] += value
        return merged

    def counts(self) -> dict:
        merged: dict = defaultdict(int)
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for key, value in st.counts.items():
                merged[key] += value
        return merged

    def write(self, path, *, extra: dict) -> None:
        """Dump the aggregates plus the first ``RAW_SPANS_WRITTEN`` raw
        spans of each thread."""
        with self._states_lock:
            states = list(self._states)
        threads = []
        for st in states:
            total = len(st.spans) // _FIELDS
            rows = []
            for i in range(min(total, RAW_SPANS_WRITTEN)):
                name_id, start, end, parent, rid = st.spans[
                    i * _FIELDS:(i + 1) * _FIELDS
                ]
                if end:  # still open when tracing stopped: skip
                    rows.append({
                        "name": self.names[name_id], "start_ns": start,
                        "end_ns": end, "parent": parent,
                        "request_id": None if rid < 0 else rid,
                    })
            threads.append(
                {"thread": st.thread, "spans_total": total, "spans": rows}
            )
        aggregate = {
            name: {"count": c, "self_ns": s, "total_ns": t, "wall_ns": w,
                   "layer": layer_of(name)}
            for name, (c, s, t, w) in sorted(self.aggregate().items())
        }
        counts = {
            "/".join(k) if isinstance(k, tuple) else k: v
            for k, v in self.counts().items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {**extra, "aggregate": aggregate, "counts": counts,
             "threads": threads},
        ) + "\n")


#: every ``traced`` closure shares this code object: how wrap_callback
#: recognises a callable that is traced already
_TRACED_CODE = Tracer().wrap(len).__code__


class _ManualSpan:
    __slots__ = ("_tracer", "_name", "_st", "_frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = tracer._name_id(name)
        self._st = None

    def __enter__(self):
        if self._tracer.enabled:
            self._st = self._tracer._state()
            self._frame = self._tracer._enter(self._st, self._name)
        return self

    def __exit__(self, *exc) -> None:
        if self._st is not None:
            self._tracer._exit(self._st, self._frame)
            self._st = None
