"""Custom lint: the server keeps ONE request pipeline.

``core/server.py`` once held four request lifecycles (single, batched,
cache-served, coalesced), each with its own copy of count / trace /
keep / reply / record, and the copies drifted: one drained re-entrantly
and overflowed the stack, one resolved references twice, one never
reached the job store.  They were folded into admit → ``_prepare`` →
``_run`` → ``_settle``, and this AST check keeps a second copy from
growing back:

* ``SolveReply(...)`` is constructed only inside ``_settle`` — every
  reply goes through the one function that also counts, traces, keeps,
  publishes and records it;
* ``validate_inputs(...)`` and ``_resolve_refs(...)`` are called only
  inside ``_prepare`` — a request is validated, and its references
  resolved and counted, at most once in its life;
* ``_drain(...)`` is never called from ``_start``, ``_settle`` or
  ``_prepare`` — the drain is a loop that those return to, not a
  recursion they re-enter.

The walk is syntactic, like ``test_lint_timers``.  A call inside a
nested ``def`` is attributed to the enclosing method, so the completion
closure inside ``_run`` counts as ``_run``.
"""

import ast
from pathlib import Path

SERVER = (
    Path(__file__).resolve().parents[1]
    / "src" / "repro" / "core" / "server.py"
)

#: callee name -> the only function allowed to call it
ONLY_IN = {
    "SolveReply": "_settle",
    "validate_inputs": "_prepare",
    "_resolve_refs": "_prepare",
}
#: functions that must return to the drain loop, never re-enter it
NO_DRAIN = ("_start", "_settle", "_prepare")


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def violations_in(source: str, filename: str) -> list[str]:
    found = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a nested def (completion closure) belongs to its method
                walk(child, owner or child.name)
                continue
            if isinstance(child, ast.Call):
                name = _callee(child)
                where = f"{filename}:{child.lineno}"
                if name in ONLY_IN and owner != ONLY_IN[name]:
                    found.append(
                        f"{where}: {name}() in {owner or '<module>'} — "
                        f"only {ONLY_IN[name]} may call it"
                    )
                if name == "_drain" and owner in NO_DRAIN:
                    found.append(
                        f"{where}: {owner} re-enters _drain() — return to "
                        "the loop instead"
                    )
            walk(child, owner)

    walk(ast.parse(source, filename=filename), None)
    return found


def test_server_has_one_request_pipeline():
    assert SERVER.is_file(), f"server module moved? expected {SERVER}"
    source = SERVER.read_text(encoding="utf-8")
    failures = violations_in(source, SERVER.name)
    assert not failures, "\n".join(failures)
    # the folded lifecycles stay gone, the five owners stay present
    defined = {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    }
    assert not defined & {"_start_batch", "_reply_cached", "_request_digest"}
    assert {"_prepare", "_start", "_run", "_settle", "_drain"} <= defined


def test_lint_actually_catches_the_banned_patterns():
    """Guard the guard: the checker must flag every forbidden shape."""
    bad = (
        "class C:\n"
        "    def _start(self, job):\n"
        "        coerced, env = validate_inputs(spec, job.inputs)\n"
        "        self._drain()\n"
        "    def _run(self, jobs):\n"
        "        def done(result, elapsed):\n"
        "            self.node.send(dst, SolveReply(request_id=1, ok=True))\n"
        "    def _probe(self, job):\n"
        "        return self._resolve_refs(job.msg.inputs)\n"
    )
    found = violations_in(bad, "<synthetic>")
    assert len(found) == 4
    assert any("validate_inputs() in _start" in f for f in found)
    assert any("_start re-enters _drain" in f for f in found)
    assert any("SolveReply() in _run" in f for f in found)
    assert any("_resolve_refs() in _probe" in f for f in found)

    good = (
        "class C:\n"
        "    def _prepare(self, job):\n"
        "        job.inputs = self._resolve_refs(job.msg.inputs)\n"
        "        job.coerced, job.env = validate_inputs(spec, job.inputs)\n"
        "    def _settle(self, job, outcome, elapsed):\n"
        "        self.node.send(dst, SolveReply(request_id=1, ok=True))\n"
        "    def _run(self, jobs):\n"
        "        def done(result, elapsed):\n"
        "            self._settle(jobs[0], result, elapsed)\n"
        "            self._drain()\n"
        "    def _drain(self):\n"
        "        while self._queue:\n"
        "            self._start(self._queue.pop())\n"
    )
    assert violations_in(good, "<synthetic>") == []
