"""Custom lint: the client keeps ONE call lifecycle and ONE solve settle.

``core/client.py`` once ran nine hand-built lifecycles — one waiter dict,
timeout closure and "pop the batch, reject each promise not yet done"
loop per operation — and three of them drifted into wrong answers (a
second store on a key was never sent, two attributions of one result
lookup shared an answer, a pinned submit lost the default QoS class).
They were folded into two records: every control exchange is a
``_Call`` settled by ``_answer``, every solve an ``_Active`` settled by
``_finish``.  This AST check keeps a second copy from growing back:

* ``.resolve(...)`` and ``.reject(...)`` are called only inside
  ``_finish`` and ``_answer`` — nothing else settles a promise;
* ``requests_done`` and ``requests_failed`` are incremented only inside
  ``_finish``;
* ``RetryChain(...)`` is constructed at most once;
* the folded waiter tables, closures and helpers stay deleted, and so
  does ``submit_pinned``: a pinned request is ``submit(..., server=)``,
  one entry point (the ``"submit_pinned"`` trace label is a string and
  stays).  So do the handlers of the retired server-side DAG messages:
  a request DAG is run by the client as pinned submits.

The walk is syntactic, like ``test_lint_server_pipeline``: a call inside
a nested ``def`` or ``lambda`` belongs to the enclosing method.  On the
commit before the fold the client had 84 violations: 25 settles outside
the two owners, 4 extra ``RetryChain`` constructions and 55 uses of
names now deleted.
"""

import ast
from pathlib import Path

CLIENT = (
    Path(__file__).resolve().parents[1]
    / "src" / "repro" / "core" / "client.py"
)

SETTLERS = {"resolve", "reject"}
SETTLE_OWNERS = {"_finish", "_answer"}
REQUEST_COUNTS = {"requests_done", "requests_failed"}
DELETED = {
    "_describing", "_spec_waiters", "_listing", "_storing", "_fetching",
    "_object_fetches", "_queries", "_dags", "_DagState", "_store_op",
    "_arm_store_timeout", "_arm_dag_timeout", "_describe_exhausted",
    "_on_candidate_query_reply", "_agent_timed_out", "report_transfers",
    "submit_pinned", "_on_dag_node_done", "_on_dag_reply", "_dag_ids",
}


def violations_in(source: str, filename: str) -> list[str]:
    found = []
    retry_chains = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            where = f"{filename}:{getattr(child, 'lineno', 0)}"
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name in DELETED:
                    found.append(f"{where}: {child.name} is back")
                if isinstance(child, ast.FunctionDef):
                    walk(child, owner or child.name)
                else:
                    walk(child, owner)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else ""
                )
                if (isinstance(func, ast.Attribute) and name in SETTLERS
                        and owner not in SETTLE_OWNERS):
                    found.append(
                        f"{where}: .{name}() in {owner or '<module>'} — "
                        "only _finish and _answer settle"
                    )
                if name == "RetryChain":
                    retry_chains.append(where)
            if (isinstance(child, ast.AugAssign)
                    and isinstance(child.target, ast.Attribute)
                    and child.target.attr in REQUEST_COUNTS
                    and owner != "_finish"):
                found.append(
                    f"{where}: {child.target.attr} counted in "
                    f"{owner or '<module>'} — only _finish counts a settle"
                )
            if isinstance(child, ast.Attribute) and child.attr in DELETED:
                found.append(f"{where}: {child.attr} is back")
            walk(child, owner)

    walk(ast.parse(source, filename=filename), None)
    if len(retry_chains) > 1:
        found += [f"{where}: a second RetryChain()" for where in retry_chains[1:]]
    return found


def test_client_has_one_call_lifecycle():
    assert CLIENT.is_file(), f"client module moved? expected {CLIENT}"
    source = CLIENT.read_text(encoding="utf-8")
    failures = violations_in(source, CLIENT.name)
    assert not failures, "\n".join(failures)
    defined = {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"_Call", "_Active", "_call", "_answer", "_finish",
            "_end_attempt", "_requery"} <= defined
    # one waiter table: the calls in flight, and the solves in flight
    tables = {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(getattr(node, "ctx", None), ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    assert {"_calls", "_active"} <= tables


def test_lint_actually_catches_the_banned_patterns():
    """Guard the guard: the checker must flag every forbidden shape."""
    bad = (
        "class C:\n"
        "    def _on_ack(self, src, msg):\n"
        "        for p in self._storing.pop(msg.key, []):\n"
        "            p.resolve(msg.nbytes)\n"
        "    def _store_op(self, key):\n"
        "        RetryChain(self._deadlines, key, on_exhausted=lambda:\n"
        "                   self._promise.reject(RequestFailed(0)))\n"
        "        RetryChain(self._deadlines, key)\n"
        "    def _describe_exhausted(self, req):\n"
        "        self.requests_failed += 1\n"
    )
    found = violations_in(bad, "<synthetic>")
    assert len(found) == 7, found
    assert any("_storing is back" in f for f in found)
    assert any(".resolve() in _on_ack" in f for f in found)
    assert any(".reject() in _store_op" in f for f in found)
    assert any("_store_op is back" in f for f in found)
    assert any("a second RetryChain()" in f for f in found)
    assert any("_describe_exhausted is back" in f for f in found)
    assert any("requests_failed counted in _describe_exhausted" in f
               for f in found)

    good = (
        "class C:\n"
        "    def _answer(self, key, outcome):\n"
        "        for waiter in self._calls.pop(key).waiters:\n"
        "            waiter.resolve(outcome)\n"
        "    def _finish(self, req, error):\n"
        "        self.requests_failed += 1\n"
        "        req.handle.promise.reject(error)\n"
        "    def _call(self, key):\n"
        "        RetryChain(self._deadlines, key)\n"
    )
    assert violations_in(good, "<synthetic>") == []
