"""Custom lint: the agent keeps ONE ranking path.

``core/agent.py`` once turned candidates into predicted seconds three
ways — a scalar ``predict_entry``, a cached per-candidate closure for
the non-MCT policies and the vectorized MCT path — and every new term of
the model (busy penalty, slots, resident bytes) had to be threaded
through all three "consistently".  They were folded into one
``predict_batch`` call whose vector every policy orders, and this AST
check keeps a second path from growing back:

* ``core/agent.py`` calls ``predict_batch(...)`` exactly once and never
  calls the scalar ``predict(...)`` / ``predict_for(...)`` — the scalar
  model is documentation and the tests' reference, not a code path;
* ``core/agent.py`` never asks ``isinstance(..., MinimumCompletionTime)``
  — no policy gets a private branch of ``_handle_query``;
* every ``SchedulingPolicy`` subclass in ``core/scheduler.py`` defines
  ``order`` and nothing named ``rank`` — a policy orders the totals it
  is handed, it is not handed a way to predict;
* no module under ``src/``, ``tests/`` or ``benchmarks/`` other than
  ``core/registry.py`` assigns to a ``ServerEntry`` ranking field: the
  fields are views of the table's columns, and the table's methods are
  their one writer.  An entry is recognised as what the table hands
  out — ``<...>table.get(...)`` / ``.register(...)``, an element of
  ``entries()`` / ``alive_entries()`` / ``candidates_for(...)``, or a
  name bound to one of those in the same function.

The walk is syntactic, like ``test_lint_server_pipeline``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = ROOT / "src" / "repro" / "core"
AGENT = CORE / "agent.py"
SCHEDULER = CORE / "scheduler.py"
REGISTRY = CORE / "registry.py"

#: ServerEntry properties that read the table's ranking columns
RANKING_FIELDS = frozenset({
    "mflops", "slots", "workload", "penalty_workload", "penalty_until",
    "alive", "pending",
})
_LOOKUPS = ("get", "register")
_VIEWS = ("entries", "alive_entries", "candidates_for")


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def agent_violations(source: str, filename: str) -> list[str]:
    found, batch_calls = [], []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        name, where = _callee(node), f"{filename}:{node.lineno}"
        if name == "predict_batch":
            batch_calls.append(where)
        elif name in ("predict", "predict_for"):
            found.append(f"{where}: scalar {name}() — order the one vector")
        elif name == "isinstance" and any(
            isinstance(n, ast.Name) and n.id == "MinimumCompletionTime"
            for arg in node.args[1:] for n in ast.walk(arg)
        ):
            found.append(f"{where}: a policy-specific branch in the agent")
    if len(batch_calls) != 1:
        found.append(
            f"{filename}: predict_batch() called {len(batch_calls)} times "
            f"({', '.join(batch_calls) or 'nowhere'}) — exactly one"
        )
    return found


def policy_violations(source: str, filename: str) -> list[str]:
    found = []
    classes = [
        node for node in ast.parse(source, filename=filename).body
        if isinstance(node, ast.ClassDef)
    ]
    policies = {"SchedulingPolicy"}
    for cls in classes:  # source order: a base precedes its subclasses
        bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
        if not bases & policies:
            continue
        policies.add(cls.name)
        defined = {
            n.name for n in cls.body if isinstance(n, ast.FunctionDef)
        }
        if "order" not in defined:
            found.append(f"{filename}: {cls.name} does not define order()")
        if "rank" in defined:
            found.append(f"{filename}: {cls.name}.rank() — policies order")
    if len(policies) == 1:
        found.append(f"{filename}: no SchedulingPolicy subclass found")
    return found


def _method_call(node, names) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    )


def _is_table(node) -> bool:
    name = (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else ""
    )
    return name.endswith("table")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scopes(tree):
    """The module and each function, with the nodes each owns (those
    outside its nested functions)."""
    for scope in [tree, *(
        n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)
    )]:
        owned, todo = [], list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            owned.append(node)
            if not isinstance(node, _FUNCTIONS):
                todo.extend(ast.iter_child_nodes(node))
        yield owned


def entry_field_writes(source: str, filename: str) -> list[str]:
    found = set()
    for nodes in _scopes(ast.parse(source, filename=filename)):
        bound: set[str] = set()

        def is_entry(node) -> bool:
            if _method_call(node, _LOOKUPS):
                return _is_table(node.func.value)
            if isinstance(node, ast.Subscript):
                return _method_call(node.value, _VIEWS)
            return isinstance(node, ast.Name) and node.id in bound

        for node in nodes:  # names bound to an entry, in this scope
            if isinstance(node, ast.Assign) and is_entry(node.value):
                bound.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
            elif isinstance(node, (ast.For, ast.comprehension)) and \
                    _method_call(node.iter, _VIEWS) and \
                    isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        for node in nodes:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and \
                            t.attr in RANKING_FIELDS and is_entry(t.value):
                        found.add((t.lineno, t.attr))
    return [
        f"{filename}:{line}: assigns ServerEntry.{attr} — write through "
        "a ServerTable method"
        for line, attr in sorted(found)
    ]


def test_ranking_fields_have_one_writer():
    failures = []
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == REGISTRY:
                continue
            failures += entry_field_writes(
                path.read_text(encoding="utf-8"),
                str(path.relative_to(ROOT)),
            )
    assert not failures, "\n".join(failures)


def test_writer_lint_catches_entry_writes_and_nothing_else():
    bad = (
        "def f(table, agent):\n"
        "    entry = table.register(server_id='s0')\n"
        "    entry.workload = 50.0\n"
        "    agent.table.get('s1').alive = False\n"
        "    for e in agent.table.entries():\n"
        "        e.pending += 1\n"
        "    table.candidates_for('p')[0].mflops, x = 2.0, 1\n"
    )
    found = entry_field_writes(bad, "<synthetic>")
    assert [f.split(":")[1] for f in found] == ["3", "4", "6", "7"]
    good = (
        "def g(self, tb, node, table):\n"
        "    tb.servers['s'].mflops = 10.0\n"  # a server, not an entry
        "    node.alive = True\n"
        "    self.alive = False\n"
        "    entry = table.get('s0')\n"
        "    entry.last_report = 3.0\n"  # a cold field
        "    cache = store.get('k')\n"
        "    cache.workload = 1.0\n"  # not a table lookup
        "def h(table):\n"
        "    entry = table.get('s0')\n"
        "def k(store):\n"
        "    entry = store.get('k')\n"
        "    entry.alive = True\n"  # another function's name
    )
    assert entry_field_writes(good, "<synthetic>") == []


def test_agent_has_one_ranking_path():
    failures = agent_violations(AGENT.read_text(encoding="utf-8"), AGENT.name)
    failures += policy_violations(
        SCHEDULER.read_text(encoding="utf-8"), SCHEDULER.name
    )
    assert not failures, "\n".join(failures)


def test_lint_actually_catches_the_banned_patterns():
    """Guard the guard: the checker must flag every forbidden shape."""
    bad_agent = (
        "class Agent:\n"
        "    def predict_entry(self, entry):\n"
        "        return predict(flops=1.0)\n"
        "    def _handle_query(self, src, msg):\n"
        "        if isinstance(self.policy, MinimumCompletionTime):\n"
        "            totals = predict_batch(flops=1.0)\n"
        "        elif isinstance(self.policy, (A, MinimumCompletionTime)):\n"
        "            totals = predictor.predict_batch(flops=2.0)\n"
        "        else:\n"
        "            base = predict_for(spec, env)\n"
    )
    found = agent_violations(bad_agent, "<synthetic>")
    assert len(found) == 5
    assert sum("scalar predict()" in f for f in found) == 1
    assert sum("scalar predict_for()" in f for f in found) == 1
    assert sum("policy-specific branch" in f for f in found) == 2
    assert sum("called 2 times" in f for f in found) == 1
    assert any(
        "called 0 times" in f for f in agent_violations("x = 1\n", "<none>")
    )

    bad_policies = (
        "class SchedulingPolicy:\n"
        "    def order(self, entries, totals, k): ...\n"
        "class Old(SchedulingPolicy):\n"
        "    def rank(self, entries, predict): ...\n"
        "class Both(Old):\n"
        "    def order(self, entries, totals, k): ...\n"
        "    def rank(self, entries, predict): ...\n"
        "class Unrelated:\n"
        "    def rank(self): ...\n"
    )
    found = policy_violations(bad_policies, "<synthetic>")
    assert found == [
        "<synthetic>: Old does not define order()",
        "<synthetic>: Old.rank() — policies order",
        "<synthetic>: Both.rank() — policies order",
    ]

    good_agent = (
        "class Agent:\n"
        "    def _predict_totals(self, entries):\n"
        "        return predict_batch(flops=1.0)\n"
        "    def _handle_query(self, src, msg):\n"
        "        order = self.policy.order(entries, totals, 3)\n"
        "        if isinstance(msg, QueryRequest): ...\n"
    )
    assert agent_violations(good_agent, "<synthetic>") == []
    good_policies = (
        "class SchedulingPolicy:\n"
        "    def order(self, entries, totals, k): ...\n"
        "class Mct(SchedulingPolicy):\n"
        "    def order(self, entries, totals, k): ...\n"
    )
    assert policy_violations(good_policies, "<synthetic>") == []
