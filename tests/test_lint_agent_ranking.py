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
  is handed, it is not handed a way to predict.

The walk is syntactic, like ``test_lint_server_pipeline``.
"""

import ast
from pathlib import Path

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
AGENT = CORE / "agent.py"
SCHEDULER = CORE / "scheduler.py"


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
