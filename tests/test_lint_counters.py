"""Custom lint: ONE counting mechanism.

Counts used to be kept twice — a bare int on the component and a
registry ``Counter`` behind ``if self._metrics is not None:`` — with an
equivalence test holding the pair together, gauges kept in step by hand
(one went stale) and four ``_XMetrics`` bundles doing the wiring.  Now a
fact is a plain int on its owner, declared once in the owner class's
``METRICS`` table, and the registry reads it.  This check keeps the
second mechanism from growing back under ``src/repro/core`` and
``src/repro/protocol``:

* no None-guard on a registry or an instrument — nothing compares a
  name containing ``metrics``, or an attribute some ``METRICS`` row
  declares, against ``None`` (``track`` in ``trace/instruments.py`` is
  the one place that knows whether anybody is watching);
* no pushed counts — no ``.inc()`` / ``.dec()`` call, no ``.counter()``
  / ``.gauge()`` get-or-create, no ``Counter(...)`` / ``Gauge(...)``
  construction: a count is ``self.x += 1`` and nothing else;
* the bundles, the hand-kept gauge refresh and the pool-saturation
  special case stay deleted;
* every declared metric name is declared once (the two transports share
  the very same wire rows), and every declaration has its row — name,
  attribute, aggregation — in the table in ``docs/operations.md``, which
  in turn lists nothing that is not declared.

The walk is syntactic, like ``test_lint_server_pipeline``.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro.core
import repro.protocol

ROOT = Path(__file__).resolve().parents[1]
LINTED = sorted(
    path
    for package in ("core", "protocol")
    for path in (ROOT / "src" / "repro" / package).glob("*.py")
)
OPERATIONS = ROOT / "docs" / "operations.md"

PUSH_METHODS = {"inc", "dec", "counter", "gauge"}
PUSH_CLASSES = {"Counter", "Gauge"}
DELETED = {
    "_ServerMetrics", "_AgentMetrics", "_ClientMetrics", "_WireMetrics",
    "_update_server_gauges", "_pool_saturated", "_on_pool_saturated",
}


def owner_classes() -> list[type]:
    """Every class under core/ and protocol/ with a METRICS table of its own."""
    found = []
    for package in (repro.core, repro.protocol):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for obj in vars(module).values():
                if (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and "METRICS" in vars(obj)
                ):
                    found.append(obj)
    return found


def declared_rows() -> list:
    """Distinct METRICS rows (a row two owners share counts once)."""
    rows = []
    for cls in owner_classes():
        for row in cls.METRICS:
            if not any(row is seen for seen in rows):
                rows.append(row)
    return rows


def _identifier(node) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def violations_in(source: str, filename: str, instrument_attrs=()) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Constant) and s.value is None
                   for s in sides):
                for side in sides:
                    name = _identifier(side)
                    if "metrics" in name.lower() or name in instrument_attrs:
                        found.append(
                            f"{where}: None-guard on {name!r} — count "
                            "unconditionally, track() decides who watches"
                        )
        elif isinstance(node, ast.Call):
            name = _identifier(node.func)
            if isinstance(node.func, ast.Attribute) and name in PUSH_METHODS:
                found.append(
                    f"{where}: .{name}() pushes a count into a registry — "
                    "bump a plain int the METRICS table declares"
                )
            elif name in PUSH_CLASSES:
                found.append(f"{where}: {name}() constructed outside trace/")
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.Name, ast.Attribute)
        ):
            name = getattr(node, "name", "") or _identifier(node)
            if name in DELETED:
                found.append(f"{where}: {name} is back")
    return found


def test_core_and_protocol_count_one_way():
    assert len(LINTED) > 10, "source tree moved?"
    attrs = {row.attr.rsplit(".", 1)[-1] for row in declared_rows()}
    failures = []
    for path in LINTED:
        failures += violations_in(
            path.read_text(encoding="utf-8"),
            str(path.relative_to(ROOT)), attrs,
        )
    assert not failures, "\n".join(failures)


def test_declared_names_are_unique_and_well_formed():
    owners = owner_classes()
    assert {cls.__name__ for cls in owners} == {
        "ComputationalServer", "Agent", "NetSolveClient",
        "SimTransport", "TcpTransport",
    }
    rows = declared_rows()
    names = [row.name for row in rows]
    assert len(names) == len(set(names)), sorted(
        n for n in names if names.count(n) > 1
    )
    for row in rows:
        assert re.fullmatch(r"(client|agent|server|wire)\.[a-z_]+", row.name)
        assert row.kind in ("counter", "gauge", "histogram"), row
        assert row.agg in (sum, max), row
        assert row.help, row
        # a histogram is pushed, never aggregated; only gauges take max
        assert row.agg is sum or row.kind == "gauge", row


def test_operations_table_lists_exactly_the_declared_instruments():
    table = {}
    for line in OPERATIONS.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and re.fullmatch(r"`[a-z]+\.[a-z_]+`", cells[0]):
            assert cells[0] not in table, f"{cells[0]} listed twice"
            table[cells[0].strip("`")] = cells
    rows = declared_rows()
    assert set(table) == {row.name for row in rows}
    for row in rows:
        _name, kind, attr, agg, what = table[row.name]
        assert kind == row.kind, row.name
        assert attr == f"`{row.attr}`", row.name
        want = "—" if row.kind == "histogram" else row.agg.__name__
        assert agg == want, row.name
        assert what == row.help, row.name


def test_lint_actually_catches_the_banned_patterns():
    """Guard the guard: the checker must flag every forbidden shape."""
    bad = (
        "class _ServerMetrics:\n"
        "    def __init__(self, registry):\n"
        "        self.ok = registry.counter('server.ok')\n"
        "class Server:\n"
        "    def _settle(self):\n"
        "        self.requests_served += 1\n"
        "        if self._metrics is not None:\n"
        "            self._metrics.ok.inc()\n"
        "    def _dequeued(self, m):\n"
        "        if m is None or self._queue_wait_seconds is None:\n"
        "            return\n"
        "        self._depth.dec()\n"
        "    def _wire(self, metrics):\n"
        "        if metrics is None:\n"
        "            return\n"
        "        self._sheds = Counter('server.sheds')\n"
        "        self._update_server_gauges()\n"
    )
    found = violations_in(bad, "<synthetic>", {"_queue_wait_seconds"})
    for needle in (
        "_ServerMetrics is back",
        ".counter() pushes",
        "None-guard on '_metrics'",
        ".inc() pushes",
        "None-guard on '_queue_wait_seconds'",
        ".dec() pushes",
        "None-guard on 'metrics'",
        "Counter() constructed",
        "_update_server_gauges is back",
    ):
        assert any(needle in f for f in found), (needle, found)

    good = (
        "class Server:\n"
        "    METRICS = (Metric('server.ok', 'requests_served', 'ok'),)\n"
        "    def __init__(self, metrics=None):\n"
        "        track(self, metrics)\n"
        "    def _settle(self, elapsed):\n"
        "        self.requests_served += 1\n"
        "        self._compute_seconds.observe(elapsed)\n"
        "        if self.trace is not None:\n"
        "            self.trace.log('done')\n"
    )
    assert violations_in(good, "<synthetic>", {"_compute_seconds"}) == []
