"""Custom lint: every config knob earns its place.

A ``*Config`` field that no code reads is a promise the program does not
keep, and one that nothing ever sets is behaviour nobody has seen run.
Both kinds piled up: ``SimConfig.horizon`` was validated and never read
(nothing stopped the loop at it), and ``AgentConfig.sync_pull_timeout``
/ ``sync_pull_retries`` were read but set by no test, bench or example,
so only their defaults ever ran (they are module constants in
``core/agent.py`` now).  This check keeps new ones out:

* every field of every ``*Config`` dataclass in ``repro/config.py`` is
  read — an attribute of that name is loaded somewhere under ``src/``
  outside ``config.py``;
* and set — a keyword argument of that name is passed somewhere under
  ``tests/``, ``benchmarks/``, ``examples/`` or ``perf/``.

Both walks are by name, not by type, so they can be fooled by an
unrelated attribute or keyword of the same name; they are a floor, not
a proof.  ``ALLOWED`` is the short list of fields that may miss the
second rule, each with its reason.
"""

import ast
import dataclasses
from pathlib import Path

from repro import config

ROOT = Path(__file__).resolve().parents[1]
SETTERS = ("tests", "benchmarks", "examples", "perf")

#: field -> why it may go unset by every test, bench and example
ALLOWED: dict[str, str] = {}


def config_fields() -> dict[str, str]:
    """``"Class.field" -> field`` for every ``*Config`` dataclass."""
    return {
        f"{cls.__name__}.{f.name}": f.name
        for cls in vars(config).values()
        if isinstance(cls, type) and cls.__name__.endswith("Config")
        and dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
    }


def names_in(paths, node_type, attr) -> set[str]:
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, node_type):
                found.add(getattr(node, attr))
    return found


def test_every_config_field_is_read_and_set():
    src = [p for p in (ROOT / "src").rglob("*.py") if p.name != "config.py"]
    read = names_in(src, ast.Attribute, "attr")
    setters = [p for d in SETTERS for p in (ROOT / d).rglob("*.py")]
    set_ = names_in(setters, ast.keyword, "arg")
    fields = config_fields()
    assert len(fields) > 30, "the walk found too few config fields"
    unread = sorted(k for k, name in fields.items() if name not in read)
    unset = sorted(k for k, name in fields.items()
                   if name not in set_ and k not in ALLOWED)
    assert not unread, f"config fields nothing under src/ reads: {unread}"
    assert not unset, (
        f"config fields no test, bench, example or perf script sets: "
        f"{unset} (give each a test that shows what it does, delete "
        f"it, or allow it with a reason)"
    )
    stale = sorted(k for k in ALLOWED
                   if k not in fields or fields[k] in set_)
    assert not stale, f"allowlist entries no longer needed: {stale}"


def test_lint_actually_catches_an_unread_and_an_unset_field():
    """Guard the guard: the walks must see what they claim to."""
    probe = ast.parse(
        "cfg.max_queue\nServerConfig(max_queue=2)\n"
    )
    attrs = {n.attr for n in ast.walk(probe) if isinstance(n, ast.Attribute)}
    keywords = {n.arg for n in ast.walk(probe) if isinstance(n, ast.keyword)}
    assert attrs == {"max_queue"} and keywords == {"max_queue"}
    fields = config_fields()
    assert "SimConfig.horizon" not in fields
    assert "AgentConfig.sync_pull_timeout" not in fields
