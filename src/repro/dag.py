"""Request DAGs: a dependency graph of solves, run by the client.

A graph is a list of node dicts — ``{"id", "problem", "inputs",
"keep", "emit"}`` — whose inputs may be values, :class:`DataHandle`
stubs, or :class:`NodeOutput` references to an *earlier* node's output.
:meth:`~repro.core.client.NetSolveClient.submit_dag` runs it as plain
pinned submits: each node goes out once its predecessors have answered,
with every edge replaced by the predecessor's kept output (a handle, so
the data never leaves the server), and independent nodes in flight at
the same time.  :class:`DagBuilder` assembles the list; :func:`check_node`
is the one validity rule both apply.  Because a reference may only name
a node defined before it, a graph is acyclic by construction, and a bad
graph is refused before anything hits the wire.

    dag = DagBuilder()
    solve = dag.node("solve", "linsys/dgesv", [a_handle, b], keep=True)
    norm = dag.node("norm", "blas/ddot", [solve.output(0), solve.output(0)],
                    emit=True)
    outputs = wait(client.submit_dag(dag.build(), address=server))

``keep=True`` leaves a node's outputs resident on the server (handles,
fetchable later); ``emit=True`` marks whose outputs the graph answers
with (default: the graph's terminal nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Sequence

from .errors import NetSolveError

__all__ = [
    "DagBuilder", "DagNode", "NodeDone", "NodeOutput", "check_graph",
    "check_node", "node_refs",
]


@dataclass(frozen=True)
class NodeOutput:
    """A node input naming output ``index`` of the earlier node ``node``."""

    node: str
    index: int = 0


@dataclass(frozen=True)
class NodeDone:
    """One node of a running graph settled (handed to ``on_node``)."""

    node: str
    ok: bool
    detail: str = ""
    compute_seconds: float = 0.0
    #: True when the node was answered from a result cache
    cached: bool = False
    #: nodes still unsettled after this one
    remaining: int = 0


def node_refs(inputs: Sequence[Any]) -> set[str]:
    """The ids of the nodes that ``inputs`` reference."""
    return {value.node for value in inputs if isinstance(value, NodeOutput)}


def check_node(node_id: Any, problem: Any, inputs: Sequence[Any],
               defined: Collection[str]) -> None:
    """Refuse a node that has no id or problem, reuses an id in
    ``defined``, or references a node not in ``defined`` (a forward,
    unknown or self reference — which is what keeps graphs acyclic)."""
    if not node_id or not isinstance(node_id, str):
        raise NetSolveError("dag node needs a non-empty string id")
    if node_id in defined:
        raise NetSolveError(f"duplicate dag node id {node_id!r}")
    if not problem or not isinstance(problem, str):
        raise NetSolveError(f"dag node {node_id!r} needs a problem name")
    unknown = node_refs(inputs) - set(defined)
    if unknown:
        raise NetSolveError(
            f"dag node {node_id!r} references {min(unknown)!r}, which is "
            f"not defined yet (define dependencies first)"
        )


class DagNode:
    """One defined node; hand its :meth:`output` to later nodes."""

    __slots__ = ("id", "problem")

    def __init__(self, node_id: str, problem: str):
        self.id = node_id
        self.problem = problem

    def output(self, index: int = 0) -> NodeOutput:
        """Reference this node's ``index``-th output."""
        if index < 0:
            raise NetSolveError(f"node {self.id!r}: output index must be >= 0")
        return NodeOutput(node=self.id, index=index)


class DagBuilder:
    """Accumulates nodes in dependency order."""

    def __init__(self):
        self._nodes: dict[str, dict] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def node(
        self,
        node_id: str,
        problem: str,
        inputs: Sequence[Any] = (),
        *,
        keep: bool = False,
        emit: bool = False,
    ) -> DagNode:
        """Define a node; returns a :class:`DagNode` whose outputs later
        nodes can reference.  Inputs may be values, handles, or
        ``NodeOutput`` references to *already defined* nodes — anything
        else raises here, at the line that wrote it."""
        inputs = tuple(inputs)
        check_node(node_id, problem, inputs, self._nodes)
        self._nodes[node_id] = {
            "id": node_id,
            "problem": problem,
            "inputs": inputs,
            "keep": bool(keep),
            "emit": bool(emit),
        }
        return DagNode(node_id, problem)

    def build(self) -> tuple[dict, ...]:
        """The validated node list, ready for ``submit_dag``."""
        if not self._nodes:
            raise NetSolveError("dag has no nodes")
        return tuple(dict(node) for node in self._nodes.values())


def check_graph(nodes: Sequence[dict]) -> tuple[dict, ...]:
    """The validated, normalized form of a raw node list: the builder's
    rules, applied to nodes that did not come from one."""
    builder = DagBuilder()
    for raw in nodes:
        if not isinstance(raw, dict):
            raise NetSolveError("dag node is not a mapping")
        builder.node(raw.get("id"), raw.get("problem"),
                     raw.get("inputs") or (), keep=bool(raw.get("keep")),
                     emit=bool(raw.get("emit")))
    return builder.build()
