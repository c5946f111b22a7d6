"""Problem registry: names -> (spec, handler).

A handler is a plain Python callable ``handler(*coerced_inputs) ->
tuple_of_outputs`` (a single non-tuple return is wrapped).  Servers
install a registry at startup; the agent only ever sees the specs.

A problem may additionally carry a *batch handler* — ``batch(items) ->
list_of_results`` over a list of coerced input tuples — which the
server's micro-batching lane uses to run several queued same-problem
requests as one stacked numerics call.  Batch handlers must be
bit-identical to running the scalar handler per item; any batch-lane
failure falls back to per-item execution so one bad operand (say, a
singular matrix) only fails its own request.

A handler runs inside the process's interpreter lane
(:data:`repro.numerics.threads.INTERPRETER_LANE`) unless its problem is
registered with ``releases_gil=True``: kernels that keep the GIL gain
nothing from running side by side, and lose CPU to the convoy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import BadArgumentsError, ProblemNotFoundError
from ..numerics.threads import FREE_LANE, INTERPRETER_LANE
from .spec import CoercedArgs, ObjectKind, ProblemSpec, validate_inputs

__all__ = ["RegisteredProblem", "ProblemRegistry"]

Handler = Callable[..., Any]
#: batch lane: list of coerced input tuples -> list of per-item results
BatchHandler = Callable[[Sequence[Sequence[Any]]], Sequence[Any]]


@dataclass(frozen=True)
class RegisteredProblem:
    spec: ProblemSpec
    handler: Handler
    batch_handler: "BatchHandler | None" = None
    #: the kernels spend their time in native code with the GIL released,
    #: so they run in parallel across slots instead of in the lane
    releases_gil: bool = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def lane(self):
        """What a call of this problem's handlers holds while it runs."""
        return FREE_LANE if self.releases_gil else INTERPRETER_LANE


class ProblemRegistry:
    """Mapping of problem names to registered problems.

    Names are hierarchical by convention (``linsys/dgesv``); lookup is
    exact, and :meth:`search` supports prefix browsing the way the
    original client's problem browser did.
    """

    def __init__(self) -> None:
        self._problems: dict[str, RegisteredProblem] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        spec: ProblemSpec,
        handler: Handler,
        *,
        batch: "BatchHandler | None" = None,
        releases_gil: bool = False,
    ) -> RegisteredProblem:
        if spec.name in self._problems:
            raise BadArgumentsError(f"problem {spec.name!r} already registered")
        if not callable(handler):
            raise BadArgumentsError(f"handler for {spec.name!r} is not callable")
        if batch is not None and not callable(batch):
            raise BadArgumentsError(
                f"batch handler for {spec.name!r} is not callable"
            )
        reg = RegisteredProblem(spec, handler, batch, releases_gil)
        self._problems[spec.name] = reg
        return reg

    def unregister(self, name: str) -> None:
        if name not in self._problems:
            raise ProblemNotFoundError(name)
        del self._problems[name]

    # ------------------------------------------------------------------
    def get(self, name: str) -> RegisteredProblem:
        try:
            return self._problems[name]
        except KeyError:
            raise ProblemNotFoundError(name) from None

    def spec(self, name: str) -> ProblemSpec:
        return self.get(name).spec

    def __contains__(self, name: str) -> bool:
        return name in self._problems

    def __len__(self) -> int:
        return len(self._problems)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._problems))

    def names(self) -> list[str]:
        return sorted(self._problems)

    def specs(self) -> list[ProblemSpec]:
        return [self._problems[n].spec for n in self.names()]

    def search(self, prefix: str) -> list[str]:
        """Problem names starting with ``prefix`` (the problem browser)."""
        return [n for n in self.names() if n.startswith(prefix)]

    def subset(self, names: Iterable[str]) -> "ProblemRegistry":
        """A new registry restricted to ``names`` (for partial servers)."""
        out = ProblemRegistry()
        for name in names:
            reg = self.get(name)
            out.register(
                reg.spec, reg.handler, batch=reg.batch_handler,
                releases_gil=reg.releases_gil,
            )
        return out

    def has_batch(self, name: str) -> bool:
        """True when ``name`` is registered with a batch handler."""
        reg = self._problems.get(name)
        return reg is not None and reg.batch_handler is not None

    # ------------------------------------------------------------------
    def execute(self, name: str, args: Sequence[Any]) -> tuple:
        """Validate ``args`` and run the handler; returns the output tuple.

        ``args`` that ``validate_inputs`` already coerced against this
        problem's spec (a :class:`CoercedArgs`) are not validated twice.
        Outputs are checked against the spec (count, kind rank, dtype)
        so a buggy handler fails on the server, loudly, rather than
        shipping malformed objects back to the client.
        """
        reg = self.get(name)
        coerced = _coerced(reg.spec, args)
        with reg.lane:
            result = reg.handler(*coerced)
        return _check_outputs(name, reg.spec, result)

    def execute_batch(self, name: str, args_list: Sequence[Sequence[Any]]) -> list:
        """Run several same-problem requests through the batch lane.

        Returns one entry per item: the checked output tuple on success,
        or the exception that item raised.  The stacked call is tried
        first; any batch-lane failure (a singular member, a shape the
        kernel rejects) degrades to per-item :meth:`execute` so healthy
        members still complete.  The lane is held around each handler
        call, never across the fallback's own :meth:`execute` calls.
        """
        reg = self.get(name)
        if reg.batch_handler is None:
            raise BadArgumentsError(f"problem {name!r} has no batch handler")
        if not args_list:
            return []
        try:
            coerced_items = [_coerced(reg.spec, args) for args in args_list]
            with reg.lane:
                results = reg.batch_handler(coerced_items)
            if len(results) != len(args_list):
                raise BadArgumentsError(
                    f"problem {name!r}: batch handler returned "
                    f"{len(results)} result(s) for {len(args_list)} item(s)"
                )
            return [_check_outputs(name, reg.spec, r) for r in results]
        except Exception:
            out: list = []
            for args in args_list:
                try:
                    out.append(self.execute(name, args))
                except Exception as exc:
                    out.append(exc)
            return out


def _coerced(spec: ProblemSpec, args: Sequence[Any]) -> Sequence[Any]:
    """``args`` validated against ``spec`` — by the caller or here."""
    if type(args) is CoercedArgs and args.spec is spec:
        return args
    return validate_inputs(spec, args)[0]


def _check_outputs(name: str, spec: ProblemSpec, result: Any) -> tuple:
    """Check one handler result against the spec (count, kind, dtype)."""
    if not isinstance(result, tuple):
        result = (result,)
    out_specs = spec.outputs
    if len(result) != len(out_specs):
        raise BadArgumentsError(
            f"problem {name!r}: handler returned {len(result)} output(s), "
            f"spec declares {len(out_specs)}"
        )
    checked = []
    for obj, value in zip(out_specs, result):
        if obj.kind is ObjectKind.STRING:
            if not isinstance(value, str):
                raise BadArgumentsError(
                    f"problem {name!r}: output {obj.name!r} should be str"
                )
            checked.append(value)
            continue
        import numpy as np

        arr = np.asarray(value, dtype=obj.dtype)
        rank = obj.kind.rank
        expected_rank = 0 if rank is None else rank
        if arr.ndim != expected_rank:
            raise BadArgumentsError(
                f"problem {name!r}: output {obj.name!r} has rank "
                f"{arr.ndim}, expected {expected_rank}"
            )
        checked.append(arr[()] if expected_rank == 0 else arr)
    return tuple(checked)
