"""Typed problem and object specifications.

A :class:`ProblemSpec` is the contract between client, agent and server:
it names the problem, types its input and output objects, and carries the
complexity expression.  Object dimensions are written in terms of *size
symbols* (``n``, ``m``, ...) which are bound from the concrete arguments
at call time; the same bindings feed the complexity expression and the
transfer-size model, so the agent can predict both compute and network
cost from the client's arguments alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import BadArgumentsError, ComplexityError
from .complexity import Complexity

__all__ = [
    "ObjectKind",
    "ObjectSpec",
    "SizeRule",
    "ProblemSpec",
    "CoercedArgs",
    "validate_inputs",
    "bind_output_env",
]

_DTYPES = {"float64", "int64", "complex128"}
_SCALAR_OVERHEAD_BYTES = 8
_STRING_NOMINAL_BYTES = 64


class ObjectKind(enum.Enum):
    """The NetSolve object taxonomy."""

    MATRIX = "matrix"
    VECTOR = "vector"
    SCALAR = "scalar"
    STRING = "string"

    @property
    def rank(self) -> int | None:
        if self is ObjectKind.MATRIX:
            return 2
        if self is ObjectKind.VECTOR:
            return 1
        return None


# A dimension is either a size symbol ("n"), or a fixed integer.
Dim = "str | int"


@dataclass(frozen=True)
class SizeRule:
    """Binds a size symbol from a scalar input's *value* (e.g. ``nsteps``)."""

    symbol: str

    def __post_init__(self) -> None:
        if not self.symbol.isidentifier():
            raise ComplexityError(f"bad size symbol {self.symbol!r}")


@dataclass(frozen=True)
class ObjectSpec:
    """One typed input or output object.

    Parameters
    ----------
    name:
        Object name within the problem (for messages and PDL files).
    kind:
        MATRIX, VECTOR, SCALAR or STRING.
    dims:
        For matrices ``(rows, cols)`` and vectors ``(length,)``; each
        entry is a size symbol or a fixed int.  Must be empty for
        scalars/strings.
    dtype:
        ``float64`` (default), ``int64`` or ``complex128``; ignored for
        strings.
    binds:
        Optional :class:`SizeRule`: for a SCALAR input, bind this size
        symbol to the scalar's (integral) value.
    description:
        Human-readable one-liner, shown by the client's problem browser.
    """

    name: str
    kind: ObjectKind
    dims: tuple = ()
    dtype: str = "float64"
    binds: SizeRule | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise BadArgumentsError(f"bad object name {self.name!r}")
        if self.dtype not in _DTYPES:
            raise BadArgumentsError(
                f"object {self.name!r}: unsupported dtype {self.dtype!r}"
            )
        rank = self.kind.rank
        if rank is not None and len(self.dims) != rank:
            raise BadArgumentsError(
                f"object {self.name!r}: {self.kind.value} needs {rank} dims, "
                f"got {len(self.dims)}"
            )
        if rank is None and self.dims:
            raise BadArgumentsError(
                f"object {self.name!r}: {self.kind.value} takes no dims"
            )
        for d in self.dims:
            ok = (isinstance(d, int) and d > 0) or (
                isinstance(d, str) and d.isidentifier()
            )
            if not ok:
                raise BadArgumentsError(
                    f"object {self.name!r}: bad dimension {d!r}"
                )
        if self.binds is not None and self.kind is not ObjectKind.SCALAR:
            raise BadArgumentsError(
                f"object {self.name!r}: only scalars can bind size symbols"
            )

    # ------------------------------------------------------------------
    @property
    def itemsize(self) -> int:
        return int(np.dtype(self.dtype).itemsize)

    def size_symbols(self) -> frozenset[str]:
        syms = {d for d in self.dims if isinstance(d, str)}
        if self.binds is not None:
            syms.add(self.binds.symbol)
        return frozenset(syms)

    def nbytes(self, env: Mapping[str, float]) -> int:
        """Wire size of this object under symbol bindings ``env``."""
        if self.kind is ObjectKind.SCALAR:
            return _SCALAR_OVERHEAD_BYTES
        if self.kind is ObjectKind.STRING:
            return _STRING_NOMINAL_BYTES
        count = 1.0
        for d in self.dims:
            value = float(d) if isinstance(d, int) else float(env[d])
            count *= value
        return int(math.ceil(count)) * self.itemsize


@dataclass(frozen=True)
class ProblemSpec:
    """A named numerical service with typed I/O and a cost model."""

    name: str
    inputs: tuple[ObjectSpec, ...]
    outputs: tuple[ObjectSpec, ...]
    complexity: Complexity
    description: str = ""
    #: free-form library attribution, e.g. "LAPACK" — informational
    provenance: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise BadArgumentsError(f"bad problem name {self.name!r}")
        if not self.outputs:
            raise BadArgumentsError(f"problem {self.name!r} has no outputs")
        seen: set[str] = set()
        for obj in (*self.inputs, *self.outputs):
            if obj.name in seen:
                raise BadArgumentsError(
                    f"problem {self.name!r}: duplicate object {obj.name!r}"
                )
            seen.add(obj.name)
        bound = frozenset().union(
            *(o.size_symbols() for o in self.inputs)
        ) if self.inputs else frozenset()
        missing = self.complexity.symbols - bound
        if missing:
            raise ComplexityError(
                f"problem {self.name!r}: complexity uses unbound "
                f"symbols {sorted(missing)}"
            )
        out_syms = frozenset().union(*(o.size_symbols() for o in self.outputs))
        missing_out = out_syms - bound
        if missing_out:
            raise BadArgumentsError(
                f"problem {self.name!r}: output dims use unbound "
                f"symbols {sorted(missing_out)}"
            )

    # ------------------------------------------------------------------
    def input_bytes(self, env: Mapping[str, float]) -> int:
        return sum(o.nbytes(env) for o in self.inputs)

    def output_bytes(self, env: Mapping[str, float]) -> int:
        return sum(o.nbytes(env) for o in self.outputs)

    def flops(self, env: Mapping[str, float]) -> float:
        return self.complexity.flops(env)

    def signature(self) -> str:
        """Human-readable ``name(in...) -> (out...)`` line."""
        ins = ", ".join(
            f"{o.name}:{o.kind.value}" for o in self.inputs
        )
        outs = ", ".join(f"{o.name}:{o.kind.value}" for o in self.outputs)
        return f"{self.name}({ins}) -> ({outs})"


# ----------------------------------------------------------------------
# argument validation & size binding
# ----------------------------------------------------------------------
def _coerce(obj: ObjectSpec, value: Any) -> Any:
    if obj.kind is ObjectKind.STRING:
        if not isinstance(value, str):
            raise BadArgumentsError(
                f"argument {obj.name!r}: expected str, got {type(value).__name__}"
            )
        return value
    if obj.kind is ObjectKind.SCALAR:
        if isinstance(value, (bool, str, bytes)) or value is None:
            raise BadArgumentsError(
                f"argument {obj.name!r}: expected a number, got {value!r}"
            )
        try:
            arr = np.asarray(value, dtype=obj.dtype)
        except (TypeError, ValueError) as exc:
            raise BadArgumentsError(
                f"argument {obj.name!r}: not coercible to {obj.dtype}: {exc}"
            ) from None
        if arr.ndim != 0:
            raise BadArgumentsError(
                f"argument {obj.name!r}: expected a scalar, got shape {arr.shape}"
            )
        return arr[()]
    # MATRIX / VECTOR
    try:
        arr = np.asarray(value, dtype=obj.dtype)
    except (TypeError, ValueError) as exc:
        raise BadArgumentsError(
            f"argument {obj.name!r}: not coercible to {obj.dtype}: {exc}"
        ) from None
    rank = obj.kind.rank
    if arr.ndim != rank:
        raise BadArgumentsError(
            f"argument {obj.name!r}: expected rank-{rank} array, "
            f"got shape {arr.shape}"
        )
    return np.ascontiguousarray(arr)


class CoercedArgs(list):
    """The argument list :func:`validate_inputs` returns, remembering
    the spec it was checked against — so a later hop handed the list
    (``ProblemRegistry.execute``) can see the work is done instead of
    repeating it.  A plain list of the same values makes no such claim
    and validates again."""

    __slots__ = ("spec",)


def validate_inputs(
    spec: ProblemSpec, args: Sequence[Any]
) -> tuple[CoercedArgs, dict[str, int]]:
    """Type-check/coerce ``args`` against ``spec`` and bind size symbols.

    Returns the coerced argument list (a :class:`CoercedArgs`) and the
    ``{symbol: size}`` environment.  Raises :class:`BadArgumentsError`
    on any mismatch, including inconsistent shared dimensions (an
    ``n x n`` matrix next to a length-``m`` vector claiming the same
    ``n``).

    An argument may be a :class:`~repro.protocol.messages.DataHandle` to
    a server-resident object: the value itself is not in hand, so the
    handle passes through uncoerced, its carried ``shape`` binding the
    dimension symbols a concrete array would have bound (handles without
    shape metadata bind nothing — any symbols they alone would pin stay
    unbound and the server re-validates after resolving residents).
    """
    from ..protocol.messages import DataHandle
    if len(args) != len(spec.inputs):
        raise BadArgumentsError(
            f"problem {spec.name!r} takes {len(spec.inputs)} argument(s), "
            f"got {len(args)}"
        )
    env: dict[str, int] = {}
    coerced = CoercedArgs()
    coerced.spec = spec

    def bind(symbol: str, value: int, what: str) -> None:
        prior = env.get(symbol)
        if prior is None:
            env[symbol] = value
        elif prior != value:
            raise BadArgumentsError(
                f"problem {spec.name!r}: size symbol {symbol!r} bound to "
                f"{prior} but {what} implies {value}"
            )

    for obj, raw in zip(spec.inputs, args):
        if isinstance(raw, DataHandle):
            coerced.append(raw)
            shape = tuple(raw.shape or ())
            if (
                obj.kind in (ObjectKind.MATRIX, ObjectKind.VECTOR)
                and len(shape) == obj.kind.rank
            ):
                for dim, actual in zip(obj.dims, shape):
                    if isinstance(dim, int):
                        if actual != dim:
                            raise BadArgumentsError(
                                f"argument {obj.name!r}: dimension fixed at "
                                f"{dim}, got {actual}"
                            )
                    else:
                        bind(dim, int(actual), f"argument {obj.name!r}")
            continue
        value = _coerce(obj, raw)
        coerced.append(value)
        if obj.kind in (ObjectKind.MATRIX, ObjectKind.VECTOR):
            for dim, actual in zip(obj.dims, value.shape):
                if isinstance(dim, int):
                    if actual != dim:
                        raise BadArgumentsError(
                            f"argument {obj.name!r}: dimension fixed at "
                            f"{dim}, got {actual}"
                        )
                else:
                    bind(dim, int(actual), f"argument {obj.name!r}")
        elif obj.binds is not None:
            as_int = int(value)
            if as_int != value or as_int <= 0:
                raise BadArgumentsError(
                    f"argument {obj.name!r}: must be a positive integer to "
                    f"bind size symbol {obj.binds.symbol!r}, got {value!r}"
                )
            bind(obj.binds.symbol, as_int, f"argument {obj.name!r}")
    return coerced, env


def bind_output_env(
    spec: ProblemSpec, env: Mapping[str, int]
) -> dict[str, int]:
    """Restrict ``env`` to the symbols the outputs need (defensive copy)."""
    needed = frozenset().union(*(o.size_symbols() for o in spec.outputs))
    try:
        return {s: int(env[s]) for s in needed}
    except KeyError as exc:
        raise BadArgumentsError(
            f"problem {spec.name!r}: output symbol {exc.args[0]!r} unbound"
        ) from None
