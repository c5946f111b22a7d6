"""Exception hierarchy for the NetSolve reproduction.

Every error raised by the public API derives from :class:`NetSolveError`,
so callers can catch one type at the boundary.  The hierarchy mirrors the
failure classes of the original system: problems that do not exist, servers
that cannot be found or that die mid-request, malformed problem description
files, and wire-protocol violations.
"""

from __future__ import annotations

__all__ = [
    "NetSolveError",
    "ProtocolError",
    "CodecError",
    "TransportError",
    "TransportClosed",
    "ProblemNotFoundError",
    "BadArgumentsError",
    "NoServerError",
    "ServerFailure",
    "RequestFailed",
    "MissingObjectError",
    "FarmNotFinished",
    "RequestNotFound",
    "PdlSyntaxError",
    "ComplexityError",
    "SimulationError",
    "ConfigError",
    "NumericsError",
    "SingularMatrixError",
    "ConvergenceError",
]


class NetSolveError(Exception):
    """Base class for all errors raised by this package."""


class ProtocolError(NetSolveError):
    """A peer violated the NetSolve wire protocol (unexpected message)."""


class CodecError(ProtocolError):
    """Malformed bytes on the wire: bad magic, truncated frame, bad tag."""


class TransportError(NetSolveError):
    """The underlying transport (simulated or TCP) failed."""


class TransportClosed(TransportError):
    """Operation attempted on a closed endpoint."""


class ProblemNotFoundError(NetSolveError):
    """No registered problem matches the requested name."""

    def __init__(self, name: str):
        super().__init__(f"no such problem: {name!r}")
        self.name = name


class BadArgumentsError(NetSolveError):
    """Client arguments do not match the problem's input specification."""


class NoServerError(NetSolveError):
    """The agent knows no live server able to solve the requested problem."""

    def __init__(self, problem: str):
        super().__init__(f"no server available for problem {problem!r}")
        self.problem = problem


class ServerFailure(NetSolveError):
    """A computational server crashed or became unreachable mid-request."""

    def __init__(self, server: str, detail: str = ""):
        msg = f"server {server!r} failed" + (f": {detail}" if detail else "")
        super().__init__(msg)
        self.server = server


class RequestFailed(NetSolveError):
    """A request exhausted all candidate servers (retries included)."""

    def __init__(self, request_id: int, detail: str = ""):
        msg = f"request {request_id} failed" + (f": {detail}" if detail else "")
        super().__init__(msg)
        self.request_id = request_id
        self.detail = detail


class MissingObjectError(NetSolveError):
    """A referenced key is not resident on the target server.

    The retryable half of the handle contract: the object was never
    stored there, expired, was evicted, or died with the process
    (``on_shutdown``).  Carried on the wire as
    ``SolveReply.error_kind == "missing_object"`` with the offending
    keys in ``SolveReply.missing``; a client holding the payload
    re-submits with the value inline instead of failing the request.
    """

    def __init__(self, *keys: str):
        names = ", ".join(repr(k) for k in keys) or "<unknown>"
        super().__init__(f"object(s) {names} not resident on this server")
        self.keys = tuple(keys)


class FarmNotFinished(NetSolveError):
    """A farm-wide aggregate was read before every instance completed."""

    def __init__(self, pending: tuple[int, ...]):
        ids = ", ".join(str(i) for i in pending)
        super().__init__(
            f"farm not finished: {len(pending)} instance(s) still "
            f"pending (request ids {ids})"
        )
        self.pending = tuple(pending)


class RequestNotFound(NetSolveError):
    """Probe/wait on an unknown or already-collected request handle."""


class PdlSyntaxError(NetSolveError):
    """Syntax error in a problem description file."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class ComplexityError(NetSolveError):
    """Invalid complexity expression, or evaluation with unbound symbols."""


class SimulationError(NetSolveError):
    """Internal inconsistency in the discrete-event simulation."""


class ConfigError(NetSolveError):
    """Invalid configuration value."""


class NumericsError(NetSolveError):
    """Base class for numerical-routine failures."""


class SingularMatrixError(NumericsError):
    """Matrix is singular to working precision."""


class ConvergenceError(NumericsError):
    """An iterative method failed to converge within its budget."""

    def __init__(self, method: str, iterations: int, residual: float | None = None):
        msg = f"{method} did not converge in {iterations} iterations"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        super().__init__(msg)
        self.method = method
        self.iterations = iterations
        self.residual = residual
