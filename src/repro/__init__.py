"""NetSolve reproduction: a network server for computational science.

A faithful, laptop-scale rebuild of the system described in

    Casanova & Dongarra, "NetSolve: A Network Server for Solving
    Computational Science Problems", Supercomputing '96.

Quick start (simulated deployment)::

    import numpy as np
    from repro import standard_testbed

    tb = standard_testbed(n_servers=4, seed=0)
    tb.settle()
    a = np.random.default_rng(0).standard_normal((256, 256)) + 256 * np.eye(256)
    b = np.ones(256)
    (x,) = tb.solve("c0", "linsys/dgesv", [a, b])

See :mod:`repro.core` for the client/agent/server system,
:mod:`repro.simnet` for the simulation substrate, :mod:`repro.problems`
for problem descriptions, :mod:`repro.numerics` for the numerical
library, and :mod:`repro.capi` / :mod:`repro.matlab` for the
C-flavoured and MATLAB-flavoured client interfaces.
"""

from . import capi, config, errors, farming, matlab, numerics, problems
from .config import AgentConfig, ClientConfig, ServerConfig, SimConfig, WorkloadPolicy
from .core import (
    Agent,
    ComputationalServer,
    FailureInjector,
    NetSolveClient,
    RequestHandle,
    RequestStatus,
)
from .errors import NetSolveError
from .farming import FarmResult, submit_farm
from .matlab import MatlabNetSolve
from .problems import builtin_registry
from .testbed import (
    AGENT_ADDRESS,
    ClientDef,
    HostDef,
    LinkDef,
    ServerDef,
    Testbed,
    build_testbed,
    client_address,
    server_address,
    standard_testbed,
)

__version__ = "1.0.0"

__all__ = [
    "AgentConfig",
    "ClientConfig",
    "ServerConfig",
    "SimConfig",
    "WorkloadPolicy",
    "Agent",
    "ComputationalServer",
    "NetSolveClient",
    "RequestHandle",
    "RequestStatus",
    "FailureInjector",
    "NetSolveError",
    "FarmResult",
    "submit_farm",
    "MatlabNetSolve",
    "builtin_registry",
    "Testbed",
    "build_testbed",
    "standard_testbed",
    "HostDef",
    "ServerDef",
    "ClientDef",
    "LinkDef",
    "AGENT_ADDRESS",
    "server_address",
    "client_address",
    "capi",
    "config",
    "errors",
    "farming",
    "matlab",
    "numerics",
    "problems",
    "__version__",
]
