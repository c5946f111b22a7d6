"""The paper's contribution: the NetSolve client-agent-server system.

* :mod:`repro.core.predictor` — the agent's completion-time model,
* :mod:`repro.core.registry` — the agent's server table,
* :mod:`repro.core.scheduler` — server-selection policies (MCT & baselines),
* :mod:`repro.core.workload` — the hysteretic workload-broadcast policy,
* :mod:`repro.core.agent` — the resource broker,
* :mod:`repro.core.server` — the computational server,
* :mod:`repro.core.client` — the client library (blocking & non-blocking),
* :mod:`repro.core.request` — request lifecycle records and timelines,
* :mod:`repro.core.faults` — failure injection for experiments.
"""

from .request import RequestStatus, AttemptRecord, RequestRecord
from .predictor import (
    LinkEstimate,
    NetworkInfo,
    StaticNetworkInfo,
    LearnedNetworkInfo,
    Prediction,
    effective_mflops,
    predict,
)
from .registry import ServerEntry, ServerTable
from .scheduler import (
    SchedulingPolicy,
    MinimumCompletionTime,
    RandomPolicy,
    RoundRobinPolicy,
    FastestPeakPolicy,
    make_policy,
)
from .workload import WorkloadReporter
from .agent import Agent
from .server import ComputationalServer
from .client import NetSolveClient, RequestHandle
from .faults import FailureInjector

__all__ = [
    "RequestStatus",
    "AttemptRecord",
    "RequestRecord",
    "LinkEstimate",
    "NetworkInfo",
    "StaticNetworkInfo",
    "LearnedNetworkInfo",
    "Prediction",
    "effective_mflops",
    "predict",
    "ServerEntry",
    "ServerTable",
    "SchedulingPolicy",
    "MinimumCompletionTime",
    "RandomPolicy",
    "RoundRobinPolicy",
    "FastestPeakPolicy",
    "make_policy",
    "WorkloadReporter",
    "Agent",
    "ComputationalServer",
    "NetSolveClient",
    "RequestHandle",
    "FailureInjector",
]
