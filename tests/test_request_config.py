"""Unit tests for request records, configs and the error hierarchy."""

import pytest

from repro import config
from repro.core.request import AttemptRecord, RequestRecord, RequestStatus
from repro.errors import (
    BadArgumentsError,
    CodecError,
    ComplexityError,
    ConfigError,
    ConvergenceError,
    NetSolveError,
    NoServerError,
    NumericsError,
    PdlSyntaxError,
    ProblemNotFoundError,
    ProtocolError,
    RequestFailed,
    ServerFailure,
    SimulationError,
    SingularMatrixError,
    TransportClosed,
    TransportError,
)


# ----------------------------------------------------------------------
# RequestRecord derived quantities
# ----------------------------------------------------------------------
def test_fresh_record_has_no_derived_times():
    record = RequestRecord(request_id=1, problem="p", sizes={})
    assert record.negotiation_seconds is None
    assert record.total_seconds is None
    assert record.successful_attempt is None
    assert record.compute_seconds is None
    assert record.transfer_seconds is None
    assert record.server_id is None
    assert record.retries == 0
    assert not record.status.terminal


def test_record_timeline_math():
    record = RequestRecord(request_id=1, problem="p", sizes={"n": 4},
                           t_submit=10.0)
    record.t_query_sent = 10.1
    record.t_candidates = 10.3
    record.attempts.append(
        AttemptRecord("s0", "addr", predicted_seconds=2.0, t_sent=10.3,
                      t_end=13.3, outcome="ok", compute_seconds=2.0)
    )
    record.t_done = 13.3
    record.status = RequestStatus.DONE
    assert record.negotiation_seconds == pytest.approx(0.2)
    assert record.total_seconds == pytest.approx(3.3)
    assert record.compute_seconds == pytest.approx(2.0)
    assert record.transfer_seconds == pytest.approx(1.0)
    assert record.server_id == "s0"
    assert record.status.terminal


def test_record_retry_accounting():
    record = RequestRecord(request_id=2, problem="p", sizes={})
    record.attempts.append(
        AttemptRecord("s0", "a0", 1.0, 0.0, 5.0, outcome="timeout")
    )
    record.attempts.append(
        AttemptRecord("s1", "a1", 1.0, 5.0, 6.0, outcome="error",
                      detail="singular")
    )
    record.attempts.append(
        AttemptRecord("s2", "a2", 1.0, 6.0, 8.0, outcome="ok")
    )
    assert record.retries == 2
    assert record.successful_attempt.server_id == "s2"
    assert record.attempts[0].elapsed == pytest.approx(5.0)


def test_attempt_in_flight_elapsed_none():
    attempt = AttemptRecord("s0", "a", 1.0, t_sent=3.0)
    assert attempt.elapsed is None


def test_record_summary_renders():
    record = RequestRecord(request_id=3, problem="linsys/dgesv", sizes={})
    text = record.summary()
    assert "req 3" in text and "linsys/dgesv" in text and "pending" in text


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------
def test_workload_policy_defaults_valid():
    config.WorkloadPolicy()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(time_step=0.0),
        dict(threshold=-1.0),
        dict(time_step=100.0, forced_interval=10.0),
    ],
)
def test_workload_policy_rejects(kwargs):
    with pytest.raises(ConfigError):
        config.WorkloadPolicy(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(candidate_list_length=0),
        dict(liveness_timeout=0.0),
    ],
)
def test_agent_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        config.AgentConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_concurrent=0),
        dict(reregister_interval=-1.0),
    ],
)
def test_server_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        config.ServerConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_retries=0),
        dict(agent_timeout=0.0),
        dict(server_timeout=0.0),
        dict(timeout_factor=0.5),
        dict(timeout_floor=0.0),
        dict(timeout_floor=100.0, server_timeout=50.0),
    ],
)
def test_client_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        config.ClientConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=-1),
        dict(per_message_overhead=-1.0),
        dict(per_message_overhead=float("nan")),
    ],
)
def test_sim_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        config.SimConfig(**kwargs)


def test_replace_validated_revalidates():
    cfg = config.ClientConfig()
    with pytest.raises(ConfigError):
        config.replace_validated(cfg, max_retries=0)
    ok = config.replace_validated(cfg, max_retries=7)
    assert ok.max_retries == 7


def test_config_summary_renders_all_fields():
    text = config.config_summary(config.AgentConfig())
    assert "AgentConfig" in text and "policy=" in text


# ----------------------------------------------------------------------
# error hierarchy
# ----------------------------------------------------------------------
def test_all_errors_derive_from_netsolve_error():
    for cls in (
        ProtocolError, CodecError, TransportError, TransportClosed,
        ProblemNotFoundError, BadArgumentsError, NoServerError,
        ServerFailure, RequestFailed, PdlSyntaxError, ComplexityError,
        SimulationError, ConfigError, NumericsError, SingularMatrixError,
        ConvergenceError,
    ):
        assert issubclass(cls, NetSolveError)


def test_error_messages_carry_context():
    assert "linsys/x" in str(ProblemNotFoundError("linsys/x"))
    assert "s3" in str(ServerFailure("s3", "died"))
    assert "42" in str(RequestFailed(42, "because"))
    assert "cg" in str(ConvergenceError("cg", 10, 0.5))
    err = PdlSyntaxError("bad", line=7)
    assert "line 7" in str(err) and err.line == 7


def test_codec_error_is_protocol_error():
    assert issubclass(CodecError, ProtocolError)


def test_transport_closed_is_transport_error():
    assert issubclass(TransportClosed, TransportError)
