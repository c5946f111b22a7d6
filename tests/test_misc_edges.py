"""Edge-case sweep across session helpers, candidate queries and tools."""

import numpy as np
import pytest

from repro.capi import SimSession
from repro.errors import RequestFailed
from repro.testbed import server_address, standard_testbed

RNG = np.random.default_rng(93)


def test_sim_session_detects_drained_simulation():
    tb = standard_testbed(n_servers=1, seed=1)
    tb.settle()
    tb.transport.crash("agent")
    tb.transport.crash(server_address("s0"))
    session = SimSession(tb, "c0")
    a = RNG.standard_normal((8, 8)) + 8 * np.eye(8)
    handle = session.submit("linsys/dgesv", [a, np.ones(8)])
    # the request will eventually fail via timeouts; drive() must return
    # (not raise "drained") because timers keep the heap alive
    session.drive(handle.promise)
    assert handle.done


def test_query_candidates_unknown_problem_rejects():
    tb = standard_testbed(n_servers=1, seed=2)
    tb.settle()
    promise = tb.client("c0").query_candidates("not/registered", {"n": 4})
    with pytest.raises(RequestFailed):
        tb.transport.run_until(promise)


def test_query_candidates_no_server_rejects():
    tb = standard_testbed(n_servers=1, seed=3)
    tb.settle()
    tb.agent.table.mark_failed("s0")
    promise = tb.client("c0").query_candidates("linsys/dgesv", {"n": 4})
    with pytest.raises(RequestFailed):
        tb.transport.run_until(promise)


def test_demo_cli_reports_missing_problem(tmp_path):
    """demo exits 2 when the agent has no dgesv on offer."""
    import socket
    import subprocess
    import sys
    import time

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    agent = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.agent", "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), 0.2).close()
                break
            except OSError:
                time.sleep(0.05)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.demo",
             "--agent", f"127.0.0.1:{port}", "--timeout", "15"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "no linsys/dgesv" in result.stdout
    finally:
        agent.terminate()
        agent.wait(timeout=10)


def test_gantt_in_trace_namespace():
    from repro import trace

    assert callable(trace.render_gantt)
    assert callable(trace.server_busy_intervals)


def test_public_api_surface():
    """Everything __all__ promises actually resolves."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"
