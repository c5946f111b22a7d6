"""One BLAS thread per compute slot (:mod:`repro.numerics.threads`).

The BLAS thread count is process-wide, so every case runs in a fresh
interpreter: a pin made by one test must not leak into the next.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.numerics.threads import blas_threads

SRC = Path(__file__).resolve().parents[1] / "src"

controlled = pytest.mark.skipif(
    blas_threads() is None, reason="NumPy's BLAS is not controllable here"
)

#: one dgesv over a loopback agent + server + client deployment
TCP_SOLVE = """
import time
import numpy as np
from repro.config import ClientConfig
from repro.core.agent import Agent
from repro.core.client import NetSolveClient
from repro.core.predictor import LinkEstimate, StaticNetworkInfo
from repro.core.server import ComputationalServer
from repro.problems.builtin import builtin_registry
from repro.protocol.tcp import TcpSession, TcpTransport

transport = TcpTransport()
try:
    agent = Agent(network=StaticNetworkInfo(
        default=LinkEstimate(latency=1e-4, bandwidth=1e9)
    ))
    transport.add_node("agent", agent, port=0)
    transport.add_node("server/s0", ComputationalServer(
        server_id="s0", agent_address="agent", registry=builtin_registry(),
        mflops=100.0, host=transport.host_name,
    ), port=0)
    node = transport.add_node("client/c0", NetSolveClient(
        client_id="c0", agent_address="agent",
        cfg=ClientConfig(agent_timeout=30.0, timeout_floor=30.0),
    ), port=0)
    deadline = time.monotonic() + 30.0
    while agent.registrations < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    a = np.eye(8) * 4.0
    session = TcpSession(node, timeout=60.0)
    handle = session.submit("linsys/dgesv", [a, np.ones(8)])
    (x,) = handle.promise.wait(60.0)
    assert np.allclose(a @ x, np.ones(8))
finally:
    transport.close()
"""


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; return its stdout words."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])
    ))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.split()


@controlled
def test_tcp_solve_pins_the_process_to_one_blas_thread():
    before, after = run_fresh(
        "from repro.numerics.threads import blas_threads, pin_blas_threads\n"
        "print(pin_blas_threads(2))\n"
        + TCP_SOLVE
        + "print(blas_threads())\n"
    )
    assert (before, after) == ("2", "1")


@controlled
def test_process_pool_child_runs_one_blas_thread():
    child, parent = run_fresh("""
        from repro.core.executors import ProcessPool
        from repro.numerics.threads import blas_threads, pin_blas_threads
        from repro.problems.builtin import builtin_registry

        pin_blas_threads(2)
        pool = ProcessPool(1, builtin_registry())
        try:
            print(pool._executor.submit(blas_threads).result(timeout=60))
        finally:
            pool.shutdown()
        print(blas_threads())
    """)
    # the child is one slot; building the pool leaves the parent alone
    assert (child, parent) == ("1", "2")


@controlled
def test_sim_solve_leaves_the_load_time_count():
    before, after = run_fresh("""
        import numpy as np
        from repro.numerics.threads import blas_threads
        from repro.testbed import standard_testbed

        before = blas_threads()
        tb = standard_testbed(n_servers=2, seed=1)
        tb.settle()
        a = np.eye(64) * 3.0
        (x,) = tb.solve("c0", "linsys/dgesv", [a, np.ones(64)])
        assert np.allclose(a @ x, np.ones(64))
        print(before, blas_threads())
    """)
    assert before == after


@pytest.mark.parametrize("maps", [os.devnull, "/nonexistent/maps"])
def test_no_library_found_is_not_controlled(maps):
    # an empty map and an unreadable one both find nothing; a TCP solve
    # (whose pool calls the pin) still completes
    words = run_fresh(
        "import repro.numerics.threads as threads\n"
        f"threads._MAPS = {maps!r}\n"
        + TCP_SOLVE
        + "print(threads.blas_threads(), threads.pin_blas_threads())\n"
    )
    assert words == ["None", "None"]
