"""Unit tests for the ComputationalServer component."""

import numpy as np
import pytest

from repro.config import ServerConfig, WorkloadPolicy
from repro.core.server import ComputationalServer
from repro.errors import NetSolveError
from repro.problems.builtin import builtin_registry
from repro.protocol.messages import (
    DataHandle,
    DeleteObject,
    Message,
    Ping,
    Pong,
    RegisterAck,
    RegisterServer,
    SolveReply,
    SolveRequest,
    StoreAck,
    StoreObject,
    WorkloadReport,
)
from repro.protocol.transport import Component, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology

RNG = np.random.default_rng(44)


class Probe(Component):
    def __init__(self):
        self.inbox = []

    def on_message(self, src, msg):
        self.inbox.append((src, msg))

    def of_type(self, cls):
        return [m for _s, m in self.inbox if isinstance(m, cls)]

    def last(self, cls):
        hits = self.of_type(cls)
        return hits[-1] if hits else None


def make_world(cfg=None, problems=("linsys/dgesv", "blas/ddot")):
    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("sh", 100.0)
    topo.add_host("ph", 100.0)
    topo.connect_all(latency=1e-4, bandwidth=1e9)
    transport = SimTransport(topo)
    registry = builtin_registry().subset(problems)
    server = ComputationalServer(
        server_id="sv",
        agent_address="agent-probe",
        registry=registry,
        mflops=100.0,
        host="sh",
        cfg=cfg or ServerConfig(),
    )
    agent_probe = Probe()
    client_probe = Probe()
    transport.add_node("agent-probe", "ph", agent_probe)
    transport.add_node("client-probe", "ph", client_probe)
    transport.add_node("server/sv", "sh", server)
    return kernel, transport, server, agent_probe, client_probe


def solve_msg(rid=1, n=16, problem="linsys/dgesv"):
    a = RNG.standard_normal((n, n)) + n * np.eye(n)
    b = RNG.standard_normal(n)
    return a, b, SolveRequest(
        request_id=rid, problem=problem, inputs=(a, b),
        reply_to="client-probe",
    )


def test_server_registers_on_bind():
    kernel, transport, server, agent_probe, _ = make_world()
    kernel.run(until=1.0)
    reg = agent_probe.last(RegisterServer)
    assert reg is not None
    assert reg.server_id == "sv" and reg.mflops == 100.0
    assert "linsys/dgesv" in reg.problems_pdl


def test_server_records_register_ack():
    kernel, transport, server, _a, _c = make_world()
    kernel.run(until=1.0)
    transport.node("agent-probe").send("server/sv", RegisterAck(ok=True))
    kernel.run(until=2.0)
    assert server.registered


def test_register_rejection_noted():
    kernel, transport, server, _a, _c = make_world()
    kernel.run(until=1.0)
    transport.node("agent-probe").send(
        "server/sv", RegisterAck(ok=False, detail="conflict")
    )
    kernel.run(until=2.0)
    assert not server.registered


def test_workload_reports_flow_periodically():
    cfg = ServerConfig(workload=WorkloadPolicy(time_step=10.0, threshold=0.0,
                                               forced_interval=20.0))
    kernel, transport, server, agent_probe, _ = make_world(cfg)
    kernel.run(until=65.0)
    reports = agent_probe.of_type(WorkloadReport)
    assert len(reports) >= 3  # first + forced keep-alives
    assert all(r.server_id == "sv" for r in reports)


def test_solve_roundtrip():
    kernel, transport, server, _a, client_probe = make_world()
    a, b, msg = solve_msg()
    transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=10.0)
    reply = client_probe.last(SolveReply)
    assert reply.ok and reply.request_id == 1
    assert np.allclose(a @ reply.outputs[0], b, atol=1e-8)
    assert reply.compute_seconds > 0
    assert server.requests_served == 1


def test_unknown_problem_rejected():
    kernel, transport, server, _a, client_probe = make_world()
    _, _, msg = solve_msg(problem="eigen/symm")  # not installed here
    transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=5.0)
    reply = client_probe.last(SolveReply)
    assert not reply.ok and "not installed" in reply.detail
    assert server.requests_failed == 1


def test_bad_arguments_rejected_before_compute():
    kernel, transport, server, _a, client_probe = make_world()
    msg = SolveRequest(
        request_id=9, problem="linsys/dgesv",
        inputs=(np.eye(3), np.ones(4)), reply_to="client-probe",
    )
    transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=5.0)
    reply = client_probe.last(SolveReply)
    assert not reply.ok and "size symbol" in reply.detail


def test_handler_error_becomes_reply():
    kernel, transport, server, _a, client_probe = make_world()
    msg = SolveRequest(
        request_id=2, problem="linsys/dgesv",
        inputs=(np.ones((4, 4)), np.ones(4)),  # singular
        reply_to="client-probe",
    )
    transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=10.0)
    reply = client_probe.last(SolveReply)
    assert not reply.ok and "Singular" in reply.detail


def test_fifo_queue_respects_max_concurrent():
    kernel, transport, server, _a, client_probe = make_world(
        ServerConfig(max_concurrent=1)
    )
    for rid in (1, 2, 3):
        _, _, msg = solve_msg(rid=rid, n=512)  # ~0.9 s compute each
        transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=0.1)
    assert server.executing == 1
    assert server.queue_depth == 2
    kernel.run(until=60.0)
    replies = client_probe.of_type(SolveReply)
    assert [r.request_id for r in replies] == [1, 2, 3]  # FIFO order
    assert all(r.ok for r in replies)


def test_max_concurrent_two_overlaps():
    kernel, transport, server, _a, _c = make_world(
        ServerConfig(max_concurrent=2)
    )
    for rid in (1, 2, 3):
        _, _, msg = solve_msg(rid=rid, n=512)
        transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=0.1)
    assert server.executing == 2
    assert server.queue_depth == 1
    kernel.run(until=60.0)
    assert server.requests_served == 3


def test_restart_clears_queue_and_reregisters():
    kernel, transport, server, agent_probe, _ = make_world()
    for rid in (1, 2, 3):
        _, _, msg = solve_msg(rid=rid, n=512)
        transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=0.1)
    assert server.queue_depth > 0
    transport.crash("server/sv")
    transport.revive("server/sv")
    assert server.queue_depth == 0 and server.executing == 0
    kernel.run(until=5.0)
    assert len(agent_probe.of_type(RegisterServer)) >= 2


def test_ping_pong():
    kernel, transport, _s, _a, client_probe = make_world()
    transport.node("client-probe").send("server/sv", Ping(nonce=3))
    kernel.run(until=1.0)
    assert client_probe.last(Pong).nonce == 3


def test_empty_registry_rejected():
    from repro.problems.registry import ProblemRegistry

    with pytest.raises(NetSolveError, match="empty"):
        ComputationalServer(
            server_id="s", agent_address="a", registry=ProblemRegistry(),
            mflops=1.0, host="h",
        )
    with pytest.raises(NetSolveError, match="mflops"):
        ComputationalServer(
            server_id="s", agent_address="a",
            registry=builtin_registry(), mflops=0.0, host="h",
        )


def test_object_store_roundtrip_and_accounting():
    kernel, transport, server, _a, client_probe = make_world()
    value = np.arange(100.0)
    transport.node("client-probe").send(
        "server/sv", StoreObject(key="v", value=value)
    )
    kernel.run(until=1.0)
    ack = client_probe.last(StoreAck)
    assert ack.ok and ack.nbytes > 800
    assert server.cached_objects == 1
    assert server.cached_bytes == ack.nbytes
    transport.node("client-probe").send("server/sv", DeleteObject(key="v"))
    kernel.run(until=2.0)
    assert server.cached_objects == 0 and server.cached_bytes == 0


def test_solve_with_ref_resolves_from_cache():
    kernel, transport, server, _a, client_probe = make_world(
        problems=("blas/ddot",)
    )
    x = np.arange(5.0)
    transport.node("client-probe").send(
        "server/sv", StoreObject(key="x", value=x)
    )
    kernel.run(until=1.0)
    msg = SolveRequest(
        request_id=4, problem="blas/ddot",
        inputs=(DataHandle(key="x"), x), reply_to="client-probe",
    )
    transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=5.0)
    reply = client_probe.last(SolveReply)
    assert reply.ok
    assert reply.outputs[0] == pytest.approx(30.0)


def test_solve_with_unknown_ref_fails_cleanly():
    kernel, transport, server, _a, client_probe = make_world(
        problems=("blas/ddot",)
    )
    msg = SolveRequest(
        request_id=5, problem="blas/ddot",
        inputs=(DataHandle(key="ghost"), np.ones(3)), reply_to="client-probe",
    )
    transport.node("client-probe").send("server/sv", msg)
    kernel.run(until=5.0)
    reply = client_probe.last(SolveReply)
    assert not reply.ok and "ghost" in reply.detail


_KEPT_KEY_SCRIPT = """
import numpy as np
from repro.protocol.messages import SolveReply, SolveRequest
from tests.test_server_unit import Probe, make_world

kernel, transport, server, _agent, _client = make_world(problems=("blas/ddot",))
reply_to = "client/" + "x" * 123
probe = Probe()
transport.add_node(reply_to, "ph", probe)
transport.node(reply_to).send("server/sv", SolveRequest(
    request_id=1, problem="blas/ddot", inputs=(np.ones(3), np.ones(3)),
    reply_to=reply_to, keep_result=True,
))
kernel.run(until=5.0)
(handle,) = probe.last(SolveReply).outputs
print(handle.key)
"""


def test_long_kept_result_key_is_the_same_in_every_process():
    """A kept output's key over 128 chars is shortened by a hash that
    does not depend on the interpreter's per-process string salt, so
    its handle (and the reply frame carrying it) is reproducible."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    keys = []
    for seed in ("1", "2"):
        env = dict(
            os.environ, PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        done = subprocess.run(
            [sys.executable, "-c", _KEPT_KEY_SCRIPT], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        keys.append(done.stdout.strip())
    assert keys[0] == keys[1]
    # "res/<130-char address>/1/0" is 138 chars: cut to 96 plus the hash
    assert keys[0].startswith("res/client/xxx") and len(keys[0]) == 128
    assert not keys[0].endswith("/1/0")
