#!/usr/bin/env python3
"""A live NetSolve deployment over real TCP sockets.

The exact same agent/server/client components that drive the simulation
run here over localhost TCP: real listening sockets, pooled connections
served by one I/O loop thread, worker threads for computation, and real
wall-clock timing.  This is
the configuration a multi-process deployment would use (each component
could live in its own process; see ``TcpTransport.register_remote``).

Run:  python examples/tcp_deployment.py
"""

import time

import numpy as np

from repro import builtin_registry
from repro.config import ClientConfig, ServerConfig, WorkloadPolicy
from repro.core.agent import Agent
from repro.core.client import NetSolveClient
from repro.core.predictor import LinkEstimate, StaticNetworkInfo
from repro.core.server import ComputationalServer
from repro.matlab import MatlabNetSolve
from repro.protocol.tcp import TcpSession, TcpTransport


def main() -> None:
    with TcpTransport() as transport:
        # the agent, with loopback-grade link estimates
        agent = Agent(
            network=StaticNetworkInfo(
                default=LinkEstimate(latency=1e-4, bandwidth=1e9)
            )
        )
        transport.add_node("agent", agent)

        # two computational servers on this machine
        for i, mflops in enumerate((200.0, 400.0)):
            transport.add_node(
                f"server/s{i}",
                ComputationalServer(
                    server_id=f"s{i}",
                    agent_address="agent",
                    registry=builtin_registry(),
                    mflops=mflops,
                    host=transport.host_name,
                    cfg=ServerConfig(
                        workload=WorkloadPolicy(time_step=1.0, threshold=10.0)
                    ),
                ),
            )

        # the client endpoint and a thread-blocking session
        client_node = transport.add_node(
            "client/c0",
            NetSolveClient(
                client_id="c0",
                agent_address="agent",
                cfg=ClientConfig(agent_timeout=10.0, timeout_floor=30.0),
            ),
        )
        session = TcpSession(client_node, timeout=60.0)

        # wait for both registrations to land
        deadline = time.monotonic() + 10.0
        while agent.registrations < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        print(f"agent has {agent.registrations} registered servers, "
              f"{len(agent.specs)} problems")

        rng = np.random.default_rng(1)
        n = 300
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)

        t0 = time.perf_counter()
        handle = session.submit("linsys/dgesv", [a, b])
        (x,) = handle.promise.wait(60.0)
        wall = time.perf_counter() - t0
        print(f"dgesv n={n} over TCP: wall {wall * 1e3:.0f} ms, "
              f"residual {np.linalg.norm(a @ x - b):.2e}, "
              f"server {handle.record.server_id!r}")

        # the MATLAB front end works over TCP unchanged
        ml = MatlabNetSolve(session)
        print("eigen problems on the wire:", ml.problems("eigen/"))
        w, _v = ml.netsolve("symm", (a + a.T) / 2)
        print(f"largest eigenvalue via netsolve('symm'): {w[-1]:.3f}")

    print("transport closed cleanly")


if __name__ == "__main__":
    main()
