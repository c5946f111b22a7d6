"""Extension experiment E3 — surviving a lossy network.

The NetSolve protocol has no transport-level retransmission (each
message is fire-and-forget); reliability comes entirely from the
request-level loop: per-attempt timeouts, failure reports, candidate
fall-through and agent re-query.  This experiment drops each message
independently with probability p and checks that the loop converts loss
into latency, not into lost work — up to strikingly high loss rates.
"""

from repro.config import AgentConfig, ClientConfig, ServerConfig, WorkloadPolicy
from repro.farming import submit_farm
from repro.simnet.rng import RngStreams
from repro.testbed import standard_testbed
from repro.trace.metrics import format_table

from _harness import emit, linear_system, once

N_REQUESTS = 24
LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)


def run_loss(rate: float):
    tb = standard_testbed(
        n_servers=3,
        server_mflops=[100.0] * 3,
        seed=131,
        bandwidth=12.5e6,
        agent_cfg=AgentConfig(candidate_list_length=3),
        client_cfg=ClientConfig(
            max_retries=10, agent_timeout=15.0, agent_retries=8,
            timeout_floor=5.0, timeout_factor=3.0, server_timeout=600.0,
        ),
        server_cfg=ServerConfig(
            workload=WorkloadPolicy(time_step=10.0, threshold=10.0),
            reregister_interval=60.0,
        ),
    )
    tb.transport.set_message_loss(rate, tb.rng.get("e3.loss"))
    tb.settle(30.0)
    rng = RngStreams(131).get("e3.data")
    args = [list(linear_system(rng, 256)) for _ in range(N_REQUESTS)]
    start = tb.kernel.now
    farm = submit_farm(tb.client("c0"), "linsys/dgesv", args)
    tb.wait_all(farm.handles, limit=start + 7200.0)
    stats = farm.stats()
    return {
        "rate": rate,
        "completed": stats.completed,
        "failed": stats.failed,
        "makespan": farm.makespan,
        "retries": stats.total_retries,
        "lost": tb.transport.messages_lost,
    }


def test_e3_message_loss_tolerance(benchmark):
    results = once(benchmark, lambda: [run_loss(r) for r in LOSS_RATES])

    rows = [
        [f"{100 * r['rate']:.0f}%", r["completed"], r["failed"],
         f"{r['makespan']:.1f}", r["retries"], r["lost"]]
        for r in results
    ]
    text = format_table(
        ["loss", "completed", "failed", "makespan(s)", "retries",
         "msgs lost"],
        rows,
        title=(
            f"E3: {N_REQUESTS} dgesv n=256 over 3 servers with random "
            "message loss (no transport retransmission)"
        ),
    )
    emit("E3_message_loss", text)

    by_rate = {r["rate"]: r for r in results}
    # what the loop guarantees at any loss rate: every request settles,
    # completed or failed — loss never strands one in flight
    for rate, r in by_rate.items():
        assert r["completed"] + r["failed"] == N_REQUESTS, rate
    # the clean run is the baseline
    assert by_rate[0.0]["completed"] == N_REQUESTS
    assert by_rate[0.0]["retries"] == 0
    # up to 10% loss: the retry loop still completes every request
    for rate in (0.02, 0.05, 0.10):
        assert by_rate[rate]["completed"] == N_REQUESTS, rate
    # loss costs time, monotonically in expectation at the extremes
    assert by_rate[0.10]["makespan"] > by_rate[0.0]["makespan"]
    # at 20% the control plane itself erodes (lost workload reports keep
    # servers suspect; lost queries burn the agent-retry budget): the
    # majority still completes, at a visibly higher latency — the 1996
    # design assumed TCP underneath, not a 20%-lossy datagram path
    assert by_rate[0.20]["completed"] >= 0.5 * N_REQUESTS
    assert by_rate[0.20]["makespan"] > by_rate[0.10]["makespan"]
