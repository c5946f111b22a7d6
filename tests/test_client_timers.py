"""Regression tests for the client's timer/retry bug sweep.

Each test here fails on the pre-fix code:

* a stale ``list_problems`` timeout popped and rejected the *successor*
  batch under the same prefix;
* a stale store/delete timeout did the same to the next operation on
  the same ``(server, key)``;
* ``describe()`` followed by ``submit()`` on the same problem started
  two parallel DescribeProblem retry chains;
* ``_report_failure`` sent a FailureReport to the agent for *pinned*
  requests the agent never scheduled, poisoning the server's suspicion
  state.

All sim-clock driven: timers fire in virtual time, no sleeps.
"""

import numpy as np
import pytest

from repro.config import ClientConfig
from repro.core.request import RequestStatus
from repro.errors import RequestFailed
from repro.problems.builtin import builtin_registry
from repro.testbed import server_address, standard_testbed

RNG = np.random.default_rng(91)


def linsys(n=48):
    a = RNG.standard_normal((n, n)) + n * np.eye(n)
    return a, RNG.standard_normal(n)


# ----------------------------------------------------------------------
# stale list_problems timer
# ----------------------------------------------------------------------
def test_stale_list_timer_spares_successor_batch():
    """A resolved list's timeout must not reject the next list on the
    same prefix — only the batch that armed the timer may die."""
    tb = standard_testbed(
        n_servers=1, seed=71, client_cfg=ClientConfig(agent_timeout=5.0)
    )
    tb.settle()
    client = tb.client("c0")
    t0 = tb.kernel.now

    p1 = client.list_problems("")
    tb.run(until=t0 + 1.0)
    assert p1.done and len(p1.result()) > 0

    # the agent goes silent; a second list on the SAME prefix starts at
    # t0+2 with its own 5 s timeout (due t0+7).  The first list's timer
    # is still pending, due at t0+5.
    tb.transport.crash("agent")
    tb.run(until=t0 + 2.0)
    p2 = client.list_problems("")

    tb.run(until=t0 + 6.0)
    # pre-fix: the stale timer fired at t0+5 and rejected p2 three
    # seconds early
    assert not p2.done

    tb.run(until=t0 + 8.0)
    assert p2.done
    with pytest.raises(RequestFailed):
        p2.result()


# ----------------------------------------------------------------------
# stale store timer
# ----------------------------------------------------------------------
def test_stale_store_timer_spares_successor_batch():
    """Same stale-timer shape on the object store: an acked store's
    timeout must not kill a later store under the same (server, key)."""
    tb = standard_testbed(
        n_servers=1, seed=72,
        client_cfg=ClientConfig(server_timeout=5.0, timeout_floor=1.0),
    )
    tb.settle()
    client = tb.client("c0")
    addr = server_address("s0")
    t0 = tb.kernel.now

    st1 = client.store(addr, "seq/x", np.ones(8))
    tb.run(until=t0 + 1.0)
    assert st1.done and st1.result().nbytes > 0

    tb.transport.crash(addr)
    tb.run(until=t0 + 2.0)
    st2 = client.store(addr, "seq/x", np.ones(8))

    tb.run(until=t0 + 6.0)
    # pre-fix: st1's timer fired at t0+5 and rejected st2 early
    assert not st2.done

    tb.run(until=t0 + 8.0)
    assert st2.done
    with pytest.raises(RequestFailed):
        st2.result()


# ----------------------------------------------------------------------
# describe/submit retry-chain duplication
# ----------------------------------------------------------------------
def test_describe_then_submit_single_retry_chain():
    """describe() then submit() on the same problem must share one
    DescribeProblem retry chain, not race two in parallel."""
    tb = standard_testbed(
        n_servers=1, seed=73,
        client_cfg=ClientConfig(agent_timeout=5.0, agent_retries=3),
    )
    tb.settle()
    client = tb.client("c0")
    node = tb.transport.node("client/c0")
    tb.transport.crash("agent")  # every describe goes unanswered

    before = node.messages_sent
    spec_promise = client.describe("linsys/dgesv")
    handle = client.submit("linsys/dgesv", list(linsys()))
    tb.run(until=tb.kernel.now + 25.0)  # past 3 x agent_timeout

    # one chain = agent_retries sends total; the pre-fix duplicate
    # chain doubled it
    assert node.messages_sent - before == 3
    assert spec_promise.done
    with pytest.raises(RequestFailed):
        spec_promise.result()
    assert handle.done
    assert handle.status is RequestStatus.FAILED


# ----------------------------------------------------------------------
# pinned failures stay off the agent's books
# ----------------------------------------------------------------------
def test_pinned_failure_not_reported_to_agent():
    """A pinned request bypassed the agent on the way in, so its death
    must not mark the server suspect — the agent never scheduled it."""
    tb = standard_testbed(
        n_servers=1, seed=74,
        client_cfg=ClientConfig(server_timeout=5.0, timeout_floor=1.0),
    )
    tb.settle()
    client = tb.client("c0")
    client.install_spec(builtin_registry().spec("linsys/dgesv"))
    tb.transport.crash(server_address("s0"))

    handle = client.submit(
        "linsys/dgesv", list(linsys()), server=server_address("s0"),
        server_id="s0",
    )
    tb.run(until=tb.kernel.now + 10.0)

    assert handle.done
    assert handle.status is RequestStatus.FAILED
    # the attempt record still tells the whole story locally...
    assert [a.outcome for a in handle.record.attempts] == ["timeout"]
    # ...but the agent heard nothing and still trusts the server
    assert tb.agent.failures_reported == 0
    assert tb.agent.table.get("s0").alive
