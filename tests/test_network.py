"""Unit tests for the simulated topology and link contention model."""

import pytest

from repro.errors import SimulationError
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology


def two_host_net(latency=0.01, bandwidth=1e6, overhead=0.0):
    k = EventKernel()
    net = Topology(k, per_message_overhead=overhead)
    net.add_host("a", 100.0)
    net.add_host("b", 100.0)
    net.add_link("a", "b", latency=latency, bandwidth=bandwidth)
    return k, net


def test_duplicate_host_rejected():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    with pytest.raises(SimulationError):
        net.add_host("a", 10.0)


def test_unknown_host_rejected():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    with pytest.raises(SimulationError):
        net.add_link("a", "zzz", latency=0.0, bandwidth=1.0)
    with pytest.raises(SimulationError):
        net.host("zzz")


def test_self_link_rejected():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    with pytest.raises(SimulationError):
        net.add_link("a", "a", latency=0.0, bandwidth=1.0)


def test_missing_link_raises():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    net.add_host("b", 10.0)
    with pytest.raises(SimulationError):
        net.link("a", "b")


def test_transfer_time_latency_plus_serialization():
    k, net = two_host_net(latency=0.01, bandwidth=1e6)
    ev = net.transfer("a", "b", 1_000_000)  # 1 MB at 1 MB/s = 1 s + 10 ms
    k.run()
    assert ev.fired
    assert k.now == pytest.approx(1.01)


def test_per_message_overhead_applied():
    k, net = two_host_net(latency=0.0, bandwidth=1e6, overhead=0.005)
    net.transfer("a", "b", 1_000_000)
    k.run()
    assert k.now == pytest.approx(1.005)


def test_zero_byte_message_costs_latency_only():
    k, net = two_host_net(latency=0.02, bandwidth=1e6)
    net.transfer("a", "b", 0)
    k.run()
    assert k.now == pytest.approx(0.02)


def test_fifo_contention_serializes_same_direction():
    k, net = two_host_net(latency=0.01, bandwidth=1e6)
    arrivals = []
    for _ in range(3):
        ev = net.transfer("a", "b", 1_000_000)
        ev.add_callback(lambda plan: arrivals.append(k.now))
    k.run()
    # serialization back-to-back: arrive at 1.01, 2.01, 3.01
    assert arrivals == pytest.approx([1.01, 2.01, 3.01])


def test_full_duplex_directions_independent():
    k, net = two_host_net(latency=0.0, bandwidth=1e6)
    t_ab = net.transfer("a", "b", 1_000_000)
    t_ba = net.transfer("b", "a", 1_000_000)
    done = {}
    t_ab.add_callback(lambda _: done.setdefault("ab", k.now))
    t_ba.add_callback(lambda _: done.setdefault("ba", k.now))
    k.run()
    assert done["ab"] == pytest.approx(1.0)
    assert done["ba"] == pytest.approx(1.0)


def test_latency_pipelines_but_serialization_queues():
    k, net = two_host_net(latency=0.5, bandwidth=1e6)
    arrivals = []
    for _ in range(2):
        net.transfer("a", "b", 100_000).add_callback(
            lambda _: arrivals.append(k.now)
        )
    k.run()
    # tx windows: [0, 0.1], [0.1, 0.2]; arrivals at 0.6 and 0.7
    assert arrivals == pytest.approx([0.6, 0.7])


def test_loopback_is_cheap_and_implicit():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    net.transfer("a", "a", 1000)
    k.run()
    assert k.now < 0.001


def test_plan_transfer_has_no_side_effects():
    k, net = two_host_net(latency=0.01, bandwidth=1e6)
    p1 = net.plan_transfer("a", "b", 1_000_000)
    p2 = net.plan_transfer("a", "b", 1_000_000)
    assert p1.queue_delay == p2.queue_delay == 0.0
    assert p1.arrival == pytest.approx(p2.arrival)


def test_plan_reflects_queueing_after_real_transfer():
    k, net = two_host_net(latency=0.01, bandwidth=1e6)
    net.transfer("a", "b", 1_000_000)
    plan = net.plan_transfer("a", "b", 1_000_000)
    assert plan.queue_delay == pytest.approx(1.0)
    assert plan.arrival == pytest.approx(2.01)
    assert plan.total == pytest.approx(2.01)


def test_estimate_matches_uncontended_transfer():
    k, net = two_host_net(latency=0.03, bandwidth=2e6, overhead=0.001)
    est = net.estimate_seconds("a", "b", 500_000)
    net.transfer("a", "b", 500_000)
    k.run()
    assert k.now == pytest.approx(est)


def test_connect_all_builds_full_mesh():
    for n_hosts in (3, 400):
        k = EventKernel()
        net = Topology(k)
        names = [f"h{i:03d}" for i in range(n_hosts)]
        for name in names:
            net.add_host(name, 10.0)
        net.connect_all(latency=0.001, bandwidth=1e6)
        assert list(net.links()) == []  # laid on first use, not up front
        for src, dst in [(names[0], names[1]), (names[1], names[0]),
                         (names[-1], names[0])]:
            net.transfer(src, dst, 100)
        k.run()
        assert len(list(net.links())) == 3
        assert net.total_messages() == 3 and net.total_bytes() == 300
        probe = names[:3] + names[3:][-2:]
        for src in probe:
            for dst in probe:
                if src != dst:
                    assert net.link(src, dst).latency == 0.001
                    assert net.link(src, dst).bandwidth == 1e6
        net.add_host("late", 10.0)  # added after the mesh: not in it
        for src, dst in [(names[0], "late"), ("late", names[0])]:
            with pytest.raises(SimulationError):
                net.link(src, dst)


def test_connect_all_preserves_existing_links():
    # an explicit link wins whether it comes before the mesh or after
    for explicit_after_mesh in (False, True):
        k = EventKernel()
        net = Topology(k)
        net.add_host("a", 10.0)
        net.add_host("b", 10.0)
        net.add_host("c", 10.0)
        if explicit_after_mesh:
            net.connect_all(latency=0.001, bandwidth=1e6)
        net.add_link("a", "b", latency=0.5, bandwidth=1.0)
        net.connect_all(latency=0.001, bandwidth=1e6)
        assert net.link("a", "b").latency == 0.5
        assert net.link("b", "a").latency == 0.5
        assert net.link("a", "c").latency == 0.001
        # a later mesh never replaces an earlier one's pairs
        net.connect_all(latency=0.25, bandwidth=1e6)
        assert net.link("c", "b").latency == 0.001


def test_asymmetric_link():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    net.add_host("b", 10.0)
    net.add_link("a", "b", latency=0.1, bandwidth=1e6, symmetric=False)
    assert net.link("a", "b").latency == 0.1
    with pytest.raises(SimulationError):
        net.link("b", "a")
    # a mesh checks the sorted direction only: a -> b is linked, so the
    # pair is skipped and b -> a stays unlinked
    net.connect_all(latency=0.001, bandwidth=1e6)
    assert net.link("a", "b").latency == 0.1
    with pytest.raises(SimulationError):
        net.link("b", "a")
    # with only c -> a linked, the mesh joins the pair and replaces it
    net.add_host("c", 10.0)
    net.add_link("c", "a", latency=0.1, bandwidth=1e6, symmetric=False)
    net.connect_all(latency=0.002, bandwidth=1e6)
    assert net.link("a", "c").latency == 0.002
    assert net.link("c", "a").latency == 0.002
    # one direction added after the mesh overrides that direction only
    net.add_link("c", "b", latency=0.5, bandwidth=1e6, symmetric=False)
    assert net.link("c", "b").latency == 0.5
    assert net.link("b", "c").latency == 0.002


def test_stats_accumulate():
    k, net = two_host_net(latency=0.0, bandwidth=1e6)
    net.transfer("a", "b", 1000)
    net.transfer("a", "b", 2000)
    k.run()
    link = net.link("a", "b")
    assert link.stats.messages == 2
    assert link.stats.bytes == 3000
    assert net.total_messages() == 2
    assert net.total_bytes() == 3000


def test_negative_bytes_rejected():
    k, net = two_host_net()
    with pytest.raises(SimulationError):
        net.transfer("a", "b", -1)


def test_bad_link_parameters_rejected():
    k = EventKernel()
    net = Topology(k)
    net.add_host("a", 10.0)
    net.add_host("b", 10.0)
    with pytest.raises(SimulationError):
        net.add_link("a", "b", latency=-1.0, bandwidth=1e6)
    with pytest.raises(SimulationError):
        net.add_link("a", "b", latency=0.0, bandwidth=0.0)
    # a mesh rejects them when it is laid, not on first use
    with pytest.raises(SimulationError, match="negative latency"):
        net.connect_all(latency=-1.0, bandwidth=1e6)
    with pytest.raises(SimulationError, match="bandwidth must be positive"):
        net.connect_all(latency=0.0, bandwidth=0.0)
    with pytest.raises(SimulationError):
        net.link("a", "b")  # a rejected mesh lays nothing
