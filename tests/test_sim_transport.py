"""Unit tests for the simulated transport layer."""

import pytest

from repro.errors import SimulationError, TransportClosed, TransportError
from repro.protocol.messages import Message, Ping, Pong
from repro.protocol.transport import Component, Promise, SimTransport
from repro.simnet.kernel import EventKernel
from repro.simnet.network import Topology


class Echo(Component):
    """Replies Pong to every Ping; records everything it sees."""

    def __init__(self):
        self.seen = []

    def on_message(self, src, msg):
        self.seen.append((src, msg, self.node.now()))
        if isinstance(msg, Ping):
            self.node.send(src, Pong(nonce=msg.nonce))


class Collector(Component):
    def __init__(self):
        self.seen = []

    def on_message(self, src, msg):
        self.seen.append((src, msg, self.node.now()))


def make_world(latency=0.01, bandwidth=1e6):
    kernel = EventKernel()
    topo = Topology(kernel)
    topo.add_host("h1", 100.0)
    topo.add_host("h2", 100.0)
    topo.add_link("h1", "h2", latency=latency, bandwidth=bandwidth)
    return kernel, topo, SimTransport(topo)


def test_roundtrip_ping_pong():
    kernel, _, transport = make_world()
    a = Collector()
    b = Echo()
    transport.add_node("a", "h1", a)
    transport.add_node("b", "h2", b)
    transport.node("a").send("b", Ping(nonce=7))
    kernel.run()
    assert len(b.seen) == 1 and b.seen[0][0] == "a"
    assert len(a.seen) == 1
    assert isinstance(a.seen[0][1], Pong) and a.seen[0][1].nonce == 7
    # two latency hops happened
    assert a.seen[0][2] > 0.02


def test_messages_are_really_encoded():
    kernel, _, transport = make_world(latency=0.0, bandwidth=1000.0)
    transport.add_node("a", "h1", Collector())
    transport.add_node("b", "h2", Collector())
    transport.node("a").send("b", Ping(nonce=1))
    kernel.run()
    # a Ping frame is ~40 bytes; at 1000 B/s that is tens of ms, not 0
    assert kernel.now > 0.02
    assert transport.node("a").bytes_sent > 20


def test_unknown_destination_dropped():
    kernel, _, transport = make_world()
    transport.add_node("a", "h1", Collector())
    transport.node("a").send("ghost", Ping())
    kernel.run()
    assert transport.messages_dropped == 1
    assert transport.messages_delivered == 0


def test_duplicate_address_rejected():
    _, _, transport = make_world()
    transport.add_node("a", "h1", Collector())
    with pytest.raises(SimulationError):
        transport.add_node("a", "h2", Collector())


def test_unknown_host_rejected():
    _, _, transport = make_world()
    with pytest.raises(SimulationError):
        transport.add_node("a", "nonexistent-host", Collector())


def test_crash_drops_inbound_messages():
    kernel, _, transport = make_world()
    b = Collector()
    transport.add_node("a", "h1", Collector())
    transport.add_node("b", "h2", b)
    transport.crash("b")
    transport.node("a").send("b", Ping())
    kernel.run()
    assert b.seen == []
    assert transport.messages_dropped == 1


def test_crash_mutes_outbound():
    kernel, _, transport = make_world()
    a = Collector()
    transport.add_node("a", "h1", a)
    transport.add_node("b", "h2", Echo())
    transport.crash("a")
    transport.node("a").send("b", Ping())
    kernel.run()
    assert a.seen == []


def test_crash_cancels_timers():
    kernel, _, transport = make_world()
    fired = []

    class TimerGuy(Component):
        def on_bind(self):
            self.node.call_after(5.0, lambda: fired.append(1))

        def on_message(self, src, msg):
            pass

    transport.add_node("t", "h1", TimerGuy())
    transport.crash("t")
    kernel.run()
    assert fired == []


def test_crash_aborts_compute():
    kernel, topo, transport = make_world()
    done = []

    class Cruncher(Component):
        def on_bind(self):
            self.node.compute(1e9, lambda: 42, lambda r, e: done.append(r))

        def on_message(self, src, msg):
            pass

    transport.add_node("c", "h1", Cruncher())
    kernel.run(until=1.0)
    transport.crash("c")
    kernel.run()
    assert done == []
    # host is idle again: the job was cancelled
    assert topo.host("h1").active_jobs == 0


def test_message_in_flight_to_crashing_node_dropped():
    kernel, _, transport = make_world(latency=1.0)
    b = Collector()
    transport.add_node("a", "h1", Collector())
    transport.add_node("b", "h2", b)
    transport.node("a").send("b", Ping())
    kernel.run(until=0.5)  # message still in flight
    transport.crash("b")
    kernel.run()
    assert b.seen == []


def test_revive_restores_delivery():
    kernel, _, transport = make_world()
    b = Echo()
    transport.add_node("a", "h1", Collector())
    transport.add_node("b", "h2", b)
    transport.crash("b")
    transport.revive("b")
    transport.node("a").send("b", Ping())
    kernel.run()
    assert len(b.seen) == 1


def test_revive_of_live_node_rejected():
    _, _, transport = make_world()
    transport.add_node("a", "h1", Collector())
    with pytest.raises(SimulationError):
        transport.revive("a")


def test_dead_node_call_after_rejected():
    _, _, transport = make_world()
    transport.add_node("a", "h1", Collector())
    transport.crash("a")
    with pytest.raises(TransportClosed):
        transport.node("a").call_after(1.0, lambda: None)


def test_compute_passes_exceptions_as_results():
    kernel, _, transport = make_world()
    got = []

    class Exploder(Component):
        def on_bind(self):
            def boom():
                raise ValueError("bang")

            self.node.compute(1e6, boom, lambda r, e: got.append(r))

        def on_message(self, src, msg):
            pass

    transport.add_node("x", "h1", Exploder())
    kernel.run()
    assert len(got) == 1 and isinstance(got[0], ValueError)


def test_compute_reports_virtual_elapsed():
    kernel, _, transport = make_world()
    got = []

    class Cruncher(Component):
        def on_bind(self):
            self.node.compute(1e9, lambda: "ok", lambda r, e: got.append((r, e)))

        def on_message(self, src, msg):
            pass

    transport.add_node("c", "h1", Cruncher())  # 1 Gflop on 100 Mflop/s
    kernel.run()
    assert got[0][0] == "ok"
    assert got[0][1] == pytest.approx(10.0)


def test_run_until_promise():
    kernel, _, transport = make_world()
    p = Promise()
    kernel.call_after(3.0, lambda: p.resolve("v"))
    assert transport.run_until(p) == "v"


def test_run_until_rejected_promise_raises():
    kernel, _, transport = make_world()
    p = Promise()
    kernel.call_after(1.0, lambda: p.reject(TransportError("nope")))
    with pytest.raises(TransportError):
        transport.run_until(p)


def test_run_until_deadlock_detected():
    _, _, transport = make_world()
    with pytest.raises(SimulationError):
        transport.run_until(Promise())


def test_promise_double_settle_rejected():
    p = Promise()
    p.resolve(1)
    with pytest.raises(TransportError):
        p.resolve(2)
    with pytest.raises(TransportError):
        p.reject(ValueError())


def test_promise_result_before_settle_rejected():
    with pytest.raises(TransportError):
        Promise().result()


def test_component_double_bind_rejected():
    _, _, transport = make_world()
    c = Collector()
    transport.add_node("a", "h1", c)
    with pytest.raises(TransportError):
        c.bind(transport.node("a"))


def test_codec_roundtrip_false_same_timing_and_content():
    import numpy as np

    from repro.protocol.messages import SolveRequest

    arr = np.arange(1024.0)
    times = {}
    for flag in (True, False):
        kernel = EventKernel()
        topo = Topology(kernel)
        topo.add_host("h1", 100.0)
        topo.add_host("h2", 100.0)
        topo.add_link("h1", "h2", latency=0.01, bandwidth=1e6)
        transport = SimTransport(topo, codec_roundtrip=flag)
        sink = Collector()
        transport.add_node("a", "h1", Collector())
        transport.add_node("b", "h2", sink)
        transport.node("a").send(
            "b", SolveRequest(request_id=1, problem="p", inputs=(arr,))
        )
        kernel.run()
        assert len(sink.seen) == 1
        got = sink.seen[0][1]
        assert np.array_equal(got.inputs[0], arr)
        # roundtrip=True hands over a decoded copy; =False the original
        assert np.shares_memory(got.inputs[0], arr) is (not flag)
        times[flag] = (sink.seen[0][2], kernel.now)
    # skipping materialization must not change the virtual clock
    assert times[True] == times[False]


def test_lost_message_charges_wire_but_skips_encode():
    class AlwaysLose:
        def random(self):
            return 0.0

    kernel, _, transport = make_world()
    b = Collector()
    transport.add_node("a", "h1", Collector())
    transport.add_node("b", "h2", b)
    transport.set_message_loss(0.5, AlwaysLose())
    transport.node("a").send("b", Ping())
    kernel.run()
    assert b.seen == []
    assert transport.messages_lost == 1
    assert transport.messages_delivered == 0
    # the sender still paid for the bytes it put on the wire
    assert transport.node("a").bytes_sent > 20


def test_sample_workload_reads_host():
    kernel, topo, transport = make_world()
    transport.add_node("a", "h1", Collector())
    topo.host("h1").set_background_load(1.5)
    assert transport.node("a").sample_workload() == pytest.approx(150.0)


def test_fired_timers_do_not_pile_up_on_a_node():
    # regression: call_after pruned its teardown list with `not
    # t.cancelled`, but a timer that *fired* is never marked cancelled —
    # past 64 entries every call rebuilt an ever-growing list.  A node
    # now forgets a timer when it fires and a job when it finishes
    kernel, _, transport = make_world()
    node = transport.add_node("a", "h1", Collector())
    fired = []
    for i in range(10_000):
        node.call_after(0.001, lambda i=i: fired.append(i))
        kernel.run()  # sequential fire-and-forget: each fires before the next
    assert len(fired) == 10_000
    assert len(node._timers) == 0
    finished = []
    for i in range(1_000):
        node.compute(1e3, lambda i=i: i, lambda r, _e: finished.append(r))
        kernel.run()
    assert finished == list(range(1_000))
    assert len(node._jobs) == 0


def test_node_group_holds_only_live_timers_and_a_crash_cancels_them():
    kernel, _, transport = make_world()
    node = transport.add_node("a", "h1", Collector())
    base = kernel.pending()
    fired = []
    for _ in range(300):  # spent: each fires before the next is armed
        node.call_after(0.001, lambda: None)
        kernel.run()
    for i in range(500):  # armed, then cancelled by their owner
        node.call_after(5.0 + i, lambda: fired.append("cancelled")).cancel()
    live = [
        node.call_after(10.0 + i, lambda i=i: fired.append(i))
        for i in range(200)
    ]
    assert len(node._timers) == 200
    assert kernel.pending() == base + 200
    transport.crash("a")
    assert all(t.cancelled for t in live)
    assert len(node._timers) == 0
    assert kernel.pending() == base
    kernel.run()
    assert fired == []
