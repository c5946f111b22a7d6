"""Unit tests for background-load generators."""

import pytest

from repro.errors import SimulationError
from repro.simnet.kernel import EventKernel
from repro.simnet.host import SimHost
from repro.simnet.rng import RngStreams
from repro.simnet.traffic import (
    ArrivalProcess,
    BreakdownRepair,
    ConstantLoad,
    CorrelatedFailures,
    PoissonJobLoad,
    SquareWaveLoad,
    TraceLoad,
    diurnal_rate,
    flash_crowd,
)


def make_host():
    k = EventKernel()
    return k, SimHost("h", k, 100.0)


def test_constant_load_sets_and_clears():
    k, h = make_host()
    gen = ConstantLoad(h, 1.5).start()
    assert h.background_load == pytest.approx(1.5)
    gen.stop()
    assert h.background_load == pytest.approx(0.0)


def test_constant_load_rejects_negative():
    _, h = make_host()
    with pytest.raises(SimulationError):
        ConstantLoad(h, -1.0)


def test_double_start_rejected():
    _, h = make_host()
    gen = ConstantLoad(h, 1.0)
    gen.start()
    with pytest.raises(SimulationError):
        gen.start()


def test_square_wave_alternates():
    k, h = make_host()
    SquareWaveLoad(h, low=0.0, high=2.0, period=100.0).start()
    k.run(until=1.0)
    assert h.background_load == pytest.approx(0.0)
    k.run(until=60.0)
    assert h.background_load == pytest.approx(2.0)
    k.run(until=110.0)
    assert h.background_load == pytest.approx(0.0)
    k.run(until=160.0)
    assert h.background_load == pytest.approx(2.0)


def test_square_wave_start_high():
    k, h = make_host()
    SquareWaveLoad(h, low=0.5, high=3.0, period=10.0, start_high=True).start()
    k.run(until=1.0)
    assert h.background_load == pytest.approx(3.0)


def test_square_wave_stop_freezes_timers():
    k, h = make_host()
    gen = SquareWaveLoad(h, low=0.0, high=2.0, period=10.0).start()
    k.run(until=1.0)
    gen.stop()
    k.run(until=100.0)
    assert h.background_load == pytest.approx(0.0)


def test_square_wave_validation():
    _, h = make_host()
    with pytest.raises(SimulationError):
        SquareWaveLoad(h, period=0.0)
    with pytest.raises(SimulationError):
        SquareWaveLoad(h, low=-1.0)


def test_poisson_load_mean_matches_theory():
    k, h = make_host()
    rng = RngStreams(7).get("poisson")
    gen = PoissonJobLoad(h, rng, rate=1 / 30.0, mean_duration=60.0)
    assert gen.mean_load == pytest.approx(2.0)
    gen.start()
    # time-average the load over a long window
    horizon = 200_000.0
    k.run(until=horizon)
    hist = h.load_history
    total = 0.0
    for (t0, v), (t1, _) in zip(hist, hist[1:]):
        total += v * (t1 - t0)
    total += hist[-1][1] * (horizon - hist[-1][0])
    avg = total / horizon
    assert avg == pytest.approx(2.0, rel=0.15)


def test_poisson_load_never_negative():
    k, h = make_host()
    rng = RngStreams(3).get("poisson2")
    PoissonJobLoad(h, rng, rate=1 / 10.0, mean_duration=20.0).start()
    k.run(until=5000.0)
    assert all(v >= 0.0 for _, v in h.load_history)


def test_poisson_load_deterministic_replay():
    def run(seed):
        k, h = make_host()
        rng = RngStreams(seed).get("p")
        PoissonJobLoad(h, rng, rate=0.05, mean_duration=30.0).start()
        k.run(until=2000.0)
        return h.load_history

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_long_running_poisson_load_holds_only_live_timers():
    k, h = make_host()
    rng = RngStreams(5).get("poisson-live")
    gen = PoissonJobLoad(h, rng, rate=1 / 10.0, mean_duration=20.0).start()
    k.run(until=20_000.0)
    # ~2,000 arrivals armed ~4,000 timers; only the next arrival and
    # each job still holding the CPU are pending
    assert len(gen._timers) == k.pending()
    assert len(gen._timers) == 1 + round(gen._level / gen.unit_load)
    gen.stop()
    assert len(gen._timers) == 0 and k.pending() == 0


def test_poisson_validation():
    _, h = make_host()
    rng = RngStreams(0).get("x")
    with pytest.raises(SimulationError):
        PoissonJobLoad(h, rng, rate=0.0)
    with pytest.raises(SimulationError):
        PoissonJobLoad(h, rng, mean_duration=0.0)
    with pytest.raises(SimulationError):
        PoissonJobLoad(h, rng, unit_load=0.0)


def test_trace_load_replays_points():
    k, h = make_host()
    TraceLoad(h, [(5.0, 1.0), (10.0, 3.0), (15.0, 0.5)]).start()
    k.run(until=6.0)
    assert h.background_load == pytest.approx(1.0)
    k.run(until=11.0)
    assert h.background_load == pytest.approx(3.0)
    k.run(until=16.0)
    assert h.background_load == pytest.approx(0.5)


def test_trace_load_validation():
    _, h = make_host()
    with pytest.raises(SimulationError):
        TraceLoad(h, [])
    with pytest.raises(SimulationError):
        TraceLoad(h, [(5.0, 1.0), (5.0, 2.0)])  # not increasing
    with pytest.raises(SimulationError):
        TraceLoad(h, [(-1.0, 1.0)])
    with pytest.raises(SimulationError):
        TraceLoad(h, [(1.0, -2.0)])


def test_generators_compose_on_separate_hosts():
    k = EventKernel()
    h1 = SimHost("h1", k, 50.0)
    h2 = SimHost("h2", k, 50.0)
    SquareWaveLoad(h1, low=0.0, high=1.0, period=20.0).start()
    ConstantLoad(h2, 2.0).start()
    k.run(until=15.0)
    assert h1.background_load == pytest.approx(1.0)
    assert h2.background_load == pytest.approx(2.0)


# ----------------------------------------------------------------------
# arrival processes and rate profiles
# ----------------------------------------------------------------------
def test_diurnal_rate_swings_between_low_and_high():
    rate = diurnal_rate(low=1.0, high=9.0, period=100.0, peak_at=0.25)
    assert rate(25.0) == pytest.approx(9.0)   # peak
    assert rate(75.0) == pytest.approx(1.0)   # trough
    assert rate(0.0) == pytest.approx(5.0)    # midline
    with pytest.raises(SimulationError):
        diurnal_rate(low=5.0, high=1.0)


def test_flash_crowd_ramp_hold_decay():
    rate = flash_crowd(2.0, at=100.0, magnitude=5.0,
                       ramp=10.0, hold=20.0, decay=50.0)
    assert rate(50.0) == pytest.approx(2.0)           # before the event
    assert rate(105.0) == pytest.approx(2.0 * 3.0)    # mid-ramp
    assert rate(120.0) == pytest.approx(10.0)         # holding
    assert rate(130.0) == pytest.approx(10.0)         # end of hold
    assert 2.0 < rate(1000.0) < 10.0                  # decaying back
    # composes over a profile
    base = diurnal_rate(low=1.0, high=3.0, period=1000.0)
    spiky = flash_crowd(base, at=0.0, magnitude=2.0, ramp=0.0,
                        hold=10.0, decay=5.0)
    assert spiky(5.0) == pytest.approx(2.0 * base(5.0))


def test_arrival_process_homogeneous_rate():
    k = EventKernel()
    rng = RngStreams(11).get("arrivals")
    hits = []
    ArrivalProcess(k, rng, 10.0, lambda: hits.append(k.now)).start()
    k.run(until=100.0)
    # ~1000 expected; a 5-sigma band is ~±160
    assert 800 <= len(hits) <= 1200
    assert hits == sorted(hits)


def test_arrival_process_limit_and_stop():
    k = EventKernel()
    rng = RngStreams(12).get("arrivals")
    hits = []
    gen = ArrivalProcess(k, rng, 5.0, lambda: hits.append(k.now), limit=7)
    gen.start()
    k.run(until=1000.0)
    assert len(hits) == 7 and gen.arrivals == 7
    gen.stop()
    assert k.pending() == 0


def test_arrival_process_tracks_rate_profile():
    k = EventKernel()
    rng = RngStreams(13).get("arrivals")
    # step profile: silent for 100 s, then 20/s
    rate = lambda t: 0.0 if t < 100.0 else 20.0
    hits = []
    ArrivalProcess(k, rng, rate, lambda: hits.append(k.now),
                   rate_max=20.0).start()
    k.run(until=200.0)
    assert all(t >= 100.0 for t in hits)
    assert 1600 <= len(hits) <= 2400
    # a profile exceeding its bound is an error, not silent undersampling
    k2 = EventKernel()
    bad = ArrivalProcess(k2, RngStreams(14).get("a"), lambda t: 50.0,
                         lambda: None, rate_max=10.0)
    with pytest.raises(SimulationError):
        bad.start()
        k2.run(until=10.0)


def test_arrival_process_validation():
    k = EventKernel()
    rng = RngStreams(15).get("a")
    with pytest.raises(SimulationError):
        ArrivalProcess(k, rng, 0.0, lambda: None)
    with pytest.raises(SimulationError):
        ArrivalProcess(k, rng, lambda t: 1.0, lambda: None)  # no rate_max


# ----------------------------------------------------------------------
# failure generators
# ----------------------------------------------------------------------
def test_correlated_failures_crash_whole_groups():
    k = EventKernel()
    rng = RngStreams(16).get("faults")
    down, events = set(), []

    def crash(u):
        down.add(u)
        events.append(("crash", u, k.now))

    def revive(u):
        down.discard(u)
        events.append(("revive", u, k.now))

    groups = [("a1", "a2"), ("b1", "b2", "b3")]
    gen = CorrelatedFailures(k, rng, groups, crash, revive,
                             rate=1 / 50.0, repair_mean=20.0)
    gen.start()
    k.run(until=2000.0)
    gen.stop()
    assert gen.failures > 0 and gen.repairs > 0
    # members of a group always transition at the same instant
    by_time = {}
    for kind, u, t in events:
        by_time.setdefault((kind, t), set()).add(u)
    for (kind, _t), units in by_time.items():
        assert units in (set(groups[0]), set(groups[1]))


def test_breakdown_repair_availability():
    k = EventKernel()
    rng = RngStreams(17).get("faults")
    up_since, downtime = {}, {}

    def crash(u):
        up_since[u] = None
        downtime.setdefault(u, []).append(k.now)

    def revive(u):
        downtime[u].append(-k.now)

    units = [f"s{i}" for i in range(20)]
    gen = BreakdownRepair(k, rng, units, crash, revive,
                          mttf=100.0, mttr=25.0)
    assert gen.availability == pytest.approx(0.8)
    gen.start()
    horizon = 10_000.0
    k.run(until=horizon)
    gen.stop()
    assert gen.breakdowns > 0 and gen.repairs > 0
    # measured availability over all units should be near mttf/(mttf+mttr)
    # (marks alternate +t_crash, -t_revive; an odd tail is still down)
    total_down = 0.0
    for u, marks in downtime.items():
        for t_crash, t_revive in zip(marks[::2], marks[1::2]):
            total_down += -t_revive - t_crash
        if len(marks) % 2 == 1:
            total_down += horizon - marks[-1]
    measured = 1.0 - total_down / (horizon * len(units))
    assert measured == pytest.approx(gen.availability, abs=0.05)


def test_failure_generator_validation():
    k = EventKernel()
    rng = RngStreams(18).get("f")
    with pytest.raises(SimulationError):
        CorrelatedFailures(k, rng, [], lambda u: None, lambda u: None,
                           rate=1.0, repair_mean=1.0)
    with pytest.raises(SimulationError):
        BreakdownRepair(k, rng, ["x"], lambda u: None, lambda u: None,
                        mttf=0.0, mttr=1.0)
