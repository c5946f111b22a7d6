"""Unit tests for the completion-time predictor."""

import pytest

from repro.errors import ConfigError
from repro.core.predictor import (
    LinkEstimate,
    StaticNetworkInfo,
    effective_mflops,
    predict,
)
from repro.problems.builtin import builtin_registry


def test_link_estimate_transfer_seconds():
    link = LinkEstimate(latency=0.01, bandwidth=1e6)
    assert link.transfer_seconds(1e6) == pytest.approx(1.01)
    assert link.transfer_seconds(0) == pytest.approx(0.01)


def test_link_estimate_validation():
    with pytest.raises(ConfigError):
        LinkEstimate(latency=-1.0, bandwidth=1.0)
    with pytest.raises(ConfigError):
        LinkEstimate(latency=0.0, bandwidth=0.0)


def test_effective_mflops_idle_is_peak():
    assert effective_mflops(100.0, 0.0) == pytest.approx(100.0)


def test_effective_mflops_load_one_halves():
    # workload 100 == load average 1.0 -> half the machine
    assert effective_mflops(100.0, 100.0) == pytest.approx(50.0)


def test_effective_mflops_monotone_in_workload():
    values = [effective_mflops(100.0, w) for w in (0, 50, 100, 300)]
    assert values == sorted(values, reverse=True)


def test_effective_mflops_validation():
    with pytest.raises(ConfigError):
        effective_mflops(0.0, 0.0)
    with pytest.raises(ConfigError):
        effective_mflops(10.0, -1.0)


def test_predict_decomposition():
    link = LinkEstimate(latency=0.0, bandwidth=1e6)
    p = predict(
        flops=1e8,
        input_bytes=2e6,
        output_bytes=1e6,
        link=link,
        peak_mflops=100.0,
        workload=0.0,
    )
    assert p.send_seconds == pytest.approx(2.0)
    assert p.compute_seconds == pytest.approx(1.0)
    assert p.recv_seconds == pytest.approx(1.0)
    assert p.total == pytest.approx(4.0)
    assert p.network_seconds == pytest.approx(3.0)


def test_predict_workload_slows_compute_only():
    link = LinkEstimate(latency=0.0, bandwidth=1e6)
    idle = predict(flops=1e8, input_bytes=0, output_bytes=0, link=link,
                   peak_mflops=100.0, workload=0.0)
    busy = predict(flops=1e8, input_bytes=0, output_bytes=0, link=link,
                   peak_mflops=100.0, workload=100.0)
    assert busy.compute_seconds == pytest.approx(2 * idle.compute_seconds)
    assert busy.send_seconds == idle.send_seconds


def test_predict_use_workload_ablation():
    link = LinkEstimate(latency=0.0, bandwidth=1e6)
    blind = predict(flops=1e8, input_bytes=0, output_bytes=0, link=link,
                    peak_mflops=100.0, workload=500.0, use_workload=False)
    assert blind.compute_seconds == pytest.approx(1.0)


def test_predict_validation():
    link = LinkEstimate(latency=0.0, bandwidth=1.0)
    with pytest.raises(ConfigError):
        predict(flops=-1, input_bytes=0, output_bytes=0, link=link,
                peak_mflops=1.0, workload=0.0)


def test_predict_for_uses_spec_model():
    spec = builtin_registry().spec("linsys/dgesv")
    link = LinkEstimate(latency=0.001, bandwidth=1.25e6)
    n = 512
    env = {"n": n}
    p = predict(
        flops=spec.flops(env), input_bytes=spec.input_bytes(env),
        output_bytes=spec.output_bytes(env),
        link=link, peak_mflops=100.0, workload=0.0,
    )
    in_bytes = n * n * 8 + n * 8
    out_bytes = n * 8
    flops = 2 / 3 * n**3 + 2 * n**2
    assert p.send_seconds == pytest.approx(0.001 + in_bytes / 1.25e6)
    assert p.recv_seconds == pytest.approx(0.001 + out_bytes / 1.25e6)
    assert p.compute_seconds == pytest.approx(flops / 100e6)


def test_predict_for_larger_problems_cost_more():
    spec = builtin_registry().spec("linsys/dgesv")
    link = LinkEstimate(latency=0.001, bandwidth=1.25e6)
    totals = [
        predict(
            flops=spec.flops(env), input_bytes=spec.input_bytes(env),
            output_bytes=spec.output_bytes(env),
            link=link, peak_mflops=100.0, workload=0.0,
        ).total
        for env in ({"n": 64}, {"n": 256}, {"n": 1024})
    ]
    assert totals == sorted(totals)


# ----------------------------------------------------------------------
# StaticNetworkInfo
# ----------------------------------------------------------------------
def test_static_network_symmetric():
    net = StaticNetworkInfo()
    net.set("a", "b", LinkEstimate(0.5, 1e3))
    assert net.link("a", "b").latency == 0.5
    assert net.link("b", "a").latency == 0.5


def test_static_network_loopback():
    net = StaticNetworkInfo()
    link = net.link("a", "a")
    assert link.latency < 1e-3
    assert link.bandwidth > 1e8


def test_static_network_default_fallback():
    net = StaticNetworkInfo(default=LinkEstimate(1.0, 10.0))
    assert net.link("x", "y").latency == 1.0


def test_static_network_unknown_pair_raises():
    net = StaticNetworkInfo()
    with pytest.raises(ConfigError):
        net.link("x", "y")


def test_static_network_table_constructor():
    net = StaticNetworkInfo({("a", "b"): LinkEstimate(0.1, 100.0)})
    assert net.link("b", "a").bandwidth == 100.0
