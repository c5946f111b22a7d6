"""Tests for the CLI daemons, including a real multi-process deployment."""

import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tools.agent import build_parser as agent_parser
from repro.tools.common import parse_endpoint
from repro.tools.demo import build_parser as demo_parser
from repro.tools.server import build_parser as server_parser, select_problems


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------
def test_parse_endpoint():
    assert parse_endpoint("10.0.0.1:8080") == ("10.0.0.1", 8080)
    assert parse_endpoint("host", default_port=7) == ("host", 7)
    with pytest.raises(ConfigError):
        parse_endpoint("host")
    with pytest.raises(ConfigError):
        parse_endpoint(":80")
    with pytest.raises(ConfigError):
        parse_endpoint("h:notaport")
    with pytest.raises(ConfigError):
        parse_endpoint("h:70000")


def test_agent_parser_defaults():
    args = agent_parser().parse_args([])
    assert args.port == 7700 and args.policy == "mct"
    assert not args.learn_network


def test_agent_parser_rejects_bad_policy():
    with pytest.raises(SystemExit):
        agent_parser().parse_args(["--policy", "bogus"])


def test_server_parser_requires_agent_and_mflops():
    with pytest.raises(SystemExit):
        server_parser().parse_args([])
    args = server_parser().parse_args(
        ["--agent", "h:1", "--mflops", "100", "--problems", "linsys/"]
    )
    assert args.problems == ["linsys/"]


def test_select_problems_prefix_filter():
    registry = select_problems(["linsys/", "blas/"])
    assert all(
        n.startswith(("linsys/", "blas/")) for n in registry.names()
    )
    assert len(registry) > 0
    assert len(select_problems(None)) == 26


def test_demo_parser():
    args = demo_parser().parse_args(["--agent", "h:1", "--size", "64"])
    assert args.size == 64


def test_cache_flags_parse():
    args = server_parser().parse_args([
        "--agent", "h:1", "--mflops", "100",
        "--cache-entries", "64", "--cache-ttl", "30",
        "--cache-publish-bytes", "4096", "--store", "/tmp/jobs.sqlite",
    ])
    assert args.cache_entries == 64 and args.cache_ttl == 30.0
    assert args.cache_publish_bytes == 4096
    assert args.store == "/tmp/jobs.sqlite"
    args = agent_parser().parse_args(["--cache-entries", "32"])
    assert args.cache_entries == 32 and args.cache_ttl == 0.0


# ----------------------------------------------------------------------
# derived cache stats in `metrics show`
# ----------------------------------------------------------------------
def test_cache_stats_derivation():
    from repro.tools.metrics import cache_stats

    snapshot = {
        "counters": {
            "server.cache_hits": 30,
            "server.cache_misses": 10,
            "server.cache_bytes_saved": 8192,
            "agent.cache_hits": 5,
            "agent.cache_misses": 15,
            "agent.cache_inserts": 7,
        },
    }
    rows = {row[0]: row for row in cache_stats(snapshot)}
    assert rows["server"][1:4] == [30, 10, "75.0%"]
    assert "8192" in rows["server"][4]
    assert rows["agent"][1:4] == [5, 15, "25.0%"]
    assert "7 inserts" in rows["agent"][4]


def test_cache_stats_absent_without_cache_counters():
    from repro.tools.metrics import cache_stats

    # an uncached run's snapshot: no cache rows, `show` prints nothing
    assert cache_stats({"counters": {"client.submits": 4}}) == []
    assert cache_stats({}) == []
    # zero lookups never divide by zero
    rows = cache_stats({"counters": {"server.cache_hits": 0,
                                     "server.cache_misses": 0}})
    assert rows == [["server", 0, 0, "-", "0 B saved"]]


def test_metrics_show_renders_cache_section(tmp_path, capsys):
    from repro.tools.metrics import main as metrics_main

    snap = tmp_path / "snap.json"
    snap.write_text(
        '{"counters": {"server.cache_hits": 3, "server.cache_misses": 1, '
        '"server.cache_bytes_saved": 64}, "gauges": {}, "histograms": {}}'
    )
    assert metrics_main(["show", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "result caches (derived)" in out
    assert "75.0%" in out


# ----------------------------------------------------------------------
# a real three-process deployment
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_multiprocess_deployment():
    port = free_port()
    agent = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.agent", "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    server = None
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), 0.2).close()
                break
            except OSError:
                time.sleep(0.05)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.server",
             "--agent", f"127.0.0.1:{port}", "--mflops", "250",
             "--server-id", "t0", "--workload-step", "0.5"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        time.sleep(1.0)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.demo",
             "--agent", f"127.0.0.1:{port}", "--size", "120",
             "--count", "2", "--timeout", "60"],
            capture_output=True, text=True, timeout=90,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "server=t0" in result.stdout
        assert "residual" in result.stdout
    finally:
        agent.terminate()
        if server is not None:
            server.terminate()
        agent.wait(timeout=10)
        if server is not None:
            server.wait(timeout=10)
    # the banner states the per-slot BLAS threading the pool will pin
    banner = server.stdout.read().decode()
    assert ("BLAS threads per slot: 1" in banner
            or "BLAS threads per slot: not controlled" in banner), banner


def test_server_refuses_empty_problem_set(tmp_path):
    from repro.tools.server import main

    rc = main([
        "--agent", "127.0.0.1:1",
        "--mflops", "10",
        "--problems", "no-such-prefix/",
    ])
    assert rc == 2


def test_server_validates_extra_pdl(tmp_path, capsys):
    pdl = tmp_path / "extra.pdl"
    pdl.write_text(
        "problem x/y\ncomplexity n\ninput a vector[n]\noutput b scalar\nend\n"
    )
    from repro.errors import PdlSyntaxError
    from repro.problems.pdl import parse_pdl_file

    assert len(parse_pdl_file(pdl)) == 1
    bad = tmp_path / "bad.pdl"
    bad.write_text("problem broken\n")
    with pytest.raises(PdlSyntaxError):
        parse_pdl_file(bad)
