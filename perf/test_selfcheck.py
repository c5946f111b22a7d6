"""Self-check of the benchmark (run with ``python -m pytest perf/``).

Outside tier-1's ``testpaths`` on purpose: it starts real sockets and
subprocesses and takes about 15 s.  It does not judge performance; it
checks that one tiny round produces every named metric, finite and with
its unit, that ``BENCHMARK.json`` says what ``perf/metrics.py`` says,
and that the single-workload entry point keeps the result contract.
"""

import json
import math
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf.compare import compare, verdict  # noqa: E402
from perf.metrics import (  # noqa: E402
    DRIVER_BOUND,
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    spread,
)

RUN = [sys.executable, str(ROOT / "perf" / "run.py")]


@pytest.fixture(scope="module")
def quick_report():
    out = ROOT / "perf" / "results" / "quick.json"
    out.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        [*RUN, "--quick"], capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout, elapsed


def test_quick_round_is_quick(quick_report):
    _report, _stdout, elapsed = quick_report
    assert elapsed < 20.0


def test_every_end_to_end_metric_is_present_finite_and_has_a_unit(quick_report):
    report, stdout, _ = quick_report
    assert report["errors"] == []
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, entry in report["workloads"].items():
        expected = {m for m, spec in END_TO_END.items() if name in spec[3]}
        assert set(entry["end_to_end"]) == expected
        for metric, m in entry["end_to_end"].items():
            assert m["unit"] == END_TO_END[metric][0]
            assert m["bound"] == END_TO_END[metric][2]
            assert math.isfinite(m["median"]), (name, metric)
            assert metric in stdout
            if metric != "failed_share":
                assert m["median"] > 0, (name, metric)
        assert entry["failed"] == 0
        assert entry["end_to_end"]["failed_share"]["median"] == 0.0


def test_every_per_layer_metric_is_present_or_explicitly_null(quick_report):
    report, _stdout, _ = quick_report
    for name, entry in report["workloads"].items():
        layers = entry["per_layer"]
        assert set(layers) == set(PER_LAYER)
        for metric, m in layers.items():
            assert m["unit"] == PER_LAYER[metric][0]
            assert m["value"] is None or math.isfinite(m["value"]), (
                name, metric,
            )
        sim = name.startswith("sim_")
        # a layer that does not run on a transport reads null there
        assert (layers["kernel.us_per_event"]["value"] is None) != sim
        assert (layers["tcp.send_us_per_req"]["value"] is None) == sim
        assert (layers["cache.agent_hit_share"]["value"] is None) == (
            name != "tcp_repeat"
        )
        if name.startswith("tcp_"):
            assert layers["codec.size_us_per_req"]["value"] is None


def test_environment_is_stamped(quick_report):
    report, _stdout, _ = quick_report
    env = report["environment"]
    for key in ("commit", "dirty", "python", "numpy", "cpu_count",
                "platform", "seed", "rounds", "seconds"):
        assert key in env
    assert env["rounds"] == 1


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perf/run.py"]
    assert doc["paths"] == ["perf"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    } == {
        name: (*END_TO_END[name][:2], DRIVER_BOUND)
        for name in DRIVER_END_TO_END
    }
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == PER_LAYER


@pytest.mark.parametrize(
    "trace,names",
    [(0, {k: END_TO_END[k] for k in DRIVER_END_TO_END}), (1, PER_LAYER)],
)
def test_single_workload_result_line(trace, names):
    proc = subprocess.run(
        [*RUN, "--workload", "sim_scale", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name][0]
        assert math.isfinite(m["value"])


def test_same_seed_gives_the_same_virtual_results():
    def virtual(seed):
        proc = subprocess.run(
            [*RUN, "--workload", "sim_brokered", "--seed", str(seed),
             "--seconds", "0.5", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
        return detail["values"]["virtual_turnaround_p99_s"], detail["exact"]

    assert virtual(5) == virtual(5)
    assert virtual(5) != virtual(6)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perf"
    bench.mkdir()
    for path in (ROOT / "perf").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "tcp_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def _entry(rounds, *, better="lower", bound=0.10, exact=False):
    ordered = sorted(rounds)
    mid = ordered[len(ordered) // 2]
    return {"unit": "ms", "better": better, "bound": bound, "exact": exact,
            "median": mid, "spread": spread(rounds), "rounds": rounds}


def test_compare_verdicts():
    base = _entry([10.0, 10.1, 10.2])
    assert verdict("solve_p50_ms", base, _entry([10.3, 10.2, 10.4])) == "ok"
    assert verdict("solve_p50_ms", base, _entry([12.0, 12.1, 12.2])) == (
        "REGRESSION"
    )
    assert verdict("solve_p50_ms", base, _entry([8.0, 8.1, 8.2])) == "improved"
    # a spread wider than the bound leaves overlapping rounds unresolved ...
    assert verdict("solve_p50_ms", base, _entry([9.0, 10.5, 12.5])) == (
        "unresolved"
    )
    # ... unless every round of one side beats every round of the other
    assert verdict("solve_p50_ms", base, _entry([12.0, 13.0, 15.0])) == (
        "REGRESSION"
    )
    exact = _entry([2.5, 2.5, 2.5], bound=0.005, exact=True)
    assert verdict("virtual_makespan_s", exact, exact) == "identical"
    assert verdict(
        "virtual_makespan_s", exact,
        _entry([2.51, 2.51, 2.51], bound=0.005, exact=True),
    ) == "changed"
    assert verdict(
        "virtual_makespan_s", exact,
        _entry([2.6, 2.6, 2.6], bound=0.005, exact=True),
    ) == "REGRESSION"
    none_failed = _entry([0.0, 0.0, 0.0], bound=0.0, exact=True)
    assert verdict(
        "failed_share", none_failed,
        _entry([0.01, 0.01, 0.01], bound=0.0, exact=True),
    ) == "REGRESSION"
    # setup_s needs both the share and a quarter of a second
    setup = _entry([0.05, 0.05, 0.05], bound=0.25)
    assert verdict("setup_s", setup, _entry([0.2, 0.2, 0.2], bound=0.25)) == "ok"


def test_compare_flags_a_regression_in_a_report(quick_report):
    report, _stdout, _ = quick_report
    worse = json.loads(json.dumps(report))
    m = worse["workloads"]["sim_scale"]["end_to_end"]["virtual_makespan_s"]
    m["rounds"] = [v * 1.5 for v in m["rounds"]]
    m["median"] *= 1.5
    rows, failed = compare(report, worse)
    assert failed
    assert [r for r in rows if r[-1] == "REGRESSION"] == [
        r for r in rows if r[1] == "virtual_makespan_s" and r[0] == "sim_scale"
    ]
    assert compare(report, report)[1] is False
