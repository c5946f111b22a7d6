#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end to end and layer by layer.

Two ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``
    registers).  Prints every metric by name with its unit, then a
    ``{"detail": ...}`` line, then the one-line result object.
    ``--trace 0`` measures the end-to-end metrics with tracing off;
    ``--trace 1`` makes the traced pass and reports the per-layer table.

``python3 perf/run.py [--seed N] [--seconds S] [--quick]``
    The full set: 3 interleaved rounds over all six workloads, each
    workload-round in a fresh subprocess, then one traced pass per
    workload.  Medians and spreads go to ``perf/results/latest.json``
    (``--quick``: one tiny round into ``quick.json``).

``--seconds`` is how long a run measures, by the clock: a tcp workload
sends requests until the time is up, a simulator workload builds and
runs its scenario again and again until it is.  The scenario itself is
fixed by the seed, so the virtual-time results and the exact counters
repeat bit for bit however fast the machine is.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perf" / "results"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        "perf/run.py: no src/repro next to perf/ - there is no program "
        "here to benchmark\n"
    )
    sys.exit(2)
# the script directory would shadow the stdlib's ``trace`` with
# perf/trace.py; import everything through the ``perf`` package instead
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perf.metrics import (  # noqa: E402
    DRIVER_END_TO_END,
    END_TO_END,
    EXACT_ON_SIM,
    PER_LAYER,
    WORKLOADS,
    median,
    spread,
)

#: rounds of the full set (``--quick``: one)
ROUNDS = 3
#: One run builds a tcp deployment this many times and reports the
#: median set-up time; a simulator scenario is built once per repetition.
SETUPS = 5
#: warm-up requests per tcp set-up
WARMUP = {"tcp_small": 100, "tcp_large": 20, "tcp_farm": 100,
          "tcp_repeat": 150}
#: A tcp request trace is drawn for this many requests per second of
#: ``--seconds``, several times what the fastest workload completes; a
#: phase that outruns its trace ends when the trace does.
TRACE_PER_SECOND = 4000
#: simulator scenarios: servers (sim_scale, 100 requests each) and
#: requests (sim_brokered, on 200 servers).  One repetition takes about
#: 1.5 s on the 2-core reference box.
SIM_SCALE_SERVERS = 90
SIM_BROKERED_SERVERS = 200
SIM_BROKERED_REQUESTS = 900
#: below this many ``--seconds`` (the self-check) warm-ups, set-ups and
#: scenarios shrink in proportion
FULL_SIZE_SECONDS = 5.0
NOISE_LIMIT = 0.10


# ----------------------------------------------------------------------
# machine calibration
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Milliseconds for a fixed pure-Python + NumPy loop (best of 5).

    The same work before and after a run: if the two readings differ by
    more than NOISE_LIMIT the machine changed speed underneath the run.
    The timed loop allocates nothing: NumPy writes into a buffer made
    beforehand, so the reading does not depend on what the workload left
    in the allocator (a 512 KB temporary is mmap-ed or not according to
    the heap's history, a 2x difference).  The NumPy half is
    element-wise on purpose: a matrix product would time the BLAS thread
    pool's start-up, which swings 40x on two cores.
    """
    a = np.linspace(0.0, 1.0, 1 << 16)
    out = np.empty_like(a)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i & 0xFF
        for _ in range(40):
            np.multiply(a, a, out=out)
            np.add(out, 1.0, out=out)
            np.sqrt(out, out=out)
            acc += float(out.sum())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


# ----------------------------------------------------------------------
# one workload, this process
# ----------------------------------------------------------------------
def _scaled(full: int, seconds: float, least: int) -> int:
    """``full`` from FULL_SIZE_SECONDS up, in proportion below."""
    share = min(1.0, seconds / FULL_SIZE_SECONDS)
    return max(least, int(round(full * share)))


def _tcp_snapshot(dep) -> dict:
    servers = dep.servers
    stats = [s.result_cache.stats() for s in servers]
    pools = [n._pool for n in dep.transport.nodes.values()]
    return {
        "queries": dep.agent.queries_served,
        "sheds": sum(s.requests_shed for s in servers),
        "served": sum(s.requests_served for s in servers),
        "batched": sum(s.batched_requests for s in servers),
        "peak_queue": max(s.peak_queue for s in servers),
        "dials": sum(p.dials for p in pools),
        "reuses": sum(p.reuses for p in pools),
        "agent": dep.agent.result_cache.stats(),
        "servers": {
            k: sum(st[k] for st in stats)
            for k in ("hits", "misses", "evictions")
        },
    }


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {
                k: v - before[key][k] for k, v in value.items()
                if k in ("hits", "misses", "evictions")
            }
        elif key == "peak_queue":
            out[key] = value
        else:
            out[key] = value - before[key]
    return out


def _latency_ms(tally) -> np.ndarray:
    return np.asarray(tally.latency_ns, dtype=np.float64) / 1e6


def run_tcp(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perf import tcpbench

    warmup = _scaled(WARMUP[name], seconds, 8)
    plan = tcpbench.Plan(
        name, seed, warmup=warmup,
        length=warmup + max(64, int(TRACE_PER_SECOND * seconds)),
    )
    tracer = None
    if trace:
        from perf.trace import Tracer

        tracer = Tracer(cpu=True)
        tracer.install()
    try:
        # SETUPS deployments, the last one kept.  The traced pass does
        # the same so that it measures at the same process age: on the
        # reference box a threaded process runs ~1.7x faster during its
        # first second or so, until its threads are spread over both
        # cores; the repeated set-up absorbs that.
        setups, warm_failed, warm_attempted = [], 0, 0
        dep = None
        for _ in range(_scaled(SETUPS, seconds, 2)):
            if dep is not None:
                dep.close()
            dep, setup_s, warm = tcpbench.set_up(plan)
            setups.append(setup_s)
            warm_failed += warm.failed
            warm_attempted += warm.attempted
        try:
            plain = tcpbench.Tally()
            at = tcpbench.drive(
                dep, plan, warmup, plain,
                seconds=seconds / 4 if trace else seconds,
            )
            if trace:
                before = _tcp_snapshot(dep)
                tally = tcpbench.Tally()
                tracer.enabled = True
                tcpbench.drive(
                    dep, plan, at, tally, seconds=seconds / 2, tracer=tracer
                )
                tracer.enabled = False
                counters = _delta(_tcp_snapshot(dep), before)
        finally:
            dep.close()
    finally:
        if tracer is not None:
            tracer.uninstall()

    plain_lat = _latency_ms(plain)
    if not plain_lat.size:
        raise RuntimeError(f"{name}: no request was verified")
    result = {
        "transport": "tcp loopback 127.0.0.1 (not a real link)",
        "loop": f"closed, window {plan.window}",
        "problems": [],
        "attempted": warm_attempted + plain.attempted,
        "failed": warm_failed + plain.failed,
    }
    if not trace:
        result.update({
            "sizes": {"warmup": warmup, "timed": plain.attempted,
                      "timed_wall_s": plain.wall_s, "setups": len(setups)},
            "setup_samples_s": setups,
            "values": {
                "setup_s": median(setups),
                "req_per_s": plain_lat.size / plain.wall_s,
                "cpu_ms_per_req": 1e3 * plain.cpu_s / plain_lat.size,
                "solve_p50_ms": float(np.median(plain_lat)),
                "solve_p99_ms": float(np.percentile(plain_lat, 99)),
                "peak_rss_mb": _peak_rss_mb(),
            },
            "samples": {"latency": int(plain_lat.size),
                        "beyond_p99": int(plain_lat.size) // 100},
            # nothing on tcp repeats bit for bit: see metrics.EXACT_ON_SIM
            "exact": {},
        })
        return result

    from perf.layers import layer_table

    lat = _latency_ms(tally)
    if not lat.size:
        raise RuntimeError(f"{name}: no traced request was verified")
    counters["pools"] = [p.stats() for p in tracer.pools]
    counters["turnaround_p99_ms"] = float(np.percentile(lat, 99))
    if plan.deploy.get("cache"):
        counters["caches"] = {
            "agent": counters["agent"], "servers": counters["servers"]
        }
    result["attempted"] += tally.attempted
    result["failed"] += tally.failed
    result.update({
        "sizes": {"warmup": warmup, "untraced": plain.attempted,
                  "traced": tally.attempted},
        "layers": layer_table(
            tracer, transport="tcp", verified=int(lat.size),
            traced_wall_s=tally.wall_s,
            untraced_wall_per_req_s=plain.wall_s / plain_lat.size,
            records=tally.records, counters=counters,
        ),
        "tracer": tracer,
    })
    return result


def _virtual(out: dict) -> dict:
    p50, p99 = np.percentile(out["turnaround_s"], [50, 99])
    return {
        "virtual_turnaround_p50_s": float(p50),
        "virtual_turnaround_p99_s": float(p99),
        "virtual_makespan_s": out["virtual_makespan_s"],
    }


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perf import simbench

    if name == "sim_scale":
        n_servers, n_requests = _scaled(SIM_SCALE_SERVERS, seconds, 4), None
    else:
        n_servers = SIM_BROKERED_SERVERS
        n_requests = _scaled(SIM_BROKERED_REQUESTS, seconds, 20)
    problems: list[str] = []

    def once(tracer=None):
        gc.collect()
        out = simbench.run_once(
            name, seed, n_servers, n_requests, tracer=tracer
        )
        problems.extend(out["problems"])
        return out

    common = {
        "transport": "simulator (virtual time)",
        "loop": "open, Poisson arrivals on the event kernel, "
                "generator lateness 0 s (asserted per arrival)",
        "problems": problems,
    }
    if not trace:
        deadline = time.perf_counter() + seconds
        runs = [once(), once()]
        while time.perf_counter() < deadline:
            runs.append(once())
        first = runs[0]
        virtual = _virtual(first)
        for other in runs[1:]:
            if _virtual(other) != virtual or other["exact"] != first["exact"]:
                problems.append(
                    "virtual results differ between repetitions of one seed"
                )
        completed = sum(r["completed"] for r in runs)
        return {
            **common,
            "attempted": sum(r["offered"] for r in runs),
            "failed": sum(r["offered"] - r["completed"] for r in runs),
            "sizes": {"servers": n_servers, "requests": first["offered"],
                      "repetitions": len(runs)},
            "setup_samples_s": [r["setup_s"] for r in runs],
            "values": {
                "setup_s": median([r["setup_s"] for r in runs]),
                "req_per_s": completed / sum(r["wall_s"] for r in runs),
                "cpu_ms_per_req": 1e3 * sum(r["cpu_s"] for r in runs)
                / completed,
                # the result line carries one turnaround on every
                # workload: here what a simulated caller waits
                "solve_p50_ms": virtual["virtual_turnaround_p50_s"] * 1e3,
                "peak_rss_mb": _peak_rss_mb(),
                **virtual,
            },
            "samples": {"latency": first["completed"],
                        "beyond_p99": first["completed"] // 100},
            "repetition_req_per_s": [
                r["completed"] / r["wall_s"] for r in runs
            ],
            "exact": first["exact"],
        }

    from perf.layers import layer_table
    from perf.trace import Tracer

    plain = once()
    tracer = Tracer()
    tracer.install()
    tracer.patch_method(simbench.DriverEndpoint, "on_message")
    try:
        traced = once(tracer)
    finally:
        tracer.uninstall()
    if _virtual(traced) != _virtual(plain) or traced["exact"] != plain["exact"]:
        problems.append("tracing changed the virtual results")
    counters = {
        "queries": traced.get("queries", 0),
        "events": traced["exact"]["kernel.events"],
        "compactions": traced["exact"]["kernel.compactions"],
        "sheds": traced["sheds"],
        "served": traced["served"],
        "batched": traced["batched"],
        "peak_queue": traced["peak_queue"],
        "driver_retries": traced["retries"],
        "turnaround_p99_ms": _virtual(traced)["virtual_turnaround_p99_s"] * 1e3,
        **_virtual(traced),
    }
    table = layer_table(
        tracer, transport="sim", verified=traced["completed"],
        traced_wall_s=traced["wall_s"],
        untraced_wall_per_req_s=plain["wall_s"] / max(plain["completed"], 1),
        records=traced.get("records"), counters=counters,
    )
    return {
        **common,
        "attempted": plain["offered"] + traced["offered"],
        "failed": (plain["offered"] - plain["completed"])
        + (traced["offered"] - traced["completed"]),
        "sizes": {"servers": n_servers, "requests": traced["offered"]},
        "layers": table,
        "tracer": tracer,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(args) -> int:
    name, trace = args.workload, bool(args.trace)
    calib_before = calibrate()
    runner = run_tcp if name.startswith("tcp_") else run_sim
    result = runner(name, args.seed, args.seconds, trace)
    calib_after = calibrate()
    tracer = result.pop("tracer", None)
    calib = {
        "before_ms": calib_before,
        "after_ms": calib_after,
        "noisy": abs(calib_after - calib_before)
        > NOISE_LIMIT * min(calib_before, calib_after),
    }
    correct = not result["problems"] and result["failed"] == 0
    print(
        f"# workload={name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={int(trace)}"
    )
    print(f"# deployment: {result['transport']}; loop: {result['loop']}")
    print(f"# sizes: {result['sizes']}")
    if trace:
        table = result["layers"]
        table["machine.calib_ms"] = (calib_before + calib_after) / 2.0
        units = {k: v[0] for k, v in PER_LAYER.items()}
        # The result line must give a number for every per-layer metric
        # BENCHMARK.json lists, so a layer that did not run reads 0
        # there; the table above it and the detail line say null.
        contract = {
            k: {"value": 0.0 if table[k] is None else table[k],
                "unit": units[k]}
            for k in PER_LAYER
        }
        for k in PER_LAYER:
            shown = "null" if table[k] is None else f"{table[k]:.6g}"
            print(f"{k:<36} {shown:>14} {units[k]}")
        path = RESULTS / f"trace_{name}.json"
        tracer.write(path, extra={
            "workload": name, "seed": args.seed, "seconds": args.seconds,
        })
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        values = result["values"]
        contract = {
            k: {"value": values[k], "unit": END_TO_END[k][0]}
            for k in DRIVER_END_TO_END
        }
        for k, v in values.items():
            print(f"{k:<36} {v:>14.6g} {END_TO_END[k][0]}")
        print(
            f"{'failed_share':<36} "
            f"{result['failed'] / result['attempted']:>14.6g} share"
        )
    for problem in result["problems"]:
        print(f"! {problem}")
    print(json.dumps({"detail": {**result, "calib": calib}}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the full set: rounds of subprocesses, then the traced pass
# ----------------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"),
         "--workload", name, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"{name}: worker exit {proc.returncode}, no result\n{proc.stderr}"
        )
    detail = json.loads(lines[-2])["detail"]
    detail["result"] = json.loads(lines[-1])
    detail["exit"] = proc.returncode
    return detail


def _git(*cmd: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(args) -> dict:
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": 1 if args.quick else ROUNDS,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def orchestrate(args) -> int:
    errors: list[str] = []
    rounds: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for r in range(1 if args.quick else ROUNDS):
        for name in WORKLOADS:
            detail = _spawn(name, args.seed, args.seconds, 0)
            if detail["calib"]["noisy"] and not args.quick:
                print(f"round {r} {name}: machine noisy, re-running once")
                again = _spawn(name, args.seed, args.seconds, 0)
                again["rerun_of_noisy"] = True
                detail = again
            rounds[name].append(detail)
            v = detail["values"]
            print(
                f"round {r} {name:<13} req_per_s {v['req_per_s']:>10.2f}  "
                f"solve_p50_ms {v['solve_p50_ms']:>9.3f}  "
                f"setup_s {v['setup_s']:.3f}"
                + ("  (noisy)" if detail["calib"]["noisy"] else "")
            )
    report: dict = {"environment": environment(args), "workloads": {}}
    for name, details in rounds.items():
        entry = {
            "why": WORKLOADS[name],
            "deployment": details[0]["transport"],
            "loop": details[0]["loop"],
            "sizes": details[0]["sizes"],
            "end_to_end": {},
        }
        attempted = sum(d["attempted"] for d in details)
        failed = sum(d["failed"] for d in details)
        for d in details:
            errors.extend(f"{name}: {p}" for p in d["problems"])
            if d["exit"] != 0:
                errors.append(f"{name}: worker exited {d['exit']}")
        for metric, (unit, better, bound, where, exact) in END_TO_END.items():
            if name not in where:
                continue
            if metric == "failed_share":
                values = [d["failed"] / d["attempted"] for d in details]
            else:
                values = [d["values"][metric] for d in details]
            if exact and len(set(values)) > 1:
                errors.append(
                    f"{name}: {metric} differs between rounds: {values}"
                )
            entry["end_to_end"][metric] = {
                "unit": unit, "better": better, "bound": bound,
                "exact": exact, "median": median(values),
                "spread": spread(values), "rounds": values,
            }
        exacts = [d["exact"] for d in details]
        if any(e != exacts[0] for e in exacts[1:]):
            errors.append(f"{name}: exact counts differ between rounds")
        entry["exact_counts"] = exacts[0]
        entry["attempted"], entry["failed"] = attempted, failed
        entry["calibration"] = [d["calib"] for d in details]
        entry["noisy_rounds"] = sum(d["calib"]["noisy"] for d in details)
        report["workloads"][name] = entry

    for name in WORKLOADS:
        detail = _spawn(name, args.seed, args.seconds, 1)
        errors.extend(f"{name} (traced): {p}" for p in detail["problems"])
        if detail["exit"] != 0:
            errors.append(f"{name} (traced): worker exited {detail['exit']}")
        report["workloads"][name]["per_layer"] = {
            metric: {"unit": PER_LAYER[metric][0], "value": value}
            for metric, value in detail["layers"].items()
        }
        report["workloads"][name]["per_layer_exact"] = (
            list(EXACT_ON_SIM) if name.startswith("sim_") else []
        )
    report["errors"] = errors
    _print_report(report)
    out = RESULTS / ("quick.json" if args.quick else "latest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    for error in errors:
        print(f"ERROR {error}")
    return 1 if errors else 0


def _print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"\ncommit {env['commit']} dirty={env['dirty']} python {env['python']} "
        f"numpy {env['numpy']} cpus {env['cpu_count']} seed {env['seed']} "
        f"rounds {env['rounds']}"
    )
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['deployment']}; {entry['loop']}")
        for metric, m in entry["end_to_end"].items():
            print(
                f"  {metric:<28} {m['median']:>14.6g} {m['unit']:<6}"
                f" spread {m['spread']:.3f}"
                + ("  exact" if m["exact"] else f"  bound {m['bound']:g}")
            )
        for metric, m in entry.get("per_layer", {}).items():
            shown = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"    {metric:<34} {shown:>14} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="self-check: one round, tiny counts, into quick.json",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive, --seed >= 0")
    if args.workload is not None:
        return worker(args)
    if args.quick:
        args.seconds = 0.3
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
