"""``python -m repro.tools.server`` — run a computational server daemon.

Example::

    python -m repro.tools.server --agent 127.0.0.1:7700 --mflops 200 \\
        --problems linsys/ blas/ --pdl extra_problems.pdl

The server advertises the builtin catalogue (optionally filtered by
prefix) plus any extra problem description files; extra PDL problems
need handlers registered programmatically, so ``--pdl`` is parse-checked
here and rejected unless paired with ``--allow-unbound`` (useful for
validating descriptions before deployment).
"""

from __future__ import annotations

import argparse

from ..config import ServerConfig, WorkloadPolicy
from ..core.server import ComputationalServer
from ..numerics.threads import SLOT_BLAS_THREADS, blas_threads
from ..problems.builtin import builtin_registry
from ..problems.pdl import parse_pdl_file
from ..protocol.tcp import TcpTransport
from ..trace.instruments import MetricsRegistry
from .common import parse_named_endpoint, run_forever

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server", description="NetSolve computational server daemon"
    )
    parser.add_argument("--agent", required=True, action="append",
                        metavar="[NAME=]HOST:PORT",
                        help="agent endpoint (repeatable; extra agents are "
                             "registration failovers, tried in order). NAME "
                             "must match the agent daemon's --name; bare "
                             "HOST:PORT means the default name 'agent'")
    parser.add_argument("--register-timeout", type=float, default=30.0,
                        help="seconds to wait for RegisterAck before "
                             "rotating to the next --agent (only armed "
                             "when more than one is given)")
    parser.add_argument("--bind", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--server-id", default=None,
                        help="defaults to hostname:port")
    parser.add_argument("--mflops", type=float, required=True,
                        help="advertised peak speed")
    parser.add_argument(
        "--problems", nargs="*", default=None, metavar="PREFIX",
        help="restrict the catalogue to these name prefixes",
    )
    parser.add_argument("--pdl", nargs="*", default=[],
                        help="extra problem description files to validate")
    parser.add_argument("--workload-step", type=float, default=10.0)
    parser.add_argument("--workload-threshold", type=float, default=10.0)
    parser.add_argument("--max-concurrent", type=int, default=1)
    parser.add_argument("--workers", type=int, default=0,
                        help="compute-pool threads (0 = match the slot "
                             "count)")
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread",
                        help="run kernels on pool threads (default) or "
                             "opt GIL-bound handlers into child processes")
    parser.add_argument("--batch-max", type=int, default=1,
                        help="coalesce up to this many queued same-problem "
                             "shape-compatible requests into one stacked "
                             "kernel call while saturated (1 = off)")
    parser.add_argument("--max-queue", type=int, default=0,
                        help="admission cap on the FIFO queue: past this "
                             "many waiting requests the server replies "
                             "Busy instead of queueing (0 = unbounded)")
    parser.add_argument("--reregister", type=float, default=300.0,
                        help="re-registration interval (seconds, 0=off)")
    parser.add_argument("--cache-entries", type=int, default=0,
                        help="content-addressed result-cache entries; a "
                             "repeat request answers from the cache without "
                             "touching the kernel (0 = off)")
    parser.add_argument("--cache-ttl", type=float, default=0.0,
                        help="seconds before a cached result expires "
                             "(0 = LRU bound only)")
    parser.add_argument("--cache-publish-bytes", type=int, default=0,
                        help="publish fresh results up to this many encoded "
                             "bytes to the agent's hot cache (0 = never)")
    parser.add_argument("--handle-ttl", type=float, default=600.0,
                        help="seconds an unpinned resident object "
                             "(keep_result outputs, request-DAG "
                             "intermediates) lives after its last use "
                             "(0 = byte budget only; stored operands "
                             "never expire)")
    parser.add_argument("--store", metavar="PATH", default="",
                        help="SQLite file for the persistent job store; "
                             "finished results survive restarts and are "
                             "recoverable by request id")
    parser.add_argument("--qos-deadlines", metavar="I,B,BG", default=None,
                        help="per-class deadline offsets in seconds "
                             "(interactive,batch,background) for "
                             "earliest-deadline-first admission "
                             "(default 5,60,600)")
    parser.add_argument("--qos-shed", metavar="I,B,BG", default=None,
                        help="per-class queue shares in (0,1] "
                             "(interactive,batch,background): a class "
                             "past its share of --max-queue sheds Busy "
                             "(default 1,1,0.5)")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="attach a metrics registry and dump its "
                             "snapshot to PATH at shutdown")
    return parser


def parse_class_triple(text: str, flag: str) -> tuple[float, float, float]:
    """Parse an "interactive,batch,background" comma triple of floats."""
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit(f"{flag} needs exactly 3 comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise SystemExit(f"{flag}: non-numeric value in {text!r}")


def select_problems(prefixes: list[str] | None):
    registry = builtin_registry()
    if prefixes:
        names = [
            n for n in registry.names()
            if any(n.startswith(p) for p in prefixes)
        ]
        registry = registry.subset(names)
    return registry


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    agents = [parse_named_endpoint(a) for a in args.agent]
    agent_names = [name for name, _, _ in agents]
    if len(set(agent_names)) != len(agent_names):
        print(f"duplicate agent names in --agent: {agent_names}; "
              "name fleet members with NAME=HOST:PORT")
        return 2
    registry = select_problems(args.problems)
    for path in args.pdl:
        specs = parse_pdl_file(path)
        print(f"validated {path}: {len(specs)} problem description(s) "
              "(handlers must be registered programmatically)")
    if len(registry) == 0:
        print("no problems selected; refusing to register an empty server")
        return 2

    qos_kwargs = {}
    if args.qos_deadlines is not None:
        qos_kwargs["qos_deadlines"] = parse_class_triple(
            args.qos_deadlines, "--qos-deadlines"
        )
    if args.qos_shed is not None:
        qos_kwargs["qos_shed"] = parse_class_triple(
            args.qos_shed, "--qos-shed"
        )
    metrics = MetricsRegistry() if args.metrics_json else None
    with TcpTransport(bind_ip=args.bind, metrics=metrics) as transport:
        for name, host, port in agents:
            transport.register_remote(name, host, port)
        server_id = args.server_id or f"{transport.host_name}"
        server = ComputationalServer(
            server_id=server_id,
            agent_address=agent_names,
            registry=registry,
            mflops=args.mflops,
            host=transport.host_name,
            cfg=ServerConfig(
                workload=WorkloadPolicy(
                    time_step=args.workload_step,
                    threshold=args.workload_threshold,
                ),
                max_concurrent=args.max_concurrent,
                max_queue=args.max_queue,
                reregister_interval=args.reregister,
                workers=args.workers,
                executor=args.executor,
                batch_max=args.batch_max,
                cache_entries=args.cache_entries,
                cache_ttl=args.cache_ttl,
                cache_publish_bytes=args.cache_publish_bytes,
                store_path=args.store,
                register_timeout=args.register_timeout,
                handle_ttl=args.handle_ttl,
                **qos_kwargs,
            ),
            metrics=metrics,
        )
        node = transport.add_node(
            f"server/{server_id}", server, port=args.port,
            compute_workers=args.workers or args.max_concurrent,
        )
        agent_list = ", ".join(
            f"{name}@{host}:{port}" for name, host, port in agents
        )
        # the compute pool pins the BLAS when its first worker spawns
        blas = (
            "not controlled" if blas_threads() is None else SLOT_BLAS_THREADS
        )
        # closing the transport runs the server's on_shutdown on the
        # loop, which releases its executors
        run_forever(
            f"netsolve server {server_id!r} on {args.bind}:{node.port} "
            f"({len(registry)} problems, {args.mflops:g} Mflop/s, "
            f"{args.max_concurrent} slot(s), BLAS threads per slot: {blas}, "
            f"agent(s) {agent_list})"
        )
    if metrics is not None:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_json())
        print(f"metrics snapshot written to {args.metrics_json}", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
