"""Microbenchmarks — zero-copy wire path vs the legacy copying encoder.

Measures the hot protocol paths on dgesv-sized SolveRequests
(n in {256, 1024, 2048}):

* ``legacy encode``    — the seed's single-buffer encoder (tobytes +
  concatenation copies), inlined below as the reference baseline,
* ``encode_message``   — the scatter/gather encoder joined to one buffer,
* ``encode_iov``       — the gather list alone (what transports consume),
* ``frame_size``       — analytic sizing (the simulator's per-message cost;
  the legacy equivalent is encoding and taking ``len``),
* ``decode``           — zero-copy decode from a writable bytearray.

and, because a megabyte payload hides per-message cost, the same three
calls in nanoseconds on the control frames that make up most traffic
(``SolveRequest`` with a 64-element vector, ``Busy``, ``QueryRequest``,
``WorkloadReport``) — the rows the per-class field plans move.

Prints a paper-style table, persists it under ``benchmarks/results/``,
and writes machine-readable ``benchmarks/results/BENCH_wire.json``.
Asserts the headline claim: the new encode+frame_size path is >= 3x
faster than the legacy path at n=1024, and frame_size materializes no
payload-sized buffer.
"""

import json
import time
import tracemalloc

import numpy as np

from _harness import RESULTS_DIR, emit
from repro.protocol.codec import (
    decode_message,
    encode_message,
    encode_message_iov,
    frame_size,
)
from repro.protocol.messages import (
    Busy, QueryRequest, SolveRequest, WorkloadReport,
)

RNG = np.random.default_rng(0)
SIZES = (256, 1024, 2048)


# ----------------------------------------------------------------------
# The seed codec's encoder, kept verbatim as the baseline.  It pays a
# tobytes() copy per array plus a header+body concatenation copy.
# ----------------------------------------------------------------------
def _legacy_encode_value(value, out: bytearray) -> None:
    import struct

    from repro.protocol.codec import (
        _T_BOOL, _T_BYTES, _T_COMPLEX, _T_DICT, _T_FLOAT, _T_INT, _T_LIST,
        _T_NDARRAY, _T_NONE, _T_STR,
    )

    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, (int, np.integer)):
        out.append(_T_INT)
        out += struct.pack("<q", int(value))
    elif isinstance(value, (float, np.floating)):
        out.append(_T_FLOAT)
        out += struct.pack("<d", float(value))
    elif isinstance(value, (complex, np.complexfloating)):
        out.append(_T_COMPLEX)
        cv = complex(value)
        out += struct.pack("<dd", cv.real, cv.imag)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_T_BYTES)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(value, np.ndarray):
        contig = np.ascontiguousarray(value)
        out.append(_T_NDARRAY)
        dname = value.dtype.name.encode("ascii")
        out.append(len(dname))
        out += dname
        out.append(contig.ndim)
        for dim in contig.shape:
            out += struct.pack("<q", dim)
        raw = contig.tobytes()
        out += struct.pack("<Q", len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += struct.pack("<I", len(value))
        for item in value:
            _legacy_encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            _legacy_encode_value(key, out)
            _legacy_encode_value(item, out)
    else:  # pragma: no cover
        raise AssertionError(f"unexpected {type(value)}")


def _legacy_encode_message(msg) -> bytes:
    from repro.protocol.codec import HEADER, MAGIC, PROTOCOL_VERSION

    body = bytearray()
    _legacy_encode_value(msg.to_fields(), body)
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, type(msg).TYPE_CODE, len(body))
    return header + bytes(body)


def _solve_request(n: int) -> SolveRequest:
    a = RNG.standard_normal((n, n))
    b = RNG.standard_normal(n)
    return SolveRequest(
        request_id=1, problem="linsys/dgesv", inputs=(a, b),
        reply_to="client/c0",
    )


def _best_of(fn, repeats: int) -> float:
    """Best-of-k wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(n: int) -> dict:
    msg = _solve_request(n)
    repeats = max(3, 40_000_000 // (n * n * 8))
    wire = bytearray()
    for part in encode_message_iov(msg):
        wire += part
    row = {
        "n": n,
        "frame_bytes": frame_size(msg),
        "legacy_encode_s": _best_of(lambda: _legacy_encode_message(msg), repeats),
        "encode_s": _best_of(lambda: encode_message(msg), repeats),
        "encode_iov_s": _best_of(lambda: encode_message_iov(msg), repeats),
        "legacy_frame_size_s": _best_of(
            lambda: len(_legacy_encode_message(msg)), repeats
        ),
        "frame_size_s": _best_of(lambda: frame_size(msg), repeats),
        "decode_s": _best_of(lambda: decode_message(wire), repeats),
    }
    row["speedup_encode_plus_size"] = (
        (row["legacy_encode_s"] + row["legacy_frame_size_s"])
        / (row["encode_s"] + row["frame_size_s"])
    )
    return row


def _control_frames() -> list:
    return [
        SolveRequest(
            request_id=7, problem="linsys/dgesv",
            inputs=(RNG.standard_normal(64),), reply_to="client/c0",
        ),
        Busy(request_id=7, queue_depth=12, detail="queue full (batch)"),
        QueryRequest(
            problem="linsys/dgesv", sizes={"n": 64}, client_host="ch0",
            exclude=("server/s3",), tag=5,
        ),
        WorkloadReport(server_id="server/s0", workload=137.5, inflight=2),
    ]


def _ns_per_call(fn, calls: int = 2000, repeats: int = 7) -> float:
    """Best-of-k nanoseconds per call over a ``calls``-long loop."""
    def loop():
        for _ in range(calls):
            fn()
    return _best_of(loop, repeats) / calls * 1e9


def _measure_control(msg) -> dict:
    wire = bytearray(encode_message(msg))
    return {
        "message": type(msg).__name__,
        "frame_bytes": frame_size(msg),
        "frame_size_ns": _ns_per_call(lambda: frame_size(msg)),
        "encode_iov_ns": _ns_per_call(lambda: encode_message_iov(msg)),
        "decode_ns": _ns_per_call(lambda: decode_message(wire)),
    }


def test_wire_microbench():
    rows = [_measure(n) for n in SIZES]
    control = [_measure_control(msg) for msg in _control_frames()]

    # frame_size must be purely analytic: no payload-sized allocation
    big = _solve_request(1024)
    frame_size(big)  # warm caches before tracing
    tracemalloc.start()
    frame_size(big)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    payload = big.inputs[0].nbytes
    assert peak < payload / 8, f"frame_size allocated {peak} bytes"

    lines = [
        "Wire path microbenchmark — dgesv SolveRequest, times in ms (best-of-k)",
        "",
        f"{'n':>5} {'bytes':>10} {'legacy enc':>11} {'encode':>8} "
        f"{'iov':>8} {'legacy size':>12} {'size':>8} {'decode':>8} {'speedup':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>5} {r['frame_bytes']:>10} "
            f"{r['legacy_encode_s'] * 1e3:>11.3f} {r['encode_s'] * 1e3:>8.3f} "
            f"{r['encode_iov_s'] * 1e3:>8.3f} "
            f"{r['legacy_frame_size_s'] * 1e3:>12.3f} "
            f"{r['frame_size_s'] * 1e3:>8.4f} {r['decode_s'] * 1e3:>8.3f} "
            f"{r['speedup_encode_plus_size']:>7.1f}x"
        )
    lines.append("")
    lines.append(
        "speedup = (legacy encode + legacy frame_size) / (encode + frame_size)"
    )
    lines += [
        "",
        "Control frames, ns per call (best-of-k loops)",
        "",
        f"{'message':>16} {'bytes':>6} {'size':>8} {'encode':>8} {'decode':>8}",
    ]
    for r in control:
        lines.append(
            f"{r['message']:>16} {r['frame_bytes']:>6} "
            f"{r['frame_size_ns']:>8.0f} {r['encode_iov_ns']:>8.0f} "
            f"{r['decode_ns']:>8.0f}"
        )
    emit("BENCH_wire", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_wire.json").write_text(
        json.dumps(
            {"benchmark": "wire_micro", "rows": rows,
             "control_frames": control},
            indent=2,
        ) + "\n"
    )

    at_1024 = next(r for r in rows if r["n"] == 1024)
    assert at_1024["speedup_encode_plus_size"] >= 3.0, at_1024


if __name__ == "__main__":
    test_wire_microbench()
