"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CodecError, ComplexityError
from repro.numerics import (
    fft,
    ifft,
    lu_factor,
    lu_solve,
    merge_sort,
    quickselect,
    solve,
)
from repro.problems.complexity import Complexity
from repro.problems.pdl import parse_pdl, render_pdl
from repro.problems.spec import ObjectKind, ObjectSpec, ProblemSpec, SizeRule
from repro.protocol.codec import decode_value, encode_value
from repro.simnet.kernel import EventKernel
from repro.simnet.host import SimHost
from repro.trace.metrics import time_average

# ----------------------------------------------------------------------
# codec: decode(encode(x)) == x for all wire-encodable values
# ----------------------------------------------------------------------
wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=80),
    st.binary(max_size=80),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)

wire_values = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


@given(wire_values)
@settings(max_examples=200)
def test_codec_roundtrip_values(value):
    buf = bytearray()
    encode_value(value, buf)
    assert decode_value(bytes(buf)) == value


@given(
    st.one_of(
        hnp.arrays(
            dtype=st.sampled_from([np.float64, np.float32]),
            shape=hnp.array_shapes(max_dims=3, max_side=8),
            elements=st.floats(
                -1e6, 1e6, allow_nan=False, allow_infinity=False, width=32
            ),
        ),
        hnp.arrays(
            dtype=st.sampled_from([np.int64, np.int32]),
            shape=hnp.array_shapes(max_dims=3, max_side=8),
            elements=st.integers(-(2**31) + 1, 2**31 - 1),
        ),
    )
)
@settings(max_examples=100)
def test_codec_roundtrip_arrays(arr):
    buf = bytearray()
    encode_value(arr, buf)
    out = decode_value(bytes(buf))
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert np.array_equal(out, arr)


# ----------------------------------------------------------------------
# codec: the zero-copy wire path is byte-identical to the legacy
# single-buffer encoder, and frame_size is exact without serializing
# ----------------------------------------------------------------------
def _legacy_encode_value(value, out: bytearray) -> None:
    """The seed codec's single-buffer encoder, kept verbatim as the
    byte-identity reference for the scatter/gather path."""
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
    else:  # pragma: no cover - strategy only generates encodables
        raise AssertionError(f"unexpected {type(value)}")


def _legacy_encode_message(msg) -> bytes:
    from repro.protocol.codec import HEADER, MAGIC, PROTOCOL_VERSION

    body = bytearray()
    _legacy_encode_value(msg.to_fields(), body)
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, type(msg).TYPE_CODE, len(body))
    return header + bytes(body)


_wire_dtypes = st.sampled_from(
    [np.float64, np.int64, np.complex128, np.float32, np.int32, np.bool_]
)


@st.composite
def _wire_arrays(draw):
    """Arrays over every allowed dtype, including 0-d, empty, F-order,
    and non-contiguous strided layouts."""
    dtype = draw(_wire_dtypes)
    shape = draw(
        st.one_of(
            st.just(()),  # 0-d
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            st.tuples(st.just(0)),  # empty
            st.tuples(st.integers(1, 4), st.just(0)),  # empty 2-d
        )
    )
    arr = np.zeros(shape, dtype=dtype)
    if arr.size:
        flat = np.arange(arr.size)
        arr = (flat.astype(dtype) if dtype is not np.bool_
               else (flat % 2).astype(bool)).reshape(shape)
    layout = draw(st.sampled_from(["c", "f", "strided", "transposed"]))
    if layout == "f":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and arr.ndim >= 1 and arr.shape[0] > 1:
        base = np.repeat(arr, 2, axis=0)
        arr = base[::2]
    elif layout == "transposed" and arr.ndim >= 2:
        arr = arr.T
    return arr


_wire_message_values = st.recursive(
    st.one_of(wire_scalars, _wire_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def _wire_messages(draw):
    from repro.protocol.messages import (
        ProblemList, QueryRequest, SolveReply, SolveRequest, StoreObject,
    )

    kind = draw(st.integers(0, 4))
    if kind == 0:
        return SolveRequest(
            request_id=draw(st.integers(0, 2**31)),
            problem=draw(st.text(max_size=20)),
            inputs=tuple(draw(st.lists(_wire_message_values, max_size=4))),
            reply_to=draw(st.text(max_size=20)),
        )
    if kind == 1:
        return SolveReply(
            request_id=draw(st.integers(0, 2**31)),
            ok=draw(st.booleans()),
            outputs=tuple(draw(st.lists(_wire_message_values, max_size=3))),
            detail=draw(st.text(max_size=30)),
            compute_seconds=draw(st.floats(0, 1e6, allow_nan=False)),
        )
    if kind == 2:
        return QueryRequest(
            problem=draw(st.text(max_size=20)),
            sizes=draw(
                st.dictionaries(
                    st.text(max_size=6), st.integers(0, 2**30), max_size=4
                )
            ),
            client_host=draw(st.text(max_size=12)),
            exclude=tuple(draw(st.lists(st.text(max_size=8), max_size=3))),
            tag=draw(st.integers(-(2**31), 2**31)),
        )
    if kind == 3:
        return StoreObject(
            key=draw(st.text(min_size=1, max_size=16)),
            value=draw(_wire_message_values),
        )
    return ProblemList(
        names=tuple(draw(st.lists(st.text(max_size=12), max_size=5))),
        prefix=draw(st.text(max_size=8)),
    )


@given(_wire_messages())
@settings(max_examples=150, deadline=None)
def test_wire_path_matches_legacy_encoder(msg):
    from repro.protocol.codec import (
        decode_message, encode_message, encode_message_iov, frame_size,
    )

    legacy = _legacy_encode_message(msg)
    assert encode_message(msg) == legacy
    assert b"".join(encode_message_iov(msg)) == legacy
    assert frame_size(msg) == len(legacy)
    decode_message(bytearray(legacy))  # zero-copy decode accepts the frame


@given(st.binary(min_size=1, max_size=200))
@settings(max_examples=200)
def test_codec_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode to a value or raise CodecError —
    never any other exception."""
    try:
        decode_value(data)
    except CodecError:
        pass


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=200)
def test_frame_decoder_never_crashes_on_garbage(data):
    """Arbitrary frames raise CodecError/ProtocolError, nothing else."""
    from repro.errors import ProtocolError
    from repro.protocol.codec import decode_message

    try:
        decode_message(data)
    except ProtocolError:  # CodecError is a ProtocolError
        pass


@given(st.data())
@settings(max_examples=100)
def test_frame_decoder_survives_single_byte_corruption(data):
    """Flipping any one byte of a valid frame either still decodes to a
    message or raises ProtocolError — never crashes, never hangs."""
    import numpy as np

    from repro.errors import ProtocolError
    from repro.protocol.codec import decode_message, encode_message
    from repro.protocol.messages import SolveRequest

    frame = bytearray(
        encode_message(
            SolveRequest(
                request_id=7,
                problem="linsys/dgesv",
                inputs=(np.arange(6.0).reshape(2, 3), np.ones(2)),
                reply_to="client/c0",
            )
        )
    )
    pos = data.draw(st.integers(0, len(frame) - 1))
    bit = data.draw(st.integers(0, 7))
    frame[pos] ^= 1 << bit
    try:
        decode_message(bytes(frame))
    except ProtocolError:
        pass


# ----------------------------------------------------------------------
# complexity expressions
# ----------------------------------------------------------------------
@given(
    a=st.integers(1, 99),
    b=st.integers(0, 4),
    c=st.integers(0, 99),
    n=st.integers(1, 1000),
)
def test_complexity_polynomial_semantics(a, b, c, n):
    cx = Complexity(f"{a}*n^{b} + {c}")
    assert cx.flops({"n": n}) == pytest.approx(a * n**b + c)


@given(n=st.integers(1, 10**6))
def test_complexity_nlogn_monotone_nonnegative(n):
    cx = Complexity("n*log2(n)")
    value = cx.flops({"n": n})
    assert value >= 0
    assert value == pytest.approx(n * math.log2(n) if n > 1 else 0.0, abs=1e-9)


# ----------------------------------------------------------------------
# PDL round trip with generated specs
# ----------------------------------------------------------------------
identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def problem_specs(draw):
    name = draw(identifiers) + "/" + draw(identifiers)
    n_inputs = draw(st.integers(1, 3))
    inputs = []
    used = set()
    symbols = []
    for i in range(n_inputs):
        obj_name = f"in{i}"
        used.add(obj_name)
        kind = draw(st.sampled_from([ObjectKind.MATRIX, ObjectKind.VECTOR,
                                     ObjectKind.SCALAR]))
        if kind is ObjectKind.MATRIX:
            dims = (f"d{i}a", f"d{i}b")
            symbols.extend(dims)
        elif kind is ObjectKind.VECTOR:
            dims = (f"d{i}v",)
            symbols.extend(dims)
        else:
            dims = ()
        binds = None
        if kind is ObjectKind.SCALAR and draw(st.booleans()):
            binds = SizeRule(f"s{i}")
            symbols.append(f"s{i}")
        dtype = draw(st.sampled_from(["float64", "int64", "complex128"]))
        if kind is ObjectKind.SCALAR and binds is not None:
            dtype = "int64"
        desc = draw(st.sampled_from(["", "a field", "the data"]))
        inputs.append(
            ObjectSpec(obj_name, kind, dims=dims, dtype=dtype, binds=binds,
                       description=desc)
        )
    if symbols:
        sym = draw(st.sampled_from(symbols))
        cx = Complexity(f"3*{sym}^2 + 7")
        out_dims = (sym,)
        outputs = (ObjectSpec("out0", ObjectKind.VECTOR, dims=out_dims),)
    else:
        cx = Complexity("42")
        outputs = (ObjectSpec("out0", ObjectKind.SCALAR),)
    return ProblemSpec(
        name=name,
        inputs=tuple(inputs),
        outputs=outputs,
        complexity=cx,
        description=draw(st.sampled_from(["", "does things", "solves stuff"])),
        provenance=draw(st.sampled_from(["", "LAPACK", "misc"])),
    )


@given(problem_specs())
@settings(max_examples=100)
def test_pdl_roundtrip_generated_specs(spec):
    assert parse_pdl(render_pdl(spec)) == [spec]


# ----------------------------------------------------------------------
# numerics invariants
# ----------------------------------------------------------------------
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 12).map(lambda n: (n, n)),
        elements=st.floats(-10, 10),
    )
)
@settings(max_examples=80, deadline=None)
def test_lu_solve_residual_when_well_conditioned(a):
    n = a.shape[0]
    # force strict diagonal dominance whatever hypothesis drew (a plain
    # +10n shift can cancel against an entry of exactly -10n)
    a = a + (10.0 * n + float(np.abs(a).max(initial=0.0)) + 1.0) * np.eye(n)
    b = np.sum(a, axis=1)  # exact solution: ones
    x = solve(a, b)
    assert np.allclose(x, np.ones(n), atol=1e-6)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(2, 10).map(lambda n: (n, n)),
        elements=st.floats(-5, 5),
    )
)
@settings(max_examples=60, deadline=None)
def test_lu_factor_pivot_indices_in_range(a):
    a = a + 20.0 * np.eye(a.shape[0])
    lu, piv = lu_factor(a)
    n = a.shape[0]
    for k, p in enumerate(piv):
        assert k <= p < n


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        elements=st.floats(-100, 100),
    )
)
@settings(max_examples=80)
def test_fft_roundtrip_property(x):
    assert np.allclose(ifft(fft(x.astype(np.complex128))).real, x, atol=1e-8)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(0, 200),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=100)
def test_merge_sort_properties(x):
    out = merge_sort(x)
    assert out.shape == x.shape
    assert np.array_equal(np.sort(out), out)  # sorted
    assert np.array_equal(np.sort(x), out)  # a permutation


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 100),
        elements=st.floats(-1e6, 1e6),
    ),
    st.data(),
)
@settings(max_examples=100)
def test_quickselect_matches_sort(x, data):
    k = data.draw(st.integers(0, x.size - 1))
    assert quickselect(x, k) == float(np.sort(x)[k])


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 10).map(lambda n: (n, n)),
        elements=st.floats(-5, 5),
    )
)
@settings(max_examples=50, deadline=None)
def test_cholesky_solve_property(m):
    from repro.numerics import cholesky_factor, cholesky_solve

    n = m.shape[0]
    a = m @ m.T + n * 10.0 * np.eye(n)  # guaranteed SPD
    lower = cholesky_factor(a)
    assert np.allclose(lower @ lower.T, a, atol=1e-6)
    b = np.sum(a, axis=1)
    assert np.allclose(cholesky_solve(lower, b), np.ones(n), atol=1e-6)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 6)).filter(
            lambda s: s[0] >= s[1]
        ),
        elements=st.floats(-10, 10),
    )
)
@settings(max_examples=50, deadline=None)
def test_svd_values_property(a):
    from repro.numerics import svd_values

    s = svd_values(a)
    # non-negative, descending, Frobenius identity
    assert np.all(s >= -1e-10)
    assert np.all(np.diff(s) <= 1e-9 * max(1.0, s[0]))
    assert np.sum(s**2) == pytest.approx(
        np.sum(a**2), rel=1e-8, abs=1e-8
    )


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        elements=st.floats(-10, 10),
    ),
    hnp.arrays(dtype=np.float64, shape=st.integers(1, 8),
               elements=st.floats(-10, 10)),
)
@settings(max_examples=60)
def test_csr_matvec_property(dense, x):
    from repro.numerics import CsrMatrix

    if dense.shape[1] != x.shape[0]:
        dense = np.resize(dense, (dense.shape[0], x.shape[0]))
    csr = CsrMatrix.from_dense(dense)
    assert np.allclose(csr.matvec(x), dense @ x, atol=1e-9)
    assert np.allclose(csr.to_dense(), dense)


# ----------------------------------------------------------------------
# processor-sharing host invariants
# ----------------------------------------------------------------------
@given(
    flops=st.lists(st.floats(1e6, 1e9), min_size=1, max_size=6),
    mflops=st.floats(10.0, 1000.0),
    load=st.floats(0.0, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_host_work_conservation(flops, mflops, load):
    """Total CPU-seconds consumed equals total flops / share rate:
    sum over jobs of (flops_i) == integral of rate, regardless of mix."""
    kernel = EventKernel()
    host = SimHost("h", kernel, mflops, background_load=load)
    handles = [host.submit_job(f) for f in flops]
    kernel.run()
    assert all(h.done.fired for h in handles)
    # each job's elapsed >= its solo time (sharing never speeds you up)
    for f, h in zip(flops, handles):
        solo = f / (mflops * 1e6 / (1.0 + load))
        assert h.done.value >= solo * (1 - 1e-9)
    # makespan == total work / full machine share rate when load==0
    if load == 0.0:
        expected = sum(flops) / (mflops * 1e6)
        assert kernel.now == pytest.approx(expected, rel=1e-9)


@given(
    points=st.lists(
        st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 10.0)),
        min_size=1,
        max_size=8,
        unique_by=lambda p: p[0],
    )
)
@settings(max_examples=60)
def test_time_average_bounded_by_extremes(points):
    history = sorted(points)
    t0 = history[0][0]
    t1 = t0 + 50.0
    avg = time_average(history, t0, t1)
    values = [v for _, v in history]
    assert min(values) - 1e-9 <= avg <= max(values) + 1e-9
