"""Unit tests for the binary wire codec."""

import numpy as np
import pytest

from repro.errors import CodecError
from repro.protocol.codec import (
    HEADER,
    MAGIC,
    decode_message,
    decode_value,
    encode_message,
    encode_message_iov,
    encode_value,
    encoded_size,
    frame_size,
)
from repro.protocol.messages import (
    Ping,
    QueryReply,
    QueryRequest,
    RegisterServer,
    SolveReply,
    SolveRequest,
    WorkloadReport,
)


def roundtrip_value(value):
    buf = bytearray()
    encode_value(value, buf)
    return decode_value(bytes(buf))


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**62,
        -(2**62),
        3.14159,
        float("inf"),
        complex(1.5, -2.5),
        "",
        "hello",
        "ünïcodé ✓",
        b"",
        b"\x00\xff raw",
        [],
        [1, 2.0, "three", None],
        {"a": 1, "b": [True, {"c": b"x"}]},
    ],
)
def test_scalar_and_container_roundtrip(value):
    assert roundtrip_value(value) == value


def test_tuple_decodes_as_list():
    assert roundtrip_value((1, 2)) == [1, 2]


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(10, dtype=np.float64),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array([], dtype=np.float64),
        np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4),
        np.array([1 + 2j, 3 - 4j], dtype=np.complex128),
        np.array([[True, False], [False, True]]),
        np.zeros((2, 3, 4), dtype=np.int32),
    ],
)
def test_ndarray_roundtrip(arr):
    out = roundtrip_value(arr)
    assert isinstance(out, np.ndarray)
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_noncontiguous_array_roundtrip():
    arr = np.arange(24, dtype=np.float64).reshape(4, 6)[::2, ::3]
    out = roundtrip_value(arr)
    assert np.array_equal(out, arr)


def test_decoded_array_is_writable_copy():
    out = roundtrip_value(np.arange(4.0))
    out[0] = 99.0  # must not raise: decoded arrays own their memory


def test_unsupported_dtype_rejected():
    with pytest.raises(CodecError, match="dtype"):
        roundtrip_value(np.array(["a", "b"]))
    with pytest.raises(CodecError, match="dtype"):
        roundtrip_value(np.arange(3, dtype=np.float16))


def test_unencodable_type_rejected():
    with pytest.raises(CodecError, match="cannot encode"):
        roundtrip_value(object())


def test_non_string_dict_key_rejected():
    with pytest.raises(CodecError, match="keys must be str"):
        roundtrip_value({1: "x"})


def test_huge_int_rejected():
    with pytest.raises(CodecError, match="i64"):
        roundtrip_value(2**70)


def test_numpy_scalars_encode_as_primitives():
    assert roundtrip_value(np.float64(2.5)) == 2.5
    assert roundtrip_value(np.int64(7)) == 7
    assert roundtrip_value(np.complex128(1j)) == 1j


def test_trailing_bytes_rejected():
    buf = bytearray()
    encode_value(1, buf)
    buf += b"junk"
    with pytest.raises(CodecError, match="trailing"):
        decode_value(bytes(buf))


def test_truncated_value_rejected():
    buf = bytearray()
    encode_value("hello world", buf)
    with pytest.raises(CodecError, match="truncated"):
        decode_value(bytes(buf[:-3]))


def test_unknown_tag_rejected():
    with pytest.raises(CodecError, match="unknown tag"):
        decode_value(b"\xfe")


def test_bad_bool_byte_rejected():
    with pytest.raises(CodecError, match="bool"):
        decode_value(b"\x01\x05")


def test_ndarray_length_mismatch_rejected():
    buf = bytearray()
    encode_value(np.arange(4.0), buf)
    # corrupt the trailing payload-length field region by shrinking buffer
    with pytest.raises(CodecError):
        decode_value(bytes(buf[:-8]))


# ----------------------------------------------------------------------
# message framing
# ----------------------------------------------------------------------
MESSAGES = [
    Ping(nonce=42),
    RegisterServer(
        server_id="s1", host="h1", mflops=120.0, problems_pdl="problem ..."
    ),
    WorkloadReport(server_id="s1", workload=250.0),
    QueryRequest(
        problem="linsys/dgesv",
        sizes={"n": 512},
        client_host="c1",
        exclude=("s2",),
    ),
    QueryReply(
        ok=True,
        candidates=(
            {
                "server_id": "s1",
                "address": "server:s1",
                "host": "h1",
                "predicted_seconds": 1.25,
            },
        ),
    ),
    SolveRequest(
        request_id=7,
        problem="blas/ddot",
        inputs=(np.arange(3.0), np.arange(3.0)),
        reply_to="client:c1",
    ),
    SolveReply(
        request_id=7, ok=True, outputs=(np.float64(5.0),), compute_seconds=0.25
    ),
]


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_message_roundtrip(msg):
    decoded = decode_message(encode_message(msg))
    assert type(decoded) is type(msg)
    for name, value in msg.to_fields().items():
        got = getattr(decoded, name)
        if isinstance(value, tuple):
            assert len(got) == len(value)
            for a, b in zip(got, value):
                if isinstance(b, np.ndarray):
                    assert np.array_equal(a, b)
                else:
                    assert a == b
        else:
            assert got == value


def test_frame_size_matches_encoding():
    msg = Ping(nonce=1)
    assert frame_size(msg) == len(encode_message(msg))


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_frame_size_analytic_matches_all_messages(msg):
    assert frame_size(msg) == len(encode_message(msg))


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_iov_join_equals_single_buffer_encode(msg):
    assert b"".join(encode_message_iov(msg)) == encode_message(msg)


def test_iov_references_large_payloads_without_copy():
    a = np.arange(4096, dtype=np.float64)
    msg = SolveRequest(request_id=1, problem="p", inputs=(a,))
    parts = encode_message_iov(msg)
    views = [p for p in parts if isinstance(p, memoryview) and p.nbytes == a.nbytes]
    assert len(views) == 1
    base = views[0].obj
    assert isinstance(base, np.ndarray)
    assert np.shares_memory(base, a)


def test_iov_parts_survive_source_scope():
    # the memoryview parts must pin their arrays even after the caller
    # drops every other reference to the message
    def build():
        big = np.full(4096, 7.0)
        return encode_message_iov(
            SolveRequest(request_id=1, problem="p", inputs=(big,))
        )

    parts = build()
    frame = b"".join(parts)
    out = decode_message(frame)
    assert np.array_equal(out.inputs[0], np.full(4096, 7.0))


def test_encoded_size_scalar_cases():
    for value in [None, True, 3, 2.5, 1 + 2j, "héllo", b"xyz", [1, "a"],
                  {"k": (1, 2)}, np.zeros((3, 4))]:
        buf = bytearray()
        encode_value(value, buf)
        assert encoded_size(value) == len(buf), value


def test_encoded_size_validates_like_encode():
    with pytest.raises(CodecError, match="i64"):
        encoded_size(2**70)
    with pytest.raises(CodecError, match="dtype"):
        encoded_size(np.arange(3, dtype=np.float16))
    with pytest.raises(CodecError, match="keys must be str"):
        encoded_size({1: "x"})
    with pytest.raises(CodecError, match="cannot encode"):
        encoded_size(object())


def test_frame_size_allocates_no_payload_buffer():
    import tracemalloc

    a = np.zeros((512, 512))  # 2 MiB payload
    msg = SolveRequest(request_id=1, problem="p", inputs=(a,))
    frame_size(msg)  # warm any caches
    tracemalloc.start()
    nbytes = frame_size(msg)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert nbytes > a.nbytes
    assert peak < a.nbytes / 8  # nothing payload-sized was materialized


def test_decode_from_bytearray_is_zero_copy_and_writable():
    a = np.arange(4096, dtype=np.float64)
    # the 8-char problem name puts the payload at an 8-byte-aligned
    # frame offset, so the decoder may (and must) alias instead of copy
    wire = bytearray(
        encode_message(SolveRequest(request_id=1, problem="p" * 8, inputs=(a,)))
    )
    out = decode_message(wire)
    arr = out.inputs[0]
    assert arr.flags.writeable
    assert np.shares_memory(arr, np.frombuffer(wire, dtype=np.uint8))
    arr[0] = -1.0  # mutating the decoded array is mutating the frame buffer


def test_decode_misaligned_payload_copies_to_aligned():
    a = np.arange(4096, dtype=np.float64)
    # a 1-char name leaves the payload at offset % 8 == 1: aliasing it
    # would hand every downstream BLAS call an unaligned array, so the
    # decoder pays one memcpy instead
    wire = bytearray(
        encode_message(SolveRequest(request_id=1, problem="p", inputs=(a,)))
    )
    arr = decode_message(wire).inputs[0]
    assert arr.flags.aligned
    assert arr.flags.writeable
    assert not np.shares_memory(arr, np.frombuffer(wire, dtype=np.uint8))
    assert np.array_equal(arr, a)


def test_dgemm_frames_decode_to_aligned_copies():
    # pins today's layout: in a real dgemm request and its reply every
    # payload sits at a frame offset that is not 8-aligned, so decoding a
    # received frame copies each operand (aliasing only where aligned)
    rng = np.random.default_rng(3)
    a, b, c = rng.standard_normal((3, 16, 16))
    for msg, field in (
        (SolveRequest(request_id=1, problem="blas/dgemm", inputs=(a, b)), "inputs"),
        (SolveReply(request_id=1, ok=True, outputs=(c,)), "outputs"),
    ):
        wire = bytearray(encode_message(msg))
        raw = np.frombuffer(wire, dtype=np.uint8)
        got = getattr(decode_message(wire), field)
        for arr, want in zip(got, getattr(msg, field)):
            offset = bytes(wire).find(want.tobytes())
            aligned = (raw.ctypes.data + offset) % 8 == 0
            assert arr.flags.writeable and arr.flags.aligned
            assert np.shares_memory(arr, raw) == aligned
            assert offset % 8 != 0
            assert np.array_equal(arr, want)


def test_decode_from_bytes_still_copies():
    a = np.arange(64, dtype=np.float64)
    frame = encode_message(SolveRequest(request_id=1, problem="p", inputs=(a,)))
    out = decode_message(frame)
    assert out.inputs[0].flags.writeable
    assert out.inputs[0].base is None or isinstance(out.inputs[0].base, np.ndarray)


@pytest.mark.parametrize(
    "arr",
    [
        np.array(2.5),  # 0-d
        np.asfortranarray(np.arange(24.0).reshape(4, 6)),  # F-order
        np.arange(40.0)[::3],  # strided view
        np.arange(12.0).reshape(3, 4).T,  # transpose
    ],
    ids=["0d", "forder", "strided", "transposed"],
)
def test_awkward_layouts_size_and_roundtrip(arr):
    buf = bytearray()
    encode_value(arr, buf)
    assert encoded_size(arr) == len(buf)
    out = decode_value(bytes(buf))
    # the wire canonicalizes to C-order and promotes 0-d to shape (1,)
    assert np.array_equal(out, np.ascontiguousarray(arr))


def test_bad_magic_rejected():
    data = bytearray(encode_message(Ping()))
    data[:4] = b"XXXX"
    with pytest.raises(CodecError, match="magic"):
        decode_message(bytes(data))


def test_bad_version_rejected():
    data = bytearray(encode_message(Ping()))
    data[4] = 99
    with pytest.raises(CodecError, match="version"):
        decode_message(bytes(data))


def test_unknown_type_code_rejected():
    data = bytearray(encode_message(Ping()))
    data[6] = 0xEE
    with pytest.raises(CodecError, match="type code"):
        decode_message(bytes(data))


def test_length_mismatch_rejected():
    data = encode_message(Ping()) + b"extra"
    with pytest.raises(CodecError, match="length mismatch"):
        decode_message(data)


def test_short_frame_rejected():
    with pytest.raises(CodecError, match="shorter than header"):
        decode_message(MAGIC)


def test_field_set_enforced():
    # valid frame whose body is missing a field
    good = encode_message(WorkloadReport(server_id="s", workload=1.0))
    from repro.protocol.codec import PROTOCOL_VERSION, encode_value
    from repro.errors import ProtocolError

    body = bytearray()
    encode_value({"server_id": "s"}, body)  # workload missing
    frame = HEADER.pack(MAGIC, PROTOCOL_VERSION, 3, len(body)) + bytes(body)
    with pytest.raises(ProtocolError, match="field set"):
        decode_message(frame)
    decode_message(good)  # sanity: the well-formed one still parses


def test_array_payload_dominates_frame_size():
    small = frame_size(SolveRequest(1, "p", inputs=(np.zeros(1),)))
    big = frame_size(SolveRequest(1, "p", inputs=(np.zeros(10000),)))
    assert big - small == pytest.approx(9999 * 8, abs=64)
