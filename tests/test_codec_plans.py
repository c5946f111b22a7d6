"""The compiled per-class codec is pinned to the generic one.

Every registered message class gets a frame sizer, encoder and decoder
generated from its field plan (``codec._compile``).  These properties
hold each of them to what the generic walkers produce for
``msg.to_fields()`` — bytes, sizes, round trips and errors — so the
plan can never drift from the wire format the goldens were cut with.
"""

from __future__ import annotations

import dataclasses
import functools
import socket
import struct
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, ProtocolError
from repro.protocol import codec
from repro.protocol.codec import (
    HEADER, MAGIC, PROTOCOL_VERSION, decode_message, encode_message,
    encode_message_iov, encode_value, encoded_size, frame_size,
)
from repro.protocol.messages import (
    _PLANS, MESSAGE_TYPES, DataHandle, Message, SolveRequest,
)

CLASSES = sorted(MESSAGE_TYPES.values(), key=lambda c: c.TYPE_CODE)
_by_name = pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_texts = st.text(max_size=10)  # hypothesis text is non-ASCII by default
_keys = st.text(min_size=1, max_size=10)
_ints = st.integers(-(2**63), 2**63 - 1)
_floats = st.floats(allow_nan=False)
_np_ints = st.integers(-(2**40), 2**40).map(np.int64)
_np_floats = st.floats(allow_nan=False, width=64).map(np.float64)


@st.composite
def _arrays(draw):
    """Every allowed dtype; 0-d, empty, F-order and strided layouts."""
    dtype = draw(st.sampled_from(
        [np.float64, np.int64, np.complex128, np.float32, np.int32, np.bool_]
    ))
    shape = draw(st.sampled_from([(), (0,), (3,), (2, 3), (4, 2, 2), (200,)]))
    arr = (np.arange(int(np.prod(shape))) % 7).astype(dtype).reshape(shape)
    layout = draw(st.sampled_from(["c", "f", "strided"]))
    if layout == "f":
        return np.asfortranarray(arr)
    if layout == "strided" and arr.ndim and arr.shape[0] > 1:
        return np.repeat(arr, 2, axis=0)[::2]
    return arr


_refs = st.builds(
    DataHandle, key=_keys, digest=st.text("0123456789abcdef", max_size=16),
    nbytes=st.integers(0, 2**40), server_id=_texts, address=_texts,
    shape=st.lists(st.integers(0, 99), max_size=3).map(tuple),
    dtype=st.sampled_from(["", "float64"]),
)
_leaves = st.one_of(
    st.none(), st.booleans(), _ints, _floats, _texts, _np_ints, _np_floats,
    st.complex_numbers(allow_nan=False), st.binary(max_size=12),
    _arrays(), _refs,
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_texts, inner, max_size=3),
    ),
    max_leaves=8,
)
#: what a field of each declared type may hold on the wire: the declared
#: type, its numpy twin, and the neighbour it must not be confused with
_BY_ANNOTATION = {
    "str": _texts,
    "int": st.one_of(_ints, _np_ints, st.booleans()),
    "float": st.one_of(_floats, _np_floats, _ints),
    "bool": st.one_of(st.booleans(), st.integers(0, 1)),
    "tuple": st.one_of(
        st.lists(_values, max_size=3).map(tuple), st.lists(_values, max_size=3)
    ),
    "dict": st.dictionaries(_texts, _values, max_size=3),
    "object": _values,
}


def _messages(cls):
    return st.builds(cls, **{
        f.name: _BY_ANNOTATION[f.type] for f in dataclasses.fields(cls)
    })


def _reference_frame(msg) -> bytes:
    body = bytearray()
    encode_value(msg.to_fields(), body)
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, type(msg).TYPE_CODE, len(body))
    return header + bytes(body)


#: every class's compiled triple with the decoder swapped for the generic
#: dict decode + ``from_fields`` — what ``decode_message`` did before plans
_GENERIC_DECODERS = {
    cls: (size, encode, functools.partial(codec._decode_generic, cls))
    for cls, (size, encode, _decode) in codec._FRAME_CODECS.items()
}


def _reference_decode(frame):
    with mock.patch.dict(codec._FRAME_CODECS, _GENERIC_DECODERS):
        return decode_message(frame)


def _same(a, b) -> bool:
    """Wire equality: what one value decodes to equals the other."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (bytes, bytearray, memoryview)):
        return bytes(a) == bytes(b)
    return bool(a == b) and isinstance(a, bool) == isinstance(b, bool)


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
@_by_name
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_compiled_codec_matches_generic(cls, data):
    msg = data.draw(_messages(cls))
    reference = _reference_frame(msg)
    assert b"".join(encode_message_iov(msg)) == reference
    assert frame_size(msg) == len(reference)
    for buffer in (reference, bytearray(reference)):
        decoded = decode_message(buffer)
        assert type(decoded) is cls
        assert encode_message(decoded) == reference
        generic = _reference_decode(buffer)
        for f in dataclasses.fields(cls):
            got = getattr(decoded, f.name)
            assert _same(got, getattr(generic, f.name))
            assert _same(got, getattr(msg, f.name))
            assert not isinstance(got, list)  # declared tuples restored


def test_every_registered_class_is_covered():
    assert len(CLASSES) == 27  # type codes 28-30 are retired
    assert set(codec._FRAME_CODECS) >= set(CLASSES)
    # a wire type the sizer knows and the encoder does not (or the
    # reverse) would size frames that cannot be sent: every type one
    # table holds must resolve in the other (raises CodecError if not)
    for kind in list(codec._SIZERS):
        codec._resolve(codec._ENCODERS, kind)
    for kind in list(codec._ENCODERS):
        codec._resolve(codec._SIZERS, kind)


# ----------------------------------------------------------------------
# error parity
# ----------------------------------------------------------------------
_BAD_VALUES = {
    "int outside i64": 2**63,
    "bad dtype": np.zeros(3, dtype=np.float16),
    "rank over 8": np.zeros((1,) * 9),
    "non-str dict key": {1: "x"},
    "oversized container": [None] * (codec._MAX_CONTAINER + 1),
}


@pytest.mark.parametrize("bad", _BAD_VALUES.values(), ids=_BAD_VALUES.keys())
@_by_name
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_sizer_and_encoder_raise_the_same_error(cls, bad, data):
    msg = data.draw(_messages(cls))
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    nested = data.draw(st.booleans())
    msg = dataclasses.replace(msg, **{name: (1, [bad]) if nested else bad})
    errors = []
    for attempt in (
        lambda: frame_size(msg),
        lambda: encode_message_iov(msg),
        lambda: encoded_size(msg.to_fields()),
        lambda: _reference_frame(msg),
    ):
        with pytest.raises(CodecError) as caught:
            attempt()
        errors.append(str(caught.value))
    assert len(set(errors)) == 1, errors


# ----------------------------------------------------------------------
# decoder fuzz
# ----------------------------------------------------------------------
def _outcome(decode, frame):
    """The decoded message as its canonical bytes, or the error's class
    and text.  Anything but a ProtocolError (CodecError is one) escapes
    and fails the test."""
    try:
        return encode_message(decode(frame))
    except ProtocolError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(frame) -> None:
    assert _outcome(decode_message, frame) == _outcome(_reference_decode, frame)


@_by_name
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_truncated_and_mutated_frames_decode_alike(cls, data):
    frame = bytearray(encode_message(data.draw(_messages(cls))))

    def resized(new: bytearray) -> bytearray:
        # keep the header's length field honest, so the body decoders
        # (not the shared length check) see the short or long buffer
        if len(new) >= HEADER.size:
            HEADER.pack_into(
                new, 0, MAGIC, PROTOCOL_VERSION, cls.TYPE_CODE,
                len(new) - HEADER.size,
            )
        return new

    cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
    _assert_same_outcome(resized(frame[:cut]))
    _assert_same_outcome(resized(frame + data.draw(st.binary(min_size=1, max_size=3))))
    at = data.draw(st.integers(0, len(frame) - 1), label="at")
    mutated = bytearray(frame)
    mutated[at] ^= data.draw(st.integers(1, 255), label="xor")
    _assert_same_outcome(mutated)


def _retired_tag_frame(tag: int = 10, tail: bytes = b"") -> bytes:
    """A ``SolveRequest`` whose one input carries a retired value tag,
    laid out as its sender would have: 10, the bare-key reference, or
    12, the request-DAG node reference (its ``tail`` the output index)."""
    key = "A".encode("utf-8")
    str_value = bytes([codec._T_STR]) + struct.pack("<I", len(key)) + key
    frame = encode_message(
        SolveRequest(request_id=7, problem="blas/dnrm2", inputs=("A",))
    )
    at = frame.rindex(str_value)
    end = at + len(str_value)
    body = (frame[HEADER.size:at] + bytes([tag]) + frame[at + 1:end] + tail
            + frame[end:])
    return HEADER.pack(
        MAGIC, PROTOCOL_VERSION, SolveRequest.TYPE_CODE, len(body)
    ) + body


def _retired_message_frame(type_code: int, fields: dict) -> bytes:
    body = bytearray()
    encode_value(fields, body)
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, type_code, len(body)) + body


#: the request-DAG forms the server no longer speaks: the node-reference
#: value tag and the three messages (type codes 28-30)
RETIRED_DAG_FRAMES = {
    "tag12": (lambda: _retired_tag_frame(12, struct.pack("<q", 0)),
              "unknown tag 12"),
    "code28": (lambda: _retired_message_frame(
        28, {"dag_id": "d", "nodes": [], "reply_to": ""}),
        "unknown message type code 28"),
    "code29": (lambda: _retired_message_frame(
        29, {"dag_id": "d", "node": "n", "ok": True}),
        "unknown message type code 29"),
    "code30": (lambda: _retired_message_frame(
        30, {"dag_id": "d", "ok": True, "outputs": []}),
        "unknown message type code 30"),
}


def test_retired_reference_tag_is_rejected_alike():
    frame = _retired_tag_frame()
    for buffer in (frame, bytearray(frame)):
        outcome = _outcome(decode_message, buffer)
        assert outcome == (CodecError, "unknown tag 10")
        assert outcome == _outcome(_reference_decode, buffer)


@pytest.mark.parametrize("form", RETIRED_DAG_FRAMES)
def test_retired_dag_forms_are_rejected_alike(form):
    build, error = RETIRED_DAG_FRAMES[form]
    frame = build()
    for buffer in (frame, bytearray(frame)):
        outcome = _outcome(decode_message, buffer)
        assert outcome == (CodecError, error)
        assert outcome == _outcome(_reference_decode, buffer)


def _assert_counted_drop_over_tcp(frame: bytes) -> None:
    """A TCP node drops the connection that sent ``frame``, counts one
    ``wire.malformed``, and keeps serving the next connection."""
    from repro.protocol.messages import Ping
    from repro.protocol.tcp import TcpTransport
    from repro.protocol.transport import Component
    from repro.trace.instruments import MetricsRegistry

    class Recorder(Component):
        def __init__(self):
            self.got = []

        def on_message(self, src, msg):
            self.got.append(msg)

    def envelope(frame: bytes) -> bytes:
        src, ret = b"raw-peer", b"127.0.0.1:9"
        return (struct.pack("<I", len(src)) + src
                + struct.pack("<I", len(ret)) + ret + frame)

    def wait_for(predicate, timeout=10.0) -> bool:
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    metrics = MetricsRegistry()
    with TcpTransport(metrics=metrics) as transport:
        recorder = Recorder()
        node = transport.add_node("a", recorder)
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(envelope(frame))
            conn.settimeout(5.0)
            assert conn.recv(1) == b""  # connection dropped
        assert wait_for(lambda: transport.messages_malformed == 1)
        assert metrics.counter("wire.malformed").value == 1
        assert node.alive and recorder.got == []
        with socket.create_connection(("127.0.0.1", node.port)) as conn:
            conn.sendall(envelope(encode_message(Ping(nonce=3))))
            assert wait_for(lambda: recorder.got == [Ping(nonce=3)])
        assert transport.messages_malformed == 1


def test_retired_reference_tag_is_a_counted_drop_over_tcp():
    _assert_counted_drop_over_tcp(_retired_tag_frame())


@pytest.mark.parametrize("form", RETIRED_DAG_FRAMES)
def test_retired_dag_forms_are_counted_drops_over_tcp(form):
    _assert_counted_drop_over_tcp(RETIRED_DAG_FRAMES[form][0]())


def test_reordered_and_surplus_fields_take_the_generic_path():
    from repro.protocol.messages import Busy

    fields = {"detail": "x", "queue_depth": 2, "request_id": 7}  # reordered
    body = bytearray()
    encode_value(fields, body)
    frame = HEADER.pack(MAGIC, PROTOCOL_VERSION, Busy.TYPE_CODE, len(body)) + body
    assert decode_message(frame) == Busy(request_id=7, queue_depth=2, detail="x")
    body = bytearray()
    encode_value({**fields, "extra": 1}, body)
    frame = HEADER.pack(MAGIC, PROTOCOL_VERSION, Busy.TYPE_CODE, len(body)) + body
    with pytest.raises(ProtocolError, match=r"extra=\['extra'\]"):
        decode_message(frame)


# ----------------------------------------------------------------------
# lint: nothing can make a plan lie about its class
# ----------------------------------------------------------------------
def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_no_message_class_bypasses_its_plan():
    """The compiled codec reads attributes by plan name, so a subclass
    overriding ``to_fields`` / ``from_fields`` would encode one thing
    and describe another.  None may; and every registered class's plan
    lists exactly its dataclass fields, in order."""
    for sub in _all_subclasses(Message):
        overridden = {"to_fields", "from_fields"} & set(vars(sub))
        assert not overridden, f"{sub.__name__} overrides {sorted(overridden)}"
    for cls in CLASSES:
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert _PLANS[cls].names == names
        assert _PLANS[cls].name_set == frozenset(names)
