"""Binary wire codec.

Explicit little-endian framing in the XDR spirit — type-tagged values,
raw ndarray buffers with dtype/shape headers, **no pickle anywhere** —
so a malicious peer can at worst produce a :class:`CodecError`, never
code execution.

Frame layout::

    magic   4 bytes  b"NSRV"
    version u16      PROTOCOL_VERSION
    type    u16      Message.TYPE_CODE
    length  u64      body byte count
    body    ...      encoded field dict

Value encoding is a tagged union (tag u8 + payload); containers nest.
Tuples encode as lists; dataclass messages restore declared tuple fields
on decode.

Zero-copy discipline.  The encoder is scatter/gather at heart:
:func:`encode_message_iov` returns a list of buffers — small fields
packed into one shared scratch ``bytearray``, large ndarray payloads
referenced as ``memoryview``\\ s of the (C-contiguous) array — so a
megabyte matrix is never duplicated just to frame it.  ``b"".join`` of
the parts is byte-identical to the single-buffer encoding, which
:func:`encode_message` produces with exactly one payload copy.
:func:`frame_size` sums tag/header/``nbytes`` analytically,
materializing nothing, so the simulated wire can charge a frame without
serializing it.  On decode, frames held in a *writable*
buffer (``bytearray``) yield ndarrays aliasing that buffer where the
payload's offset is aligned for its dtype, and aligned copies where it
is not; read-only input (``bytes``) always copies so decoded arrays stay
writable either way.

Per-message work is compiled, not interpreted: each registered class has
a field plan (``messages.FieldPlan``) from which :func:`_compile`
generates its frame sizer, encoder and decoder at import, with the
header, dict header and keys folded into constants.  Only field values
are walked at run time (``docs/protocol.md``, "Field plans").
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from ..errors import CodecError
from .messages import (
    MESSAGE_TYPES, WIRE_DICT_TAG, WIRE_STR_TAG, DataHandle, Message,
    field_plan,
)

__all__ = [
    "PROTOCOL_VERSION",
    "encode_value",
    "decode_value",
    "encode_message",
    "encode_message_iov",
    "decode_message",
    "encoded_parts",
    "encoded_size",
    "frame_size",
    "MAGIC",
    "HEADER",
    "MAX_BODY",
]

PROTOCOL_VERSION = 1
MAGIC = b"NSRV"
HEADER = struct.Struct("<4sHHQ")

_T_NONE = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = WIRE_STR_TAG
_T_BYTES = 5
_T_LIST = 6
_T_DICT = WIRE_DICT_TAG
_T_NDARRAY = 8
_T_COMPLEX = 9
# 10 is retired (it was a bare object key): decoders reject it
_T_HANDLE = 11
# 12 is retired (it was a request-DAG node reference): decoders reject it

#: wire dtype name -> dtype
_ALLOWED_DTYPES = {
    name: np.dtype(name)
    for name in ("float64", "int64", "complex128", "float32", "int32", "bool")
}

# guards against absurd allocations from hostile length fields
_MAX_CONTAINER = 1_000_000
_MAX_NDIM = 8
_MAX_BODY = 1 << 34  # 16 GiB

#: public alias so transports can bound receive buffers before allocating
MAX_BODY = _MAX_BODY

#: payloads at least this large ride as their own iov entry instead of
#: being copied into the scratch buffer (below it, locality wins)
_IOV_PAYLOAD_MIN = 1024

_I64, _F64, _C128 = struct.Struct("<q"), struct.Struct("<d"), struct.Struct("<dd")
_U32, _U64 = struct.Struct("<I"), struct.Struct("<Q")
_pack_i64, _pack_u32, _pack_u64 = _I64.pack, _U32.pack, _U64.pack
#: a tag byte and its fixed-width payload in one call
_pack_tag_i64 = struct.Struct("<Bq").pack
_pack_tag_f64 = struct.Struct("<Bd").pack
_pack_tag_c128 = struct.Struct("<Bdd").pack
_pack_tag_u32 = struct.Struct("<BI").pack
#: ndarray header tail by rank: ndim u8, the dims as i64, nbytes u64
_PACK_SHAPE = [struct.Struct(f"<B{n}qQ").pack for n in range(_MAX_NDIM + 1)]

#: dtype object -> ``ndarray tag + name length + name``; filling it is
#: also the allowed-dtype check, so ``dtype.name`` (slow on numpy 2) is
#: read once per dtype, not once per array
_DTYPE_HEADS: dict = {}


def _dtype_head(dtype) -> bytes:
    head = _DTYPE_HEADS.get(dtype)
    if head is None:
        name = dtype.name
        if name not in _ALLOWED_DTYPES:
            raise CodecError(f"unsupported ndarray dtype {name!r}")
        head = bytes((_T_NDARRAY, len(name))) + name.encode("ascii")
        _DTYPE_HEADS[dtype] = head
    return head


class _IovBuilder:
    """Accumulates an encoding as scratch-buffer runs + payload views.

    Scratch offsets are recorded as ``(start, end, None)`` and sliced
    only in :meth:`finish` — taking a ``memoryview`` of the scratch
    earlier would lock the bytearray against further appends.
    """

    __slots__ = ("scratch", "_segments", "_run_start", "payload_bytes")

    def __init__(self) -> None:
        self.scratch = bytearray()
        self._segments: list[tuple[int, int, Any]] = []
        self._run_start = 0
        self.payload_bytes = 0

    def add_payload(self, buf, nbytes: int) -> None:
        """Emit ``buf`` (bytes or a C-contiguous memoryview) in place."""
        end = len(self.scratch)
        if end > self._run_start:
            self._segments.append((self._run_start, end, None))
        self._segments.append((0, 0, buf))
        self._run_start = end
        self.payload_bytes += nbytes

    def finish(self) -> list:
        end = len(self.scratch)
        if end > self._run_start:
            self._segments.append((self._run_start, end, None))
            self._run_start = end
        view = memoryview(self.scratch)
        return [
            view[s:e] if buf is None else buf
            for s, e, buf in self._segments
        ]


# ----------------------------------------------------------------------
# value walkers: one sizer and one encoder per wire type, in two tables
# keyed by the value's exact type.  A subclass or numpy scalar is looked
# up through its MRO once and remembered.
# ----------------------------------------------------------------------
def _resolve(table: dict, kind: type):
    for base in kind.__mro__:
        walker = table.get(base)
        if walker is not None:
            table[kind] = walker
            return walker
    raise CodecError(f"cannot encode {kind.__name__}")


def _check_int(iv: int) -> int:
    if not -(2**63) <= iv < 2**63:
        raise CodecError(f"integer out of i64 range: {iv}")
    return iv


def _check_len(value) -> int:
    if len(value) > _MAX_CONTAINER:
        raise CodecError("container too large")
    return len(value)


def _handle_texts(value: DataHandle) -> tuple:
    """The handle's five strings in wire order, once its rank is checked."""
    if len(value.shape) > _MAX_NDIM:
        raise CodecError(f"handle rank {len(value.shape)} exceeds {_MAX_NDIM}")
    return value.key, value.digest, value.server_id, value.address, value.dtype


def _enc_int(value, b: _IovBuilder) -> None:
    b.scratch += _pack_tag_i64(_T_INT, _check_int(int(value)))


def _enc_float(value, b: _IovBuilder) -> None:
    b.scratch += _pack_tag_f64(_T_FLOAT, float(value))


def _enc_complex(value, b: _IovBuilder) -> None:
    cv = complex(value)
    b.scratch += _pack_tag_c128(_T_COMPLEX, cv.real, cv.imag)


def _enc_str(value: str, b: _IovBuilder) -> None:
    raw = value.encode("utf-8")
    b.scratch += _pack_tag_u32(_T_STR, len(raw))
    b.scratch += raw


def _enc_bytes(value, b: _IovBuilder) -> None:
    if isinstance(value, memoryview) and not (
        value.c_contiguous and value.format == "B"
    ):
        value = bytes(value)
    nbytes = value.nbytes if isinstance(value, memoryview) else len(value)
    b.scratch += _pack_tag_u32(_T_BYTES, nbytes)
    if nbytes >= _IOV_PAYLOAD_MIN:
        b.add_payload(
            bytes(value) if isinstance(value, bytearray) else value, nbytes
        )
    else:
        b.scratch += value


def _enc_ndarray(value: np.ndarray, b: _IovBuilder) -> None:
    head = _dtype_head(value.dtype)
    if value.ndim > _MAX_NDIM:
        raise CodecError(f"ndarray rank {value.ndim} exceeds {_MAX_NDIM}")
    contig = np.ascontiguousarray(value)
    nbytes = contig.nbytes
    out = b.scratch
    out += head
    out += _PACK_SHAPE[contig.ndim](contig.ndim, *contig.shape, nbytes)
    if nbytes >= _IOV_PAYLOAD_MIN:
        # the memoryview keeps ``contig`` alive until the parts are
        # consumed; no byte materialization happens here
        b.add_payload(memoryview(contig).cast("B"), nbytes)
    elif nbytes:
        out += memoryview(contig).cast("B")


def _enc_handle(value: DataHandle, b: _IovBuilder) -> None:
    texts = _handle_texts(value)
    out = b.scratch
    out.append(_T_HANDLE)
    for text in texts:
        raw = text.encode("utf-8")
        out += _pack_u32(len(raw))
        out += raw
    out += _pack_u64(value.nbytes)
    out.append(len(value.shape))
    for dim in value.shape:
        out += _pack_i64(int(dim))


def _enc_seq(value, b: _IovBuilder) -> None:
    b.scratch += _pack_tag_u32(_T_LIST, _check_len(value))
    for item in value:
        _encode_iov(item, b)


def _enc_dict(value: dict, b: _IovBuilder) -> None:
    b.scratch += _pack_tag_u32(_T_DICT, _check_len(value))
    for key, item in value.items():
        if not isinstance(key, str):
            raise CodecError(f"dict keys must be str, got {type(key).__name__}")
        _enc_str(key, b)
        _encode_iov(item, b)


_ENCODERS = {
    type(None): lambda v, b: b.scratch.append(_T_NONE),
    bool: lambda v, b: b.scratch.extend((_T_BOOL, v)),
    int: _enc_int, np.integer: _enc_int,
    float: _enc_float, np.floating: _enc_float,
    complex: _enc_complex, np.complexfloating: _enc_complex,
    str: _enc_str,
    bytes: _enc_bytes, bytearray: _enc_bytes, memoryview: _enc_bytes,
    np.ndarray: _enc_ndarray,
    DataHandle: _enc_handle,
    tuple: _enc_seq, list: _enc_seq,
    dict: _enc_dict,
}


def _encode_iov(value: Any, b: _IovBuilder) -> None:
    """Append the tagged encoding of ``value`` to the builder."""
    kind = type(value)
    (_ENCODERS.get(kind) or _resolve(_ENCODERS, kind))(value, b)


def encode_value(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    for part in encoded_parts(value):
        out += part


def encoded_parts(value: Any) -> list:
    """The tagged encoding of ``value`` as scatter/gather parts.

    Small fields share one scratch bytearray; each large ndarray payload
    is a ``memoryview`` of the (C-contiguous) array's own memory, so
    consumers that only *read* the encoding — content digests, checksums
    — never pay a serialization copy.  ``b"".join(parts)`` equals
    :func:`encode_value` byte for byte.
    """
    b = _IovBuilder()
    _encode_iov(value, b)
    return b.finish()


def _size_int(value) -> int:
    _check_int(int(value))
    return 9


def _size_str(value: str) -> int:
    return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))


def _size_ndarray(value: np.ndarray) -> int:
    head = _dtype_head(value.dtype)
    if value.ndim > _MAX_NDIM:
        raise CodecError(f"ndarray rank {value.ndim} exceeds {_MAX_NDIM}")
    # ascontiguousarray promotes 0-d to shape (1,) on the wire
    return len(head) + 1 + 8 * (value.ndim or 1) + 8 + value.nbytes


def _size_handle(value: DataHandle) -> int:
    texts = sum(_size_str(text) - 1 for text in _handle_texts(value))
    return 1 + texts + 8 + 1 + 8 * len(value.shape)


def _size_seq(value) -> int:
    _check_len(value)
    return 5 + sum(map(encoded_size, value))


def _size_dict(value: dict) -> int:
    _check_len(value)
    total = 5
    for key, item in value.items():
        if not isinstance(key, str):
            raise CodecError(f"dict keys must be str, got {type(key).__name__}")
        total += _size_str(key) + encoded_size(item)
    return total


_SIZERS = {
    type(None): lambda v: 1,
    bool: lambda v: 2,
    int: _size_int, np.integer: _size_int,
    float: lambda v: 9, np.floating: lambda v: 9,
    complex: lambda v: 17, np.complexfloating: lambda v: 17,
    str: _size_str,
    bytes: lambda v: 5 + len(v), bytearray: lambda v: 5 + len(v),
    memoryview: lambda v: 5 + v.nbytes,
    np.ndarray: _size_ndarray,
    DataHandle: _size_handle,
    tuple: _size_seq, list: _size_seq,
    dict: _size_dict,
}


def encoded_size(value: Any) -> int:
    """Exact byte count :func:`encode_value` would produce — computed
    analytically, with the same validation, materializing no payloads."""
    kind = type(value)
    return (_SIZERS.get(kind) or _resolve(_SIZERS, kind))(value)


def _fixed_reader(st: struct.Struct):
    """A ``_Reader`` method reading one fixed-width scalar in place."""
    unpack_from, size = st.unpack_from, st.size

    def read(self):
        try:
            (value,) = unpack_from(self.data, self.pos)
        except struct.error:
            raise CodecError("truncated frame") from None
        self.pos += size
        return value

    return read


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data):
        # a memoryview keeps per-``take`` slices copy-free whether the
        # frame arrived as bytes, bytearray or another view
        self.data = data if isinstance(data, memoryview) else memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise CodecError("truncated frame")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise CodecError("truncated frame")
        byte = self.data[self.pos]
        self.pos += 1
        return byte

    u32 = _fixed_reader(_U32)
    u64 = _fixed_reader(_U64)
    i64 = _fixed_reader(_I64)
    f64 = _fixed_reader(_F64)

    def text(self, where: str = "") -> str:
        """A u32-length-prefixed utf-8 string."""
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad utf-8{where}: {exc}") from None

    def done(self) -> bool:
        return self.pos == len(self.data)


def _decode(reader: _Reader, depth: int = 0) -> Any:
    if depth > 32:
        raise CodecError("nesting too deep")
    tag = reader.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        flag = reader.u8()
        if flag not in (0, 1):
            raise CodecError(f"bad bool byte {flag}")
        return bool(flag)
    if tag == _T_INT:
        return reader.i64()
    if tag == _T_FLOAT:
        return reader.f64()
    if tag == _T_COMPLEX:
        return complex(*_C128.unpack(reader.take(16)))
    if tag == _T_STR:
        return reader.text()
    if tag == _T_BYTES:
        return bytes(reader.take(reader.u32()))
    if tag == _T_NDARRAY:
        try:
            dname = bytes(reader.take(reader.u8())).decode("ascii")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad dtype name bytes: {exc}") from None
        dtype = _ALLOWED_DTYPES.get(dname)
        if dtype is None:
            raise CodecError(f"unsupported ndarray dtype {dname!r}")
        ndim = reader.u8()
        if ndim > _MAX_NDIM:
            raise CodecError(f"ndarray rank {ndim} exceeds {_MAX_NDIM}")
        shape = tuple(reader.i64() for _ in range(ndim))
        if any(d < 0 for d in shape):
            raise CodecError(f"negative dimension in {shape}")
        nbytes = reader.u64()
        expected = math.prod(shape) * dtype.itemsize
        if nbytes != expected:
            raise CodecError(
                f"ndarray payload {nbytes} bytes, shape {shape} "
                f"implies {expected}"
            )
        raw = reader.take(nbytes)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        if not arr.flags.writeable or not arr.flags.aligned:
            # copy only when forced: a read-only source buffer (bytes)
            # must not leak into mutable decoded arrays, and an array at
            # a misaligned frame offset would poison every downstream
            # BLAS call (unaligned loads are ~2x slower than one memcpy)
            arr = arr.copy()
        return arr
    if tag == _T_HANDLE:
        key, digest, server_id, address, dtype = (
            reader.text(" in handle") for _ in range(5)
        )
        nbytes = reader.u64()
        ndim = reader.u8()
        if ndim > _MAX_NDIM:
            raise CodecError(f"handle rank {ndim} exceeds {_MAX_NDIM}")
        shape = tuple(reader.i64() for _ in range(ndim))
        if any(d < 0 for d in shape):
            raise CodecError(f"negative dimension in {shape}")
        return DataHandle(
            key=key, digest=digest, nbytes=nbytes, server_id=server_id,
            address=address, shape=shape, dtype=dtype,
        )
    if tag == _T_LIST:
        count = reader.u32()
        if count > _MAX_CONTAINER:
            raise CodecError("container too large")
        return [_decode(reader, depth + 1) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.u32()
        if count > _MAX_CONTAINER:
            raise CodecError("container too large")
        out: dict[str, Any] = {}
        for _ in range(count):
            key = _decode(reader, depth + 1)
            if not isinstance(key, str):
                raise CodecError("dict key is not a string")
            out[key] = _decode(reader, depth + 1)
        return out
    raise CodecError(f"unknown tag {tag}")


def decode_value(data) -> Any:
    """Decode a single tagged value; the buffer must be fully consumed.

    ``data`` may be bytes, bytearray or a memoryview; ndarrays decoded
    from a *writable* buffer alias it instead of copying.
    """
    reader = _Reader(data)
    value = _decode(reader)
    if not reader.done():
        raise CodecError(
            f"{len(reader.data) - reader.pos} trailing byte(s) after value"
        )
    return value


# ----------------------------------------------------------------------
# message framing: one compiled sizer / encoder / decoder per class
# ----------------------------------------------------------------------
#: message class -> its compiled (frame_size, encode, decode)
_FRAME_CODECS: dict[type, tuple] = {}


def _finish_frame(b: _IovBuilder, type_code: int) -> list:
    HEADER.pack_into(
        b.scratch, 0, MAGIC, PROTOCOL_VERSION, type_code,
        len(b.scratch) + b.payload_bytes - HEADER.size,
    )
    return b.finish()


def _decode_generic(cls: type, view: memoryview) -> Message:
    """The frame decoder for anything but the canonical layout (fields
    reordered, missing, repeated, surplus): decode the body as a plain
    dict and let ``from_fields`` judge the field set."""
    fields = decode_value(view[HEADER.size :])
    if not isinstance(fields, dict):
        raise CodecError("message body is not a field dict")
    return cls.from_fields(fields)


#: the three functions of one class.  Upper-case names are constants of
#: the class (``PRE``: zeroed frame header + dict header, ``K<i>``: the
#: i-th key's bytes, ``U<i>``: a ``Struct`` reading that many bytes), ``S``
#: / ``E`` the exact-type tables, ``size`` / ``enc`` / ``dec`` the generic
#: walkers.  The decoder leaves on the first byte that is not the
#: canonical layout: ``generic`` then decodes the frame from the start.
_FRAME_SOURCE = """\
def frame_size(m):
    n = {const}
{size_fields}    return n

def encode(m):
    b = B()
    out = b.scratch
    out += PRE
{encode_fields}    return finish(b, {type_code})

def decode(view):
    r = R(view)
    data = r.data
    try:
        if UH(data, {head_at})[0] != HEAD:
            return generic(cls, view)
        pos = {body_at}
{decode_fields}    except short_buffer:
        return generic(cls, view)
    if pos != len(data):
        return generic(cls, view)
    return cls({values})
"""
_SIZE_FIELD = """\
    v = m.{name}
    f = S.get(type(v))
    n += f(v) if f is not None else size(v)
"""
_ENCODE_FIELD = """\
    out += K{i}
    v = m.{name}
    f = E.get(type(v))
    if f is not None:
        f(v, b)
    else:
        enc(v, b)
"""
_DECODE_FIELD = """\
        if U{i}(data, pos)[0] != K{i}:
            return generic(cls, view)
        r.pos = pos + {key_len}
        v{i} = dec(r, 1)
        if type(v{i}) is list:
            v{i} = tuple(v{i})
        pos = r.pos
"""


def _compile(cls: type) -> tuple:
    """Generate ``cls``'s frame sizer, encoder and decoder from its field
    plan.  The frame header, the dict header and every key are constants
    of the class, so the sizer starts from their folded byte count and
    the encoder appends them as literals; only field *values* are walked,
    through the exact-type tables with the generic walkers behind them.
    The decoder expects the keys in declared order and hands anything
    else to :func:`_decode_generic`."""
    if cls.TYPE_CODE not in MESSAGE_TYPES:
        raise CodecError(f"unregistered message type {cls.__name__}")
    plan = field_plan(cls)
    ns = {
        "B": _IovBuilder, "E": _ENCODERS, "S": _SIZERS, "R": _Reader,
        "enc": _encode_iov, "size": encoded_size, "dec": _decode,
        "finish": _finish_frame, "generic": _decode_generic, "cls": cls,
        "short_buffer": struct.error,
        "PRE": bytes(HEADER.size) + plan.head, "HEAD": plan.head,
        "UH": struct.Struct(f"{len(plan.head)}s").unpack_from,
    }
    fields = []
    for i, (name, key) in enumerate(zip(plan.names, plan.keys)):
        ns[f"K{i}"] = key
        ns[f"U{i}"] = struct.Struct(f"{len(key)}s").unpack_from
        fields.append({"i": i, "name": name, "key_len": len(key)})
    source = _FRAME_SOURCE.format(
        const=HEADER.size + plan.body_const,
        type_code=cls.TYPE_CODE,
        head_at=HEADER.size,
        body_at=HEADER.size + len(plan.head),
        size_fields="".join(_SIZE_FIELD.format(**f) for f in fields),
        encode_fields="".join(_ENCODE_FIELD.format(**f) for f in fields),
        decode_fields="".join(_DECODE_FIELD.format(**f) for f in fields),
        values=", ".join(f"v{f['i']}" for f in fields),
    )
    exec(source, ns)  # noqa: S102 — our own template, dataclass field names
    compiled = _FRAME_CODECS[cls] = ns["frame_size"], ns["encode"], ns["decode"]
    return compiled


for _cls in MESSAGE_TYPES.values():
    _compile(_cls)


def encode_message_iov(msg: Message) -> list:
    """Scatter/gather encoding: header + body as a list of buffers.

    Small fields share one scratch bytearray; each large ndarray payload
    is a ``memoryview`` of the array's own memory.  ``b"".join(parts)``
    equals :func:`encode_message` byte for byte.  The views pin their
    arrays, so the parts stay valid as long as the list is referenced —
    but mutating a source array before the parts are consumed mutates
    the wire bytes.
    """
    cls = type(msg)
    return (_FRAME_CODECS.get(cls) or _compile(cls))[1](msg)


def encode_message(msg: Message) -> bytes:
    """Encode a message into one framed byte string (a single payload
    copy — the join; the scatter/gather path avoids even that)."""
    return b"".join(encode_message_iov(msg))


def decode_message(data) -> Message:
    """Decode one framed message; the buffer must hold exactly one frame.

    Accepts bytes, bytearray or a memoryview.  When the buffer is
    writable (a ``bytearray``), a decoded ndarray whose payload offset is
    aligned for its dtype aliases it; a misaligned one is copied (today's
    layout puts ``blas/dgemm`` operands at such offsets).  Aliasing arrays
    keep the buffer alive, so only hand in a buffer you will not recycle
    — or pass ``bytes`` to force owning copies.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if len(view) < HEADER.size:
        raise CodecError(f"frame shorter than header ({len(view)} bytes)")
    magic, version, type_code, length = HEADER.unpack_from(view)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise CodecError(f"protocol version {version}, expected {PROTOCOL_VERSION}")
    if length > _MAX_BODY:
        raise CodecError(f"body length {length} exceeds limit")
    if len(view) != HEADER.size + length:
        raise CodecError(
            f"frame length mismatch: header says {length}, "
            f"got {len(view) - HEADER.size}"
        )
    cls = MESSAGE_TYPES.get(type_code)
    if cls is None:
        raise CodecError(f"unknown message type code {type_code}")
    return (_FRAME_CODECS.get(cls) or _compile(cls))[2](view)


def frame_size(msg: Message) -> int:
    """Byte count of the encoded frame (what the simulated wire charges),
    computed analytically — no payload is serialized or copied."""
    cls = type(msg)
    return (_FRAME_CODECS.get(cls) or _compile(cls))[0](msg)
