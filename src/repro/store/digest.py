"""Content-addressed request digests.

A solve is memoizable when two requests that would compute the same
answer hash to the same key.  The key covers everything the kernel sees:
the problem name, the *canonicalized* input values, and the bound size
environment.  Canonicalization rides on the wire codec — ``_encode_iov``
already flattens every ndarray with ``ascontiguousarray``, so aliased,
strided and contiguous views of the same values produce byte-identical
encodings, while a different dtype, shape, problem or env changes the
bytes (and hence the digest).  The hash is folded incrementally over the
scatter/gather parts, so a megabyte matrix is hashed straight out of its
own buffer — no serialization pass, no copy.

Reference folding: an input that is a :class:`DataHandle` does not
make the request un-addressable.  Its position contributes the *stored
content digest* of the referenced object — a constant-size marker — so a
handle-bearing request digests in O(1) of the referenced payload and
repeat submissions hit the result cache without the value ever being
re-hashed (or even in hand, on the client side).  Reference-folded
digests form their own key space: the same logical request submitted
by-value hashes the raw bytes instead, so the two forms do not collide
and do not alias.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Mapping, Optional, Sequence

from ..errors import CodecError
from ..protocol.codec import encoded_parts
from ..protocol.messages import DataHandle

__all__ = ["solve_digest"]

#: blake2b output size; 20 bytes / 40 hex chars, constant-length so the
#: QueryRequest frame size never depends on input *values*
_DIGEST_BYTES = 20

#: marker tag for a folded reference; chosen to be un-constructable from
#: ordinary payloads only by deliberate effort (a client passing the
#: literal tuple ``("\x00ref", <40 hex>)`` as an argument would collide)
_REF_MARK = "\x00ref"


class _Unresolvable(Exception):
    """Internal: a reference had no digest in hand and no resolver."""


def _fold(value: Any, resolve: Optional[Callable[[str], Optional[str]]]):
    """``value`` with every reference replaced by its digest marker.

    A resolver, when given, names the digest of what is resident *now*,
    so it wins over the (possibly stale) digest a handle carries.
    """
    if isinstance(value, DataHandle):
        digest = resolve(value.key) if resolve is not None else value.digest
        if not digest:
            raise _Unresolvable
        return (_REF_MARK, digest)
    if isinstance(value, (list, tuple)):
        return tuple(_fold(item, resolve) for item in value)
    if isinstance(value, dict):
        return {key: _fold(item, resolve) for key, item in value.items()}
    return value


def solve_digest(
    problem: str,
    inputs: Sequence[Any],
    env: Optional[Mapping[str, Any]] = None,
    *,
    resolve_ref: Optional[Callable[[str], Optional[str]]] = None,
) -> Optional[str]:
    """Hex digest keying ``(problem, inputs, env)``, or ``None``.

    Inputs containing references digest by *folding*: a
    :class:`DataHandle` contributes the digest ``resolve_ref`` returns
    for its key or, with no resolver, the content digest it carries.
    Returns ``None`` when the request is not content-addressable: a
    reference whose digest is not in hand (none carried and no
    resolver, or the resolver answers ``None`` — e.g. the key is not
    resident), or values the codec cannot encode.  Callers must treat
    ``None`` as "do not cache".

    Dict iteration order is part of the encoding, so the env is re-keyed
    in sorted order before hashing — two envs with the same bindings
    always digest equal.
    """
    try:
        folded = tuple(_fold(item, resolve_ref) for item in inputs)
    except _Unresolvable:
        return None
    canonical_env = (
        {key: env[key] for key in sorted(env)} if env else {}
    )
    try:
        parts = encoded_parts((problem, folded, canonical_env))
    except CodecError:
        return None
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in parts:
        h.update(part)
    return h.hexdigest()
