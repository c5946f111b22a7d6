"""Content-digest correctness properties (the cache's foundation).

The whole result-cache stack is sound only if ``solve_digest`` is a
*canonical* content address: every representation of the same logical
request must collide (aliased, strided, non-contiguous, freshly-built
arrays with equal values), and any change to the logical request —
values, dtype, shape, problem name, environment — must separate.  These
are fuzzed over hundreds of cases because the canonicalization rides the
codec's ``ascontiguousarray`` pass, and a single layout that slips
through uncanonicalized would poison caches with false misses (merely
slow) or — far worse — false hits.
"""

import numpy as np
import pytest

from repro.protocol.messages import DataHandle
from repro.store import solve_digest

RNG = np.random.default_rng(20260808)


def test_digest_is_stable_and_hex():
    a = np.arange(12.0).reshape(3, 4)
    d1 = solve_digest("blas/dgemm", [a, a.T.copy()])
    d2 = solve_digest("blas/dgemm", [a.copy(), np.ascontiguousarray(a.T)])
    assert d1 == d2
    assert isinstance(d1, str) and len(d1) == 40
    int(d1, 16)  # hex or raise


def test_digest_length_is_value_independent():
    """Frame sizes must not depend on input values: every digest is the
    same fixed width (seed-isolation timing rests on this)."""
    lengths = {
        len(solve_digest("p", [RNG.standard_normal(5)])) for _ in range(20)
    }
    assert lengths == {40}


# ----------------------------------------------------------------------
# equality across layouts: alias / stride / copy / rebuild
# ----------------------------------------------------------------------
def _layouts(a: np.ndarray):
    """Different in-memory representations of the same logical array."""
    yield a
    yield a.copy()                                   # fresh contiguous
    yield np.asfortranarray(a)                       # F-order
    padded = np.zeros((a.shape[0] * 2, a.shape[1] * 2), dtype=a.dtype)
    padded[::2, ::2] = a
    yield padded[::2, ::2]                           # strided view
    big = np.concatenate([a, a])
    yield big[: a.shape[0]]                          # alias into a buffer
    yield a[::-1][::-1]                              # double-reversed view


@pytest.mark.parametrize("n,m", [(1, 1), (3, 5), (8, 8), (17, 2)])
def test_equal_value_layouts_collide(n, m):
    a = RNG.standard_normal((n, m))
    b = RNG.standard_normal(m)
    reference = solve_digest("linsys/dgesv", [a, b], {"n": n})
    for variant in _layouts(a):
        assert np.array_equal(variant, a)  # the premise, not the test
        assert solve_digest("linsys/dgesv", [variant, b], {"n": n}) \
            == reference


def test_fuzzed_layout_collisions():
    """Hundreds of random shapes x layouts: same values => same digest."""
    cases = 0
    for trial in range(60):
        n = int(RNG.integers(1, 24))
        m = int(RNG.integers(1, 24))
        a = RNG.standard_normal((n, m))
        reference = solve_digest("fuzz/layout", [a])
        for variant in _layouts(a):
            assert solve_digest("fuzz/layout", [variant]) == reference
            cases += 1
    assert cases >= 300


# ----------------------------------------------------------------------
# separation: any logical change moves the digest
# ----------------------------------------------------------------------
def test_value_changes_separate():
    for _ in range(100):
        a = RNG.standard_normal((4, 4))
        b = a.copy()
        i, j = RNG.integers(0, 4, size=2)
        b[i, j] += 1e-12  # the smallest change the wire can carry
        assert solve_digest("p", [a]) != solve_digest("p", [b])


def test_dtype_separates_even_with_equal_values():
    a64 = np.arange(6.0)
    a32 = a64.astype(np.float32)
    ai = a64.astype(np.int64)
    digests = {
        solve_digest("p", [a64]),
        solve_digest("p", [a32]),
        solve_digest("p", [ai]),
    }
    assert len(digests) == 3


def test_shape_separates_even_with_equal_buffers():
    flat = np.arange(12.0)
    assert solve_digest("p", [flat.reshape(3, 4)]) \
        != solve_digest("p", [flat.reshape(4, 3)])
    assert solve_digest("p", [flat]) != solve_digest("p", [flat.reshape(3, 4)])


def test_problem_name_separates():
    a = np.arange(5.0)
    assert solve_digest("linsys/dgesv", [a]) != solve_digest("blas/dgemm", [a])


def test_env_separates_and_is_key_order_invariant():
    a = np.arange(5.0)
    assert solve_digest("p", [a], {"n": 5}) != solve_digest("p", [a], {"n": 6})
    assert solve_digest("p", [a], {"n": 5}) != solve_digest("p", [a])
    assert solve_digest("p", [a], {"n": 5, "m": 2}) \
        == solve_digest("p", [a], {"m": 2, "n": 5})


def test_input_boundaries_separate():
    """Splitting the same bytes differently across operands must not
    collide (the fold covers structure, not just concatenated payload)."""
    a = np.arange(8.0)
    assert solve_digest("p", [a[:4], a[4:]]) != solve_digest("p", [a])
    assert solve_digest("p", [a[:2], a[2:]]) != solve_digest("p", [a[:4], a[4:]])


def test_fuzzed_separation():
    """Random perturbations of random requests never collide."""
    for _ in range(150):
        n = int(RNG.integers(2, 16))
        a = RNG.standard_normal(n)
        base = solve_digest("fuzz/sep", [a], {"n": n})
        kind = int(RNG.integers(0, 4))
        if kind == 0:
            mutated = solve_digest("fuzz/sep2", [a], {"n": n})
        elif kind == 1:
            mutated = solve_digest("fuzz/sep", [a * 1.0000001], {"n": n})
        elif kind == 2:
            mutated = solve_digest("fuzz/sep", [a], {"n": n + 1})
        else:
            mutated = solve_digest("fuzz/sep", [a.astype(np.float32)],
                                   {"n": n})
        assert mutated != base


# ----------------------------------------------------------------------
# scalars, mixed operands, undigestable requests
# ----------------------------------------------------------------------
def test_scalar_and_mixed_operands():
    m = np.eye(3)
    base = solve_digest("ode/linear", [m, np.ones(3), 100, 1.0])
    assert base == solve_digest("ode/linear", [m.copy(), np.ones(3), 100, 1.0])
    assert base != solve_digest("ode/linear", [m, np.ones(3), 101, 1.0])
    assert base != solve_digest("ode/linear", [m, np.ones(3), 100, 2.0])


def test_object_refs_are_not_digestable():
    """A bare-key handle names server-side state and carries no digest:
    with no resolver its content is not in hand, so the request must
    never be cached by content."""
    assert solve_digest("p", [DataHandle(key="x"), np.ones(2)]) is None
    assert solve_digest("p", [[DataHandle(key="x")]]) is None


def test_resolver_digest_wins_over_carried_digest():
    """The server's resolver names what is resident now, so a handle
    folds to the same key whatever (possibly stale) digest it carries,
    and to none when the key is not resident."""
    resident = {"x": "ab" * 20}
    bare = solve_digest("p", [DataHandle(key="x")], resolve_ref=resident.get)
    stale = DataHandle(key="x", digest="cd" * 20)
    assert bare is not None
    assert solve_digest("p", [stale], resolve_ref=resident.get) == bare
    assert solve_digest("p", [stale]) != bare  # no resolver: carried wins
    assert solve_digest("p", [stale], resolve_ref={}.get) is None


def test_codec_rejected_values_are_not_digestable():
    assert solve_digest("p", [object()]) is None
