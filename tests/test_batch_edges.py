"""The registry's batch lane and the inputs at its edges.

The server coalesces queued same-problem, same-shape requests and runs
them through :meth:`ProblemRegistry.execute_batch`, whose batch handlers
make one stacked kernel call.  Batching is on by default because a
client cannot tell whether its request was coalesced: every stacked
result equals the per-item ``execute`` result bit for bit, and a member
the stacked call cannot take fails alone, with the error it would have
met on its own, through the per-item fallback.  Shapes that do not
stack are refused by the stacked call, never silently broadcast.
"""

import numpy as np
import pytest

from repro.errors import BadArgumentsError, NumericsError, SingularMatrixError
from repro.problems.builtin import builtin_registry

RNG = np.random.default_rng(23)
REGISTRY = builtin_registry()


def _dgesv(n):
    return (RNG.standard_normal((n, n)) + n * np.eye(n), RNG.standard_normal(n))


def _dgemm(n):
    return (RNG.standard_normal((n, n + 1)), RNG.standard_normal((n + 1, 2)))


def _fft(n):
    return (RNG.standard_normal(n) + 1j * RNG.standard_normal(n),)


CASES = {
    "linsys/dgesv": (_dgesv, (1, 2, 3, 16, 64, 128)),
    "blas/dgemm": (_dgemm, (1, 2, 5, 48)),
    "signal/fft": (_fft, (1, 2, 4, 64, 1024)),
}


def _single(name, item):
    (out,) = REGISTRY.execute(name, item)
    return out


def test_every_batch_handler_is_covered():
    assert sorted(n for n in REGISTRY if REGISTRY.get(n).batch_handler) \
        == sorted(CASES)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_call_equals_per_item_execute_bit_for_bit(name, k):
    make, sizes = CASES[name]
    for n in sizes:
        items = [make(n) for _ in range(k)]
        stacked = REGISTRY.get(name).batch_handler(items)  # no fallback here
        lane = REGISTRY.execute_batch(name, items)
        assert len(stacked) == len(lane) == k
        for item, raw, (out,) in zip(items, stacked, lane):
            single = _single(name, item)
            for got in (raw, out):
                assert got.dtype == single.dtype and got.shape == single.shape
                assert np.array_equal(got, single), f"{name} n={n} k={k}"


def test_a_singular_member_fails_alone_through_the_fallback():
    good = [_dgesv(8) for _ in range(2)]
    items = [good[0], (np.ones((8, 8)), np.ones(8)), good[1]]
    with pytest.raises(SingularMatrixError):
        REGISTRY.get("linsys/dgesv").batch_handler(items)
    results = REGISTRY.execute_batch("linsys/dgesv", items)
    assert isinstance(results[1], SingularMatrixError)
    assert "singular" in str(results[1]).lower()
    for item, (out,) in zip(good, (results[0], results[2])):
        assert np.array_equal(out, _single("linsys/dgesv", item))


@pytest.mark.parametrize("bad", [
    np.full((3, 3), np.nan),
    np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]]),
], ids=["nan", "inf"])
def test_non_finite_matrix_rejected(bad):
    item = (bad, np.ones(3))
    message = "matrix contains non-finite entries"
    with pytest.raises(NumericsError, match=message):
        REGISTRY.execute("linsys/dgesv", item)
    good = _dgesv(3)
    results = REGISTRY.execute_batch("linsys/dgesv", [good, item])
    assert np.array_equal(results[0][0], _single("linsys/dgesv", good))
    assert type(results[1]) is NumericsError and str(results[1]) == message


def test_empty_matrix_rejected():
    with pytest.raises(NumericsError, match="empty matrix"):
        REGISTRY.execute("linsys/dgesv", (np.zeros((0, 0)), np.zeros(0)))


def test_non_square_rejected():
    # the spec binds n from both dimensions, so a non-square matrix
    # never reaches gesv, whose LinAlgError would read as "singular"
    item = (RNG.standard_normal((4, 5)), np.ones(4))
    with pytest.raises(BadArgumentsError, match="size symbol 'n'"):
        REGISTRY.execute("linsys/dgesv", item)
    results = REGISTRY.execute_batch("linsys/dgesv", [_dgesv(4), item])
    assert isinstance(results[1], BadArgumentsError)


def test_mixed_matrix_shapes_rejected():
    items = [_dgesv(6), _dgesv(4)]
    with pytest.raises(ValueError):
        REGISTRY.get("linsys/dgesv").batch_handler(items)
    results = REGISTRY.execute_batch("linsys/dgesv", items)
    for item, (out,) in zip(items, results):
        assert np.array_equal(out, _single("linsys/dgesv", item))


def test_fft_mixed_lengths_rejected():
    items = [_fft(8), _fft(16)]
    with pytest.raises(ValueError):
        REGISTRY.get("signal/fft").batch_handler(items)
    results = REGISTRY.execute_batch("signal/fft", items)
    for item, (out,) in zip(items, results):
        assert np.array_equal(out, _single("signal/fft", item))


@pytest.mark.parametrize("n", [0, 3, 12])
def test_fft_rejects_lengths_that_are_not_a_power_of_two(n):
    x = np.ones(n, dtype=np.complex128)
    message = f"fft length must be a power of two, got {n}"
    with pytest.raises(NumericsError, match=message):
        REGISTRY.execute("signal/fft", (x,))
    results = REGISTRY.execute_batch("signal/fft", [(x,), (x.copy(),)])
    assert [str(r) for r in results] == [message, message]
