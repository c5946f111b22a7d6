"""Degenerate inputs to the batched kernels.

The server's batching lane never *should* build an empty or mixed-shape
batch — ``_mates`` filters by signature — but the kernels are
public API and must fail loudly (typed errors, no silent wrong answers)
rather than trusting their one internal caller.  The batch-of-one case
additionally pins the bit-identity contract at its smallest instance:
a stack of one must be indistinguishable from the unbatched kernel.
"""

import numpy as np
import pytest

from repro.errors import NumericsError
from repro.numerics.batch import (
    fft_batched,
    lu_factor_batched,
    matmul_batched,
    solve_batched,
)
from repro.numerics.fft import fft
from repro.numerics.lu import lu_factor, lu_solve

RNG = np.random.default_rng(23)


# ----------------------------------------------------------------------
# empty batches
# ----------------------------------------------------------------------
def test_empty_batches_raise():
    with pytest.raises(NumericsError, match="empty batch"):
        solve_batched([], [])
    with pytest.raises(NumericsError, match="empty batch"):
        lu_factor_batched([])
    with pytest.raises(NumericsError, match="empty batch"):
        fft_batched([])
    with pytest.raises(NumericsError, match="empty batch"):
        matmul_batched([], [])


def test_empty_matrix_rejected():
    with pytest.raises(NumericsError):
        lu_factor_batched([np.zeros((0, 0))])


# ----------------------------------------------------------------------
# batch of one: the smallest bit-identity instance
# ----------------------------------------------------------------------
def test_solve_batch_of_one_bit_identical():
    a = RNG.standard_normal((12, 12)) + 12 * np.eye(12)
    b = RNG.standard_normal(12)
    (batched,) = solve_batched([a], [b])
    lu, piv = lu_factor(a)
    assert np.array_equal(batched, lu_solve(lu, piv, b))


def test_lu_factor_batch_of_one_bit_identical():
    a = RNG.standard_normal((9, 9)) + 9 * np.eye(9)
    lus, pivs = lu_factor_batched([a])
    lu_single, piv_single = lu_factor(a)
    assert np.array_equal(lus[0], lu_single)
    assert np.array_equal(pivs[0], piv_single)


def test_fft_batch_of_one_bit_identical():
    x = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
    (batched,) = fft_batched([x])
    assert np.array_equal(batched, fft(x))


# ----------------------------------------------------------------------
# mixed shapes: rejected, never silently broadcast
# ----------------------------------------------------------------------
def test_mixed_matrix_shapes_rejected():
    good = RNG.standard_normal((6, 6)) + 6 * np.eye(6)
    small = RNG.standard_normal((4, 4)) + 4 * np.eye(4)
    with pytest.raises(NumericsError, match="shape mismatch"):
        lu_factor_batched([good, small])
    with pytest.raises(NumericsError, match="shape mismatch"):
        solve_batched([good, small], [np.ones(6), np.ones(4)])


def test_non_square_rejected():
    with pytest.raises(NumericsError, match="square"):
        lu_factor_batched([RNG.standard_normal((4, 5))])


def test_rhs_count_mismatch_rejected():
    a = RNG.standard_normal((4, 4)) + 4 * np.eye(4)
    with pytest.raises(NumericsError, match="batch mismatch"):
        solve_batched([a, a.copy()], [np.ones(4)])
    with pytest.raises(NumericsError, match="batch mismatch"):
        matmul_batched([a], [a, a])


def test_fft_mixed_lengths_rejected():
    with pytest.raises(NumericsError, match="length mismatch"):
        fft_batched([np.ones(8), np.ones(16)])
    with pytest.raises(NumericsError, match="power of two"):
        fft_batched([np.ones(12), np.ones(12)])
    with pytest.raises(NumericsError, match="vector"):
        fft_batched([np.ones((4, 4))])
