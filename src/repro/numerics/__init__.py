"""From-scratch numerical routines backing the computational servers.

The original NetSolve servers dispatched into LAPACK, LINPACK, ItPack,
FitPack and QuadPack.  This package reimplements the needed slice of
that functionality in vectorized NumPy — blocked LU with partial
pivoting, Householder QR, eigensolvers, Krylov/stationary iterative
methods, an iterative radix-2 FFT, Runge-Kutta ODE integrators, adaptive
quadrature, least-squares/spline fitting and sorting — each cross-checked
against ``numpy.linalg``/``scipy`` in the test suite and each annotated
with the flop-count formula its problem description advertises.
"""

from .blas import axpy, dot, nrm2, gemv, gemm, asum, iamax, scal
from .lu import lu_factor, lu_solve, lu_det
from .linsys import solve, solve_triangular, inverse, determinant
from .qr import qr_factor, qr_solve_ls
from .eigen import power_iteration, eig_symmetric, eigvals_general
from .iterative import jacobi, conjugate_gradient, gmres
from .fft import fft, ifft, rfft_convolve
from .ode import rk4, rkf45
from .quadrature import adaptive_simpson, composite_trapezoid
from .fit import polyfit_ls, linear_spline, cubic_smooth
from .sort import merge_sort, quickselect
from .cholesky import cholesky_factor, cholesky_solve, is_spd
from .svd import svd_values, svd_factor
from .sparse import (
    CsrMatrix,
    sparse_cg,
    sparse_jacobi,
    poisson_1d,
    poisson_2d,
)
from .tridiag import thomas_solve, tridiag_solve_pivoting, tridiag_matvec
from .gauss import gauss_legendre, legendre_nodes

__all__ = [
    "axpy", "dot", "nrm2", "gemv", "gemm", "asum", "iamax", "scal",
    "lu_factor", "lu_solve", "lu_det",
    "solve", "solve_triangular", "inverse", "determinant",
    "qr_factor", "qr_solve_ls",
    "power_iteration", "eig_symmetric", "eigvals_general",
    "jacobi", "conjugate_gradient", "gmres",
    "fft", "ifft", "rfft_convolve",
    "rk4", "rkf45",
    "adaptive_simpson", "composite_trapezoid",
    "polyfit_ls", "linear_spline", "cubic_smooth",
    "merge_sort", "quickselect",
    "cholesky_factor", "cholesky_solve", "is_spd",
    "svd_values", "svd_factor",
    "CsrMatrix", "sparse_cg", "sparse_jacobi", "poisson_1d", "poisson_2d",
    "thomas_solve", "tridiag_solve_pivoting", "tridiag_matvec",
    "gauss_legendre", "legendre_nodes",
]
