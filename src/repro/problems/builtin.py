"""The stock problem set.

Mirrors the flavour of the original server's catalogue (LAPACK dense
linear algebra, BLAS kernels, eigensolvers, ItPack iterative methods,
QuadPack quadrature, FitPack fitting, plus FFT/ODE/sorting), with each
problem described in PDL.  As the original server wrapped vendor
libraries, ``linsys/dgesv`` and ``signal/fft`` call the compiled
routines their PDL ``lib`` names, LAPACK ``gesv`` and pocketfft, through
NumPy; their batch handlers are one stacked call of the same routine,
bit-identical to per-item calls.  The rest of the catalogue dispatches
to :mod:`repro.numerics`.

``builtin_registry()`` returns a fresh registry so callers can prune or
extend their copy without affecting others (partial servers advertise a
subset, exactly as heterogeneous NetSolve servers did).
"""

from __future__ import annotations

import numpy as np

from .. import numerics as num
from ..errors import NumericsError, SingularMatrixError
from .pdl import parse_pdl
from .registry import ProblemRegistry

__all__ = ["BUILTIN_PDL", "builtin_registry"]

BUILTIN_PDL = """
# ---- dense linear algebra (LAPACK slice) -------------------------------
problem linsys/dgesv
    lib         LAPACK
    description Solve the dense linear system A*x = b by LU with partial pivoting
    complexity  2/3*n^3 + 2*n^2
    input  A matrix[n,n]  "coefficient matrix"
    input  b vector[n]    "right-hand side"
    output x vector[n]    "solution vector"
end

problem linsys/inverse
    lib         LAPACK
    description Dense matrix inverse via LU and n unit right-hand sides
    complexity  2*n^3
    input  A    matrix[n,n]
    output Ainv matrix[n,n]
end

problem linsys/det
    lib         LAPACK
    description Determinant via LU factorization
    complexity  2/3*n^3
    input  A matrix[n,n]
    output d scalar
end

problem linsys/spd
    lib         LAPACK
    description Solve a symmetric positive definite system by Cholesky
    complexity  1/3*n^3 + 2*n^2
    input  A matrix[n,n]  "SPD coefficient matrix"
    input  b vector[n]
    output x vector[n]
end

problem lstsq/dgels
    lib         LAPACK
    description Least-squares solution of an overdetermined system by QR
    complexity  2*m*n^2
    input  A matrix[m,n]
    input  b vector[m]
    output x vector[n]
end

# ---- BLAS kernels -------------------------------------------------------
problem blas/dgemm
    lib         BLAS
    description Blocked general matrix-matrix product C = A*B
    complexity  2*m*n*k
    input  A matrix[m,k]
    input  B matrix[k,n]
    output C matrix[m,n]
end

problem blas/dgemv
    lib         BLAS
    description General matrix-vector product y = A*x
    complexity  2*m*n
    input  A matrix[m,n]
    input  x vector[n]
    output y vector[m]
end

problem blas/ddot
    lib         BLAS
    description Inner product of two vectors
    complexity  2*n
    input  x vector[n]
    input  y vector[n]
    output r scalar
end

problem blas/dnrm2
    lib         BLAS
    description Overflow-safe Euclidean norm
    complexity  2*n
    input  x vector[n]
    output r scalar
end

# ---- eigenproblems ------------------------------------------------------
problem eigen/power
    lib         LINPACK
    description Dominant eigenpair by power iteration
    complexity  60*n^2
    input  A      matrix[n,n]
    output lambda scalar
    output v      vector[n]
end

problem eigen/symm
    lib         LAPACK
    description Full symmetric eigendecomposition by cyclic Jacobi
    complexity  30*n^3
    input  A matrix[n,n]
    output w vector[n]     "eigenvalues, ascending"
    output V matrix[n,n]   "eigenvectors as columns"
end

problem eigen/vals
    lib         LAPACK
    description All eigenvalues of a general real matrix (shifted QR)
    complexity  10*n^3
    input  A matrix[n,n]
    output w vector[n] complex128
end

problem svd/values
    lib         LAPACK
    description Singular values (descending) by one-sided Jacobi; needs m >= n
    complexity  30*m*n^2
    input  A matrix[m,n]
    output s vector[n]  "singular values, descending"
end

# ---- iterative solvers (ItPack slice) -----------------------------------
problem iter/cg
    lib         ItPack
    description Conjugate gradients for symmetric positive definite systems
    complexity  20*n^2
    input  A matrix[n,n]
    input  b vector[n]
    output x vector[n]
end

problem iter/jacobi
    lib         ItPack
    description Jacobi iteration for diagonally dominant systems
    complexity  40*n^2
    input  A matrix[n,n]
    input  b vector[n]
    output x vector[n]
end

problem sparse/cg
    lib         ItPack
    description Conjugate gradients on a CSR system (SPD); indptr length n+1
    complexity  50*nnz + 200*n
    input  indptr  vector[np1] int64  "CSR row pointer (length n+1)"
    input  indices vector[nnz] int64  "CSR column indices"
    input  vals    vector[nnz]        "CSR values"
    input  b       vector[n]          "right-hand side"
    output x       vector[n]
end

problem sparse/jacobi
    lib         ItPack
    description Jacobi iteration on a CSR system (diagonally dominant)
    complexity  100*nnz + 400*n
    input  indptr  vector[np1] int64
    input  indices vector[nnz] int64
    input  vals    vector[nnz]
    input  b       vector[n]
    output x       vector[n]
end

problem linsys/tridiag
    lib         LAPACK
    description Solve a diagonally dominant tridiagonal system (Thomas)
    complexity  8*n
    input  dl  vector[nm1]  "subdiagonal (length n-1)"
    input  d   vector[n]    "main diagonal"
    input  du  vector[nm1]  "superdiagonal (length n-1)"
    input  b   vector[n]
    output x   vector[n]
end

# ---- signal processing --------------------------------------------------
problem signal/fft
    lib         FFTPACK
    description Radix-2 fast Fourier transform (length a power of two)
    complexity  5*n*log2(n)
    input  x vector[n] complex128
    output y vector[n] complex128
end

# ---- ODE integration ----------------------------------------------------
problem ode/linear
    lib         ODEPACK
    description Integrate the linear system y' = M*y over [0, t1] with RK4
    complexity  8*d^2*steps
    input  M     matrix[d,d]
    input  y0    vector[d]
    input  steps scalar int64 binds=steps
    input  t1    scalar
    output y     vector[d]
end

# ---- quadrature (QuadPack slice) ----------------------------------------
problem quad/poly
    lib         QuadPack
    description Integrate a polynomial (coefficients lowest-first) over [a, b]
    complexity  2000*d
    input  c vector[d]  "polynomial coefficients, lowest order first"
    input  a scalar
    input  b scalar
    output I scalar
end

problem quad/gauss
    lib         QuadPack
    description Integrate a polynomial with an n-point Gauss-Legendre rule
    complexity  30*pts + 100*d
    input  c   vector[d]  "polynomial coefficients, lowest order first"
    input  a   scalar
    input  b   scalar
    input  pts scalar int64 binds=pts
    output I   scalar
end

# ---- fitting (FitPack slice) --------------------------------------------
problem fit/poly
    lib         FitPack
    description Least-squares polynomial fit; ncoeff = degree + 1
    complexity  2*n*d^2
    input  x      vector[n]
    input  y      vector[n]
    input  ncoeff scalar int64 binds=d
    output coeffs vector[d] "coefficients, lowest order first"
end

problem fit/smooth
    lib         FitPack
    description Natural cubic smoothing of uniform samples (penalty lam)
    complexity  2/3*n^3
    input  y   vector[n]
    input  lam scalar
    output s   vector[n]
end

# ---- sorting / selection ------------------------------------------------
problem sort/merge
    lib         misc
    description Stable merge sort
    complexity  20*n*log2(n)
    input  x vector[n]
    output y vector[n]
end

problem sort/select
    lib         misc
    description k-th smallest element (0-based) by quickselect
    complexity  10*n
    input  x vector[n]
    input  k scalar int64
    output v scalar
end
"""


def _h_dgesv(a, b):
    """LAPACK ``gesv`` through NumPy, with :func:`repro.numerics.solve`'s
    input checks and error type; also solves a stack (the batch lane)."""
    if a.size == 0:
        raise NumericsError("empty matrix")
    if not np.isfinite(a).all():
        raise NumericsError("matrix contains non-finite entries")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None  # "Singular matrix"


def _h_inverse(a):
    return num.inverse(a)


def _h_det(a):
    return np.float64(num.determinant(a))


def _h_dgels(a, b):
    return num.qr_solve_ls(a, b)


def _h_spd(a, b):
    return num.cholesky_solve(num.cholesky_factor(a), b)


def _h_svd_values(a):
    if a.shape[0] < a.shape[1]:
        raise NumericsError("svd/values requires m >= n (send A.T)")
    return num.svd_values(a)


def _csr(indptr, indices, vals, b):
    n = b.shape[0]
    if indptr.shape[0] != n + 1:
        raise NumericsError(
            f"indptr has length {indptr.shape[0]}, expected n+1={n + 1}"
        )
    return num.CsrMatrix((n, n), indptr, indices, vals)


def _h_sparse_cg(indptr, indices, vals, b):
    x, _iters = num.sparse_cg(_csr(indptr, indices, vals, b), b)
    return x


def _h_sparse_jacobi(indptr, indices, vals, b):
    x, _iters = num.sparse_jacobi(_csr(indptr, indices, vals, b), b)
    return x


def _h_dgemm(a, b):
    return num.gemm(a, b)


def _h_dgemv(a, x):
    return num.gemv(a, x)


def _h_ddot(x, y):
    return np.float64(num.dot(x, y))


def _h_dnrm2(x):
    return np.float64(num.nrm2(x))


def _h_power(a):
    lam, v = num.power_iteration(a)
    return np.float64(lam), v


def _h_symm(a):
    w, v = num.eig_symmetric(a)
    return w, v


def _h_vals(a):
    return num.eigvals_general(a)


def _h_cg(a, b):
    x, _iters = num.conjugate_gradient(a, b)
    return x


def _h_jacobi(a, b):
    x, _iters = num.jacobi(a, b)
    return x


def _h_fft(x):
    """NumPy's pocketfft along the last axis (so also over a batch stack),
    for the power-of-two lengths the spec promises."""
    n = x.shape[-1]
    if n == 0 or (n & (n - 1)) != 0:
        raise NumericsError(f"fft length must be a power of two, got {n}")
    return np.fft.fft(x)


def _h_ode_linear(m, y0, steps, t1):
    rhs = lambda _t, y: m @ y  # noqa: E731 - tiny closure over the input
    return num.rk4(rhs, y0, 0.0, float(t1), int(steps))


def _h_tridiag(dl, d, du, b):
    if dl.shape[0] != d.shape[0] - 1:
        raise NumericsError(
            f"subdiagonal has length {dl.shape[0]}, expected n-1={d.shape[0] - 1}"
        )
    return num.thomas_solve(dl, d, du, b)


def _h_quad_gauss(c, a, b, pts):
    poly = np.polynomial.polynomial.Polynomial(c)
    return np.float64(
        num.gauss_legendre(lambda x: float(poly(x)), float(a), float(b), int(pts))
    )


def _h_quad_poly(c, a, b):
    poly = np.polynomial.polynomial.Polynomial(c)
    value, _evals = num.adaptive_simpson(
        lambda x: float(poly(x)), float(a), float(b)
    )
    return np.float64(value)


def _h_fit_poly(x, y, ncoeff):
    return num.polyfit_ls(x, y, int(ncoeff) - 1)


def _h_fit_smooth(y, lam):
    return num.cubic_smooth(y, float(lam))


def _h_sort(x):
    return num.merge_sort(x)


def _h_select(x, k):
    return np.float64(num.quickselect(x, int(k)))


def _hb_dgesv(items):
    a = np.stack([a for a, _b in items])
    b = np.stack([b for _a, b in items])[:, :, None]
    return list(_h_dgesv(a, b)[:, :, 0])


def _hb_dgemm(items):
    return [num.gemm(a, b) for a, b in items]


def _hb_fft(items):
    return list(_h_fft(np.stack([x for (x,) in items])))


#: problems with a stacked batch lane (bit-identical to per-item runs)
_BATCH_HANDLERS = {
    "linsys/dgesv": _hb_dgesv,
    "blas/dgemm": _hb_dgemm,
    "signal/fft": _hb_fft,
}


#: problems whose kernels run in BLAS with the GIL released, so slots
#: run them in parallel; every other kernel takes the interpreter lane
#: (repro.numerics.threads)
_RELEASES_GIL = frozenset({"blas/dgemm"})


_HANDLERS = {
    "linsys/dgesv": _h_dgesv,
    "linsys/inverse": _h_inverse,
    "linsys/det": _h_det,
    "linsys/spd": _h_spd,
    "lstsq/dgels": _h_dgels,
    "svd/values": _h_svd_values,
    "sparse/cg": _h_sparse_cg,
    "sparse/jacobi": _h_sparse_jacobi,
    "blas/dgemm": _h_dgemm,
    "blas/dgemv": _h_dgemv,
    "blas/ddot": _h_ddot,
    "blas/dnrm2": _h_dnrm2,
    "eigen/power": _h_power,
    "eigen/symm": _h_symm,
    "eigen/vals": _h_vals,
    "iter/cg": _h_cg,
    "iter/jacobi": _h_jacobi,
    "signal/fft": _h_fft,
    "ode/linear": _h_ode_linear,
    "linsys/tridiag": _h_tridiag,
    "quad/gauss": _h_quad_gauss,
    "quad/poly": _h_quad_poly,
    "fit/poly": _h_fit_poly,
    "fit/smooth": _h_fit_smooth,
    "sort/merge": _h_sort,
    "sort/select": _h_select,
}


def builtin_registry() -> ProblemRegistry:
    """A fresh registry containing the full stock problem set."""
    registry = ProblemRegistry()
    specs = parse_pdl(BUILTIN_PDL, source="<builtin>")
    by_name = {spec.name: spec for spec in specs}
    missing_spec = set(_HANDLERS) - set(by_name)
    missing_handler = set(by_name) - set(_HANDLERS)
    if missing_spec or missing_handler:  # pragma: no cover - build-time guard
        raise RuntimeError(
            f"builtin catalogue out of sync: no spec for {sorted(missing_spec)}, "
            f"no handler for {sorted(missing_handler)}"
        )
    for name, spec in by_name.items():
        registry.register(
            spec, _HANDLERS[name], batch=_BATCH_HANDLERS.get(name),
            releases_gil=name in _RELEASES_GIL,
        )
    return registry
