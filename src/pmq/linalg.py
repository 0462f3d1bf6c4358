"""Dense linear algebra primitives.

All compute happens in float64 regardless of what files store. Products and
factorizations go through numpy and numpy.linalg, which share one BLAS/LAPACK
build and so one thread pool. Summation order depends on the platform, the
BLAS build and, for the threaded routines, the thread count. Repeated runs
on one platform, BLAS build and thread count give bit-identical results;
across thread counts results agree to rounding.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class SingularMatrixError(ArithmeticError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def require_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def matmul(a, b) -> np.ndarray:
    """Shape-checked float64 matrix product, computed by BLAS."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def frobenius_sq(a) -> float:
    """Sum of squared entries, accumulated in row-major element order."""
    a = as_matrix(a, "a")
    if a.size == 0:
        return 0.0
    sq = np.multiply(a, a).ravel()
    return float(np.add.accumulate(sq)[-1])


def check_symmetric(h: np.ndarray, name: str = "h", rtol: float = 1e-9) -> np.ndarray:
    """Require an entrywise-symmetric square matrix (|H - H^T| <= rtol * |H|)."""
    h = as_matrix(h, name)
    if h.shape[0] != h.shape[1]:
        raise ShapeError(f"{name} must be square, got {h.shape}")
    if h.size:
        scale = float(np.abs(h).max())
        asym = float(np.abs(h - h.T).max())
        if asym > rtol * max(scale, 1e-300):
            raise ValueError(f"{name} is not symmetric: max|H-H^T|={asym:g} vs max|H|={scale:g}")
    return h


def _not_positive_definite(h: np.ndarray, context: str) -> SingularMatrixError:
    """The error for a failed factorization of h, naming dpotrf's failing pivot (numpy does
    not report it). scipy is imported on this failure path only, so a successful solve
    never wakes scipy's BLAS thread pool next to numpy's."""
    from scipy.linalg import lapack

    pivot = int(lapack.dpotrf(h, lower=0)[1]) or None
    return SingularMatrixError(
        f"{context} is not positive definite: non-positive pivot at index {pivot}", pivot=pivot
    )


def upper_inverse(u: np.ndarray) -> np.ndarray:
    """inv(U) for upper-triangular U by 2x2 block recursion, so nearly all the
    work is GEMM: about a quarter of the flops of an LU inverse of U."""
    d = len(u)
    if d <= 128:
        return np.triu(np.linalg.inv(u))
    k = d // 2
    a, c = upper_inverse(u[:k, :k]), upper_inverse(u[k:, k:])
    out = np.zeros_like(u)
    out[:k, :k], out[k:, k:] = a, c
    out[:k, k:] = -(a @ u[:k, k:]) @ c
    return out


def cholesky_upper(h: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Upper Cholesky factor U with h = U^T U. Raises on non-PD input."""
    try:
        return np.linalg.cholesky(h, upper=True)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(h, context) from None


def cholesky_solve(h, rhs) -> np.ndarray:
    """Solve S @ h = rhs for S, with h symmetric positive definite.

    Right division: the unknown multiplies h from the left, matching the
    convention of row-stacked weights times a square curvature matrix.
    """
    ui = upper_inverse(cholesky_upper(check_symmetric(h, "h"), context="h"))
    return inverse_factor_solve(ui, rhs)


def inverse_factor_solve(ui: np.ndarray, rhs) -> np.ndarray:
    """Solve S @ (U^T U) = rhs for S by two GEMMs, S = rhs inv(U) inv(U)^T, given
    ui = inv(U); a caller that solves twice against one h inverts its factor once."""
    rhs = as_matrix(rhs, "rhs")
    if rhs.shape[1] != ui.shape[0]:
        raise ShapeError(f"rhs has {rhs.shape[1]} columns, h is {ui.shape[0]}x{ui.shape[0]}")
    return (rhs @ ui) @ ui.T


def cholesky_inverse_upper(h: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Upper Cholesky factor U of inv(h), i.e. inv(h) = U^T U.

    One factorization: with J the reversal, J h J = L L^T gives h = M M^T
    for the upper-triangular M = J L J, so U = inv(M) = J inv(L) J. That is
    one Cholesky of the reversed h and one triangular inverse, with no
    explicit inv(h). A failing pivot is reported by its 1-based column of h.
    Sequential rounding reads U: the diagonal holds the step sizes, the
    rows to its right the compensation weights.
    """
    try:
        lt = np.linalg.cholesky(h[::-1, ::-1], upper=True)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(h, context) from None
    # inv(L^T) = inv(L)^T, so J inv(L) J is its reversed transpose
    return np.ascontiguousarray(upper_inverse(lt)[::-1, ::-1].T)
