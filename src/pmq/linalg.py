"""Dense linear algebra primitives.

All compute happens in float64 regardless of what files store. Products and
factorizations go through BLAS/LAPACK, whose summation order depends on the
platform, the BLAS build and, for the threaded LAPACK routines, the thread
count. Repeated runs on one platform, BLAS build and thread count give
bit-identical results; across thread counts results agree to rounding.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack


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


def cholesky_upper(h: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Upper Cholesky factor U with h = U^T U. Raises on non-PD input."""
    c, info = lapack.dpotrf(h, lower=0, overwrite_a=0)
    if info > 0:
        raise SingularMatrixError(
            f"{context} is not positive definite: non-positive pivot at index {int(info)}",
            pivot=int(info),
        )
    if info < 0:
        raise ValueError(f"illegal argument {-int(info)} passed to dpotrf")
    return np.triu(c)


def cholesky_solve(h, rhs) -> np.ndarray:
    """Solve S @ h = rhs for S, with h symmetric positive definite.

    Right division: the unknown multiplies h from the left, matching the
    convention of row-stacked weights times a square curvature matrix.
    """
    return cholesky_factor_solve(cholesky_upper(check_symmetric(h, "h"), context="h"), rhs)


def cholesky_factor_solve(u: np.ndarray, rhs) -> np.ndarray:
    """Solve S @ (U^T U) = rhs for S, given the upper Cholesky factor U."""
    rhs = as_matrix(rhs, "rhs")
    if rhs.shape[1] != u.shape[0]:
        raise ShapeError(f"rhs has {rhs.shape[1]} columns, h is {u.shape[0]}x{u.shape[0]}")
    x, info = lapack.dpotrs(u, rhs.T, lower=0)
    if info != 0:
        raise ValueError(f"dpotrs failed with info={int(info)}")
    return np.ascontiguousarray(x.T)


def cholesky_inverse_upper(h: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Upper Cholesky factor U of inv(h), i.e. inv(h) = U^T U.

    With J the reversal matrix and J h J = L L^T (one lower dpotrf),
    U = J inv(L) J (one dtrtri). A failing pivot is reported by its 1-based
    column of h. Sequential rounding reads rows of U: the diagonal holds the
    step sizes, the rows to its right the compensation weights.
    """
    low, info = lapack.dpotrf(h[::-1, ::-1], lower=1)
    if info > 0:
        pivot = len(h) + 1 - int(info)
        raise SingularMatrixError(
            f"{context} is not positive definite: non-positive pivot at index {pivot}", pivot=pivot
        )
    inv, info = lapack.dtrtri(low, lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError(f"dtrtri failed with info={int(info)}")
    return np.triu(inv[::-1, ::-1])
