"""Dense linear algebra primitives.

All compute happens in float64 regardless of what files store. Products go
through numpy, the one factorization is a block recursion of GEMMs with
numpy.linalg at the leaves: one BLAS/LAPACK build, one thread pool. Summation
order depends on the platform, the BLAS build and, for the threaded routines,
the thread count. Repeated runs on one platform, BLAS build and thread count
give bit-identical results; across thread counts results agree to rounding.
"""

from __future__ import annotations

import numpy as np

# widths that numpy.linalg factors directly; wider blocks split in two
FACTOR_LEAF = 64
# elements in one bounded temporary: a row panel of check_symmetric
CHUNK_ELEMENTS = 1 << 15


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
    """Sum of squared entries, as one BLAS dot product with no temporary."""
    flat = as_matrix(a, "a").ravel()
    return float(np.dot(flat, flat))


def check_symmetric(h: np.ndarray, name: str = "h", rtol: float = 1e-9) -> np.ndarray:
    """Require an entrywise-symmetric square matrix (|H - H^T| <= rtol * |H|).

    Compares the upper triangle with the lower one in row panels of about
    CHUNK_ELEMENTS entries, so no d x d temporary is formed.
    """
    h = as_matrix(h, name)
    d = h.shape[0]
    if d != h.shape[1]:
        raise ShapeError(f"{name} must be square, got {h.shape}")
    if h.size:
        scale = max(float(h.max()), -float(h.min()))
        asym = 0.0
        rows = max(1, CHUNK_ELEMENTS // d)
        for r0 in range(0, d, rows):
            r1 = min(r0 + rows, d)
            diff = np.subtract(h[r0:r1, r0:], h[r0:, r0:r1].T)
            asym = max(asym, float(np.abs(diff, out=diff).max()))
        if asym > rtol * max(scale, 1e-300):
            raise ValueError(f"{name} is not symmetric: max|H-H^T|={asym:g} vs max|H|={scale:g}")
    return h


def _block_cholesky(h: np.ndarray, ui: np.ndarray, context: str, columns):
    """Write inv(U), for the upper Cholesky factor U of h = U^T U, into the upper
    triangle of ui and nothing below it; h is only read.

    Factor h11, set U12 = inv(U11)^T h12, factor h22 - U12^T U12 and set
    inv(U)12 = -inv(U11) U12 inv(U22); above FACTOR_LEAF columns every flop
    is a GEMM. LAPACK inverts a leaf's triangular factor to exact zeros below
    the diagonal. A failing pivot is named by its entry of `columns` (1-based
    columns of the caller's matrix). Only that path imports scipy (numpy does
    not name the pivot), so a successful factor leaves scipy's BLAS thread
    pool asleep next to numpy's.
    """
    d = len(h)
    if d <= FACTOR_LEAF:
        try:
            leaf = np.linalg.cholesky(h, upper=True)
        except np.linalg.LinAlgError:
            from scipy.linalg import lapack

            info = int(lapack.dpotrf(h, lower=0)[1])
            pivot = int(columns[info - 1]) if info else None
            message = f"{context} is not positive definite: non-positive pivot at index {pivot}"
            raise SingularMatrixError(message, pivot=pivot) from None
        ui[...] = np.linalg.inv(leaf)
        return
    k = d // 2
    _block_cholesky(h[:k, :k], ui[:k, :k], context, columns[:k])
    u12 = ui[:k, :k].T @ h[:k, k:]
    schur = u12.T @ u12
    np.subtract(h[k:, k:], schur, out=schur)
    _block_cholesky(schur, ui[k:, k:], context, columns[k:])
    t = ui[:k, :k] @ u12
    ui[:k, k:] = np.negative(t, out=t) @ ui[k:, k:]


def cholesky_inverse_upper(h: np.ndarray, context: str = "matrix", shift=0.0) -> np.ndarray:
    """Upper Cholesky factor U of inv(g) = U^T U, g = h + shift*I: one factor
    of one reversed, shifted copy of h (with J the reversal, J g J = V^T V
    gives U = J inv(V)^T J), returned as a Fortran-order view, so with no
    transposing copy. A failing pivot is named by its 1-based column of h.
    Solves form S = rhs inv(g) = (rhs U^T) U; sequential rounding reads U:
    the diagonal holds the step sizes, the rows to its right the
    compensation weights.
    """
    g = h[::-1, ::-1].copy()
    g.flat[:: len(g) + 1] += shift
    vi = np.zeros_like(g)
    _block_cholesky(g, vi, context, np.arange(len(g), 0, -1))
    np.copyto(g, vi[::-1, ::-1])
    return g.T


def cholesky_solve(h, rhs) -> np.ndarray:
    """Solve S @ h = rhs for S, with h symmetric positive definite.

    Right division: the unknown multiplies h from the left, matching the
    convention of row-stacked weights times a square curvature matrix.
    """
    h = check_symmetric(h, "h")
    rhs = as_matrix(rhs, "rhs")
    if rhs.shape[1] != len(h):
        raise ShapeError(f"rhs has {rhs.shape[1]} columns, h is {len(h)}x{len(h)}")
    u = cholesky_inverse_upper(h, context="h")
    return (rhs @ u.T) @ u
