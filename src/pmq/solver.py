"""Quantization solvers.

solve_layer gives one layer its low-bit codes. The three solvers differ in
what they round toward:

* rtn: W_m entrywise, by per-entry nearest-grid rounding (rtn_quantize in
  pmq.quant).
* gptq: W_m under the pooled curvature sum_i H_i, by gptq_solve, sequential
  column rounding with second-order error compensation.
* epmq: W* under H_E. It builds the expert-guided anchored statistics
  H_E = sum_i H_i + lam*I and R = sum_i W_i H_i + lam*W_m, computes the
  continuous optimizer W* = R inv(H_E), and runs the sequential solver
  toward W* under curvature H_E. The anchored objective
  sum_i ||Q X_i - W_i X_i||_F^2 + lam*||Q - W_m||_F^2 differs from
  ||(Q - W*) L||_F^2 (with L L^T = H_E) only by a constant, so one rounding
  routine serves gptq and epmq.

Both solves take one factor, inv(H) = U^T U (linalg.cholesky_inverse_upper):
the continuous solve of H_E, the rounding of its damped curvature. The
rounding then pays one GEMV and one in-place quantize per column and one
GEMM per block, and its values become the quantized layer's realized weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calib import LayerCalibStats, anchor_lambda
from .linalg import (
    SingularMatrixError,
    as_matrix,
    check_symmetric,
    cholesky_inverse_upper,
    frobenius_sq,
    matmul,
)
from .quant import (
    QuantConfig,
    QuantizedLayer,
    fit_layer_grids,
    round_half_away,
    rtn_quantize,
)

# columns rounded one by one between two lazy batch updates
ROUNDING_BLOCK = 128


@dataclass
class SolverProblem:
    """One layer-rounding problem: quantize toward `target` under `curvature`.

    `curvature` is the pre-damping quadratic form; grids are fitted from
    `grid_source_weight` before any column is touched.
    """

    target: np.ndarray
    curvature: np.ndarray
    grid_source_weight: np.ndarray
    cfg: QuantConfig

    def __post_init__(self):
        self.target = as_matrix(self.target, "target")
        self.curvature = check_symmetric(self.curvature, "curvature")
        self.grid_source_weight = as_matrix(self.grid_source_weight, "grid_source_weight")
        d = self.target.shape[1]
        if self.curvature.shape != (d, d):
            raise ValueError(
                f"curvature shape {self.curvature.shape} does not match target width {d}"
            )
        if self.grid_source_weight.shape != self.target.shape:
            raise ValueError("grid source weight must match the target shape")


@dataclass
class SolveReport:
    """Outcome of one layer solve."""

    quantized: QuantizedLayer
    objective: float | None
    lam: float
    damping: float
    per_column_comp_norms: np.ndarray
    solver: str
    damped_fallback: bool = False

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "lambda": self.lam,
            "damping": self.damping,
            "damped": self.damped_fallback,
            "per_column_comp_norms": [float(v) for v in self.per_column_comp_norms],
            "bits": self.quantized.bits,
            "group_size": self.quantized.group_size,
            "solver": self.solver,
        }


def quadratic_objective(q: np.ndarray, target: np.ndarray, curvature: np.ndarray) -> float:
    """trace((Q - T) H (Q - T)^T), the reconstruction error under H."""
    e = as_matrix(q) - as_matrix(target)
    return float(np.sum((e @ curvature) * e))


def epmq_objective(
    q: np.ndarray,
    expert_weights: Sequence[np.ndarray],
    merged_weight: np.ndarray,
    stats: LayerCalibStats,
    lam: float,
) -> float:
    """Full anchored objective: sum_i ||(Q - W_i) X_i||_F^2 + lam*||Q - W_m||_F^2."""
    total = 0.0
    for w_i, h_i in zip(expert_weights, stats.hessians):
        total += quadratic_objective(q, w_i, h_i)
    total += lam * frobenius_sq(as_matrix(q) - as_matrix(merged_weight))
    return total


def build_epmq_statistics(
    expert_weights: Sequence[np.ndarray],
    merged_weight: np.ndarray,
    stats: LayerCalibStats,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Effective curvature and right-hand side of the anchored problem.

    H_E = sum_i H_i + lam*I and R = sum_i W_i H_i + lam*W_m, where
    lam = (alpha / d) * sum_i trace(H_i) (anchor_lambda).
    """
    merged_weight = as_matrix(merged_weight, "merged_weight")
    if len(expert_weights) != stats.num_tasks:
        raise ValueError(
            f"{len(expert_weights)} expert weights for {stats.num_tasks} task statistics"
        )
    d = stats.d
    if merged_weight.shape[1] != d:
        raise ValueError(f"merged weight width {merged_weight.shape[1]} != stats dim {d}")
    lam = anchor_lambda(stats, alpha)
    h_e = np.zeros((d, d))
    r = np.zeros_like(merged_weight)
    for w_i, h_i in zip(expert_weights, stats.hessians):
        w_i = as_matrix(w_i, "expert weight")
        if w_i.shape != merged_weight.shape:
            raise ValueError(
                f"expert weight shape {w_i.shape} != merged shape {merged_weight.shape}"
            )
        h_e += h_i
        r += matmul(w_i, h_i)
    h_e.flat[:: d + 1] += lam
    r += lam * merged_weight
    return h_e, r, lam


def continuous_solution(h_e: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimizer of the relaxed quadratic: Q such that Q H_E = R.

    Requires H_E symmetric (solve_layer checks that once, in SolverProblem)
    and positive definite; callers damp first when the anchor is zero and
    the pooled curvature is singular. Q = (R U^T) U; one refinement step
    against the same U keeps the stationary residual near machine precision
    even for poorly conditioned instances.
    """
    u = cholesky_inverse_upper(h_e, context="h")
    q = (r @ u.T) @ u
    residual = r - matmul(q, h_e)
    if np.sqrt(frobenius_sq(residual)) > 1e-10 * (1.0 + np.sqrt(frobenius_sq(r))):
        q += (residual @ u.T) @ u
    return q


def _damping_for(h: np.ndarray, percdamp: float) -> float:
    mean_diag = float(np.mean(np.diag(h))) if h.size else 0.0
    damp = percdamp * mean_diag
    return damp if damp > 0 else percdamp


def _round_sequential(problem: SolverProblem) -> tuple:
    """Sequential error-compensated rounding toward the problem target.

    Steps: damp the curvature by percdamp of its mean diagonal; take the
    upper Cholesky factor U of the damped inverse; fit grids per group from
    the grid-source weight; then for each column j in natural order, round
    column j, divide the rounding error by U[j, j], and subtract the
    weighted error from all not-yet-quantized columns via U[j, j+1:].

    Work, values and errors are kept transposed, (d, d_out), so each column
    is a contiguous row. The subtraction is deferred (GPTQ's lazy batch
    updates) and left-looking: in a block of ROUNDING_BLOCK columns, column
    j takes the errors of the block's earlier columns by one GEMV just
    before it is rounded, and one GEMM per block carries the block's errors
    to all later columns. The compensation norms ||err_j|| depend on the
    summation order of these products, so they move to rounding with the
    BLAS thread count; the codes move only at an exact rounding tie.
    Each column is rounded in place in the values row, with its grid row and
    pivot looked up from Python lists; the squared compensation norms are
    summed once per block and their square roots taken once per layer.
    Returns (quantized layer, whose weight is the values scale * (code - zero)
    formed here, damping applied, per-column compensation norms).
    """
    cfg = problem.cfg
    d_out, d = problem.target.shape
    damp = _damping_for(problem.curvature, cfg.percdamp)
    try:
        u = cholesky_inverse_upper(problem.curvature, context="damped curvature", shift=damp)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"curvature is singular even after damping {damp:g} "
            f"(pivot {exc.pivot}); increase percdamp",
            pivot=exc.pivot,
        ) from exc

    scales, zeros = fit_layer_grids(problem.grid_source_weight, cfg.bits, cfg.group_size)
    # each column's grid row, and each pivot, looked up once as Python objects
    scale_rows, zero_rows = list(scales.T.copy()), list(zeros.T.astype(np.float64))
    col_scales = [scale_rows[j // cfg.group_size] for j in range(d)]
    col_zeros = [zero_rows[j // cfg.group_size] for j in range(d)]
    pivots = u.diagonal().tolist()

    work = problem.target.T.copy()
    codes = np.empty((d, d_out), dtype=np.uint8)
    values = np.empty((d, d_out))
    errs = np.empty((min(ROUNDING_BLOCK, d), d_out))
    comp_sq = np.empty(d)
    # the code range as arrays, so clipping converts no Python scalar per column
    lowest, highest = np.zeros(d_out), np.full(d_out, float((1 << cfg.bits) - 1))
    scratch = np.empty(d_out)
    for b0 in range(0, d, ROUNDING_BLOCK):
        b1 = min(b0 + ROUNDING_BLOCK, d)
        for j in range(b0, b1):
            w, v, err = work[j], values[j], errs[j - b0]
            if j > b0:
                w -= u[b0:j, j] @ errs[: j - b0]
            s, z = col_scales[j], col_zeros[j]
            # code = clip(round_half_away(w / s) + z, 0, 2^bits - 1), in the values row
            round_half_away(np.divide(w, s, out=v), out=v, scratch=scratch)
            v += z
            np.minimum(np.maximum(v, lowest, out=v), highest, out=v)
            codes[j] = v
            v -= z
            v *= s
            np.subtract(w, v, out=err)
            err /= pivots[j]
        block_errs = errs[: b1 - b0]
        comp_sq[b0:b1] = np.einsum("ij,ij->i", block_errs, block_errs)
        work[b1:] -= u[b0:b1, b1:].T @ block_errs
    del u, work  # dead before the two output copies, so they do not raise the peak

    quantized = QuantizedLayer(
        codes=np.ascontiguousarray(codes.T),
        scales=scales,
        zeros=zeros,
        bits=cfg.bits,
        group_size=cfg.group_size,
        values=np.ascontiguousarray(values.T),
    )
    return quantized, damp, np.sqrt(comp_sq)


def gptq_solve(problem: SolverProblem) -> SolveReport:
    """Sequential error-compensated rounding toward the problem target.

    Rounds with _round_sequential; the reported objective is recomputed
    from scratch on the final codes' values against the pre-damping curvature.
    """
    quantized, damp, comp_norms = _round_sequential(problem)
    return SolveReport(
        quantized=quantized,
        objective=quadratic_objective(quantized.weight, problem.target, problem.curvature),
        lam=0.0,
        damping=damp,
        per_column_comp_norms=comp_norms,
        solver="gptq",
    )


def solve_layer(
    expert_weights: Sequence[np.ndarray],
    merged_weight: np.ndarray,
    stats: LayerCalibStats | None,
    cfg: QuantConfig,
) -> SolveReport:
    """Codes for one layer with solver cfg.solver.

    rtn ignores the experts and needs no statistics; with statistics its
    objective is scored against the pooled curvature. gptq rounds the merged
    weight under the pooled curvature. epmq builds (H_E, R, lam), computes
    the continuous target W* = R inv(H_E) (damping H_E and retrying when the
    anchor is zero and the pooled curvature is singular), then rounds toward
    W* under H_E; its objective is the full anchored objective of the final
    codes, experts and anchor included.
    """
    merged_weight = as_matrix(merged_weight, "merged_weight")
    if cfg.solver == "rtn":
        quantized = rtn_quantize(merged_weight, cfg)
        objective = None
        if stats is not None:
            objective = quadratic_objective(
                quantized.weight, merged_weight, stats.pooled_hessian()
            )
        return SolveReport(
            quantized=quantized,
            objective=objective,
            lam=0.0,
            damping=0.0,
            per_column_comp_norms=np.zeros(merged_weight.shape[1]),
            solver="rtn",
        )
    if cfg.solver == "gptq":
        return gptq_solve(
            SolverProblem(
                target=merged_weight,
                curvature=stats.pooled_hessian(),
                grid_source_weight=merged_weight,
                cfg=cfg,
            )
        )
    h_e, r, lam = build_epmq_statistics(expert_weights, merged_weight, stats, cfg.alpha)
    fallback = False
    try:
        w_star = continuous_solution(h_e, r)
    except SingularMatrixError:
        fallback = True
        damped = h_e.copy()
        damped.flat[:: stats.d + 1] += _damping_for(h_e, cfg.percdamp)
        w_star = continuous_solution(damped, r)
    grid_source = w_star if cfg.grid_source == "target" else merged_weight
    problem = SolverProblem(
        target=w_star, curvature=h_e, grid_source_weight=grid_source, cfg=cfg
    )
    quantized, damp, comp_norms = _round_sequential(problem)
    return SolveReport(
        quantized=quantized,
        objective=epmq_objective(quantized.weight, expert_weights, merged_weight, stats, lam),
        lam=lam,
        damping=damp,
        per_column_comp_norms=comp_norms,
        solver="epmq",
        damped_fallback=fallback,
    )
