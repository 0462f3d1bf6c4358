"""Quantization solvers.

solve_layer gives one layer its low-bit codes. The three solvers differ in
what they round toward and under which curvature; every code and realized
value comes from one grid step, pmq.quant.quantize_values:

* rtn: W_m with nothing to compensate, every entry taking the grid step at
  once (rtn_quantize in pmq.quant).
* gptq: W_m under the pooled curvature sum_i H_i, by gptq_solve, sequential
  column rounding with second-order error compensation.
* epmq: W* under H_E. It builds the expert-guided anchored statistics
  H_E = sum_i H_i + lam*I and R = sum_i W_i H_i + lam*W_m, computes the
  continuous optimizer W* = R inv(H_E), and runs the sequential solver
  toward W* under curvature H_E. The anchored objective
  F(Q) = sum_i ||Q X_i - W_i X_i||_F^2 + lam*||Q - W_m||_F^2 differs from
  ||(Q - W*) L||_F^2 (with L L^T = H_E) only by a constant, so gptq and epmq
  share one rounding routine, _round_under: damping -> factor -> grid fit
  -> column loop -> gap.

Both solves take one factor, inv(H) = U^T U (linalg.cholesky_inverse_upper):
the continuous solve of H_E, the rounding of its damped curvature. The
rounding fits every group's grid in one pass (quant.fit_layer_grids), then
pays one GEMV and one in-place grid step per column and one GEMM per block,
and its values become the quantized layer's realized weight.

The task curvatures H_i reach the solvers as an iterable consumed once, in
task order (calib.collect_layer_stats forms them one at a time). epmq folds
each H_i into H_E, R and c, gptq and rtn into the pooled curvature, and each
is dropped before the next is formed, so a layer holds one H_i, not K. epmq
then drops R once <R, W*> is taken, and H_E once the rounding has its factor.

Scores take no GEMM: rounding toward T under H + delta*I compensates column
j by err_j with sum_j ||err_j||^2 = tr(E (H + delta*I) E^T), E = Q - T, so
the rounding gap tr(E H E^T) (gptq's score) is that sum less delta*||E||_F^2,
and epmq's F(Q) is the gap plus a constant (solve_layer).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    SingularMatrixError,
    as_matrix,
    check_symmetric,
    cholesky_inverse_upper,
    frobenius_sq,
    matmul,
    read_only,
)
from .quant import (
    QuantConfig,
    QuantizedLayer,
    fit_layer_grids,
    quantize_values,
    rtn_quantize,
)

# columns rounded one by one between two lazy batch updates
ROUNDING_BLOCK = 128
# columns of the random probe that estimates the continuous solve's residual
PROBE_COLUMNS = 4


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
    hessians: Sequence[np.ndarray],
    lam: float,
) -> float:
    """Full anchored objective: sum_i ||(Q - W_i) X_i||_F^2 + lam*||Q - W_m||_F^2,
    with ||(Q - W_i) X_i||_F^2 read under `hessians`, the H_i = X_i X_i^T in task order."""
    total = 0.0
    for w_i, h_i in zip(expert_weights, hessians, strict=True):
        total += quadratic_objective(q, w_i, h_i)
    total += lam * frobenius_sq(as_matrix(q) - as_matrix(merged_weight))
    return total


def build_epmq_statistics(
    expert_weights: Sequence[np.ndarray],
    merged_weight: np.ndarray,
    hessians: Iterable[np.ndarray],
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(H_E, R, lam, c) of the anchored problem F(Q) = tr(Q H_E Q^T) - 2<Q, R> + c.

    `hessians` are the task curvatures H_i, one per expert weight W_i, in task
    order, consumed once: each H_i is folded into the sums and dropped before
    the next is asked for, so an iterator that forms them one at a time
    (calib.collect_layer_stats) holds one at a time. H_E = sum_i H_i + lam*I,
    R = sum_i W_i H_i + lam*W_m and c = sum_i <W_i H_i, W_i> + lam*||W_m||_F^2,
    with the adaptive anchor lam = (alpha / d) * sum_i trace(H_i), where
    trace(H_i) is task i's activation energy ||X_i||_F^2, all summed in task
    order from 0.0. Raises ValueError when alpha < 0.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    merged_weight = as_matrix(merged_weight, "merged_weight")
    k = len(expert_weights)
    h_e = r = None
    c, energy, count = 0.0, 0, 0
    # counted by hand: enumerate's reused tuple keeps H_i alive while H_{i+1} is formed
    for h_i in hessians:
        if count == k:
            raise ValueError(f"{k} expert weights for more than {k} curvatures")
        if h_e is None and merged_weight.shape[1] != len(h_i):
            raise ValueError(
                f"merged weight width {merged_weight.shape[1]} != curvature dim {len(h_i)}"
            )
        w_i = as_matrix(expert_weights[count], "expert weight")
        if w_i.shape != merged_weight.shape:
            raise ValueError(
                f"expert weight shape {w_i.shape} != merged shape {merged_weight.shape}"
            )
        energy += float(np.trace(h_i))
        wh = matmul(w_i, h_i)
        c += float(np.vdot(wh, w_i))
        if h_e is None:
            h_e, r = h_i.copy(), wh
        else:
            h_e += h_i
            r += wh
        count += 1
        del h_i, wh  # dead before the next curvature is formed
    if not k or count != k:
        raise ValueError(f"{k} expert weights for {count} curvatures")
    d = len(h_e)
    lam = (alpha / d) * energy
    h_e.flat[:: d + 1] += lam
    r += lam * merged_weight
    return h_e, r, lam, c + lam * frobenius_sq(merged_weight)


def _pooled_curvature(hessians: Iterable[np.ndarray]) -> np.ndarray:
    """sum_i H_i in task order, each H_i added in place and dropped before the next."""
    pooled = None
    for h_i in hessians:
        if pooled is None:
            pooled = 0.0 + h_i  # a fresh sum, never the caller's H_1 (-0.0 entries read 0.0)
        else:
            pooled += h_i
        del h_i
    if pooled is None:
        raise ValueError("no curvatures to pool")
    return pooled


@functools.cache
def _probe(d: int) -> np.ndarray:
    """The residual probe of continuous_solution for width d: a read-only
    (d, PROBE_COLUMNS) standard normal draw of np.random.default_rng(0)."""
    return read_only(np.random.default_rng(0).standard_normal((d, PROBE_COLUMNS)))


def continuous_solution(h_e: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimizer of the relaxed quadratic: Q such that Q H_E = R.

    Requires H_E symmetric (solve_layer checks that once, in SolverProblem)
    and positive definite; callers damp first when the anchor is zero and
    the pooled curvature is singular. H_E is singular to working precision,
    a SingularMatrixError, also when its smallest squared Cholesky pivot,
    (1 / max diag U)^2, is below d * eps * max diag(H_E): rounding, not the
    data, decides such a solve. Q = (R U^T) U. The residual
    ||R - Q H_E||_F is estimated as ||R V - Q (H_E V)||_F / sqrt(p) with a
    fixed, seeded (d, p) Gaussian probe V, p = PROBE_COLUMNS; only when the
    estimate exceeds 1e-12 * (1 + ||R||_F) is the full residual formed and one
    refinement step taken against the same U, which keeps the residual near
    machine precision even for poorly conditioned instances.
    """
    u = cholesky_inverse_upper(h_e, context="h")
    col = int(np.argmax(u.diagonal()))
    pivot_sq, max_diag = float(u[col, col]) ** -2, float(h_e.diagonal().max())
    if pivot_sq < len(h_e) * np.finfo(np.float64).eps * max_diag:
        raise SingularMatrixError(
            f"h is singular to working precision: squared pivot {pivot_sq:.3g} "
            f"at column {col + 1}, max diagonal {max_diag:.3g}",
            pivot=col + 1,
        )
    q = (r @ u.T) @ u
    v = _probe(len(h_e))
    estimate = np.sqrt(frobenius_sq(r @ v - q @ (h_e @ v)) / PROBE_COLUMNS)
    if estimate > 1e-12 * (1.0 + np.sqrt(frobenius_sq(r))):
        q += ((r - matmul(q, h_e)) @ u.T) @ u
    return q


def _damping_for(h: np.ndarray, percdamp: float) -> float:
    mean_diag = float(np.mean(np.diag(h))) if h.size else 0.0
    damp = percdamp * mean_diag
    return damp if damp > 0 else percdamp


def _round_under(
    target: np.ndarray, curvature: list, grid_source_weight: np.ndarray, cfg: QuantConfig
) -> SolveReport:
    """gptq's SolveReport of sequential error-compensated rounding of
    `target` under the curvature H in the one-item list `curvature`: the
    quantized layer, the compensation norms, the damping and, as the
    objective, the rounding gap; lam is 0.0. `curvature` is emptied to factor
    inv(H + damp*I) = U^T U, damp being cfg.percdamp of H's mean diagonal,
    so that H does not outlive the factoring; U is dropped before the two
    output copies.

    Fit grids per group from the grid-source weight; then for each column j
    in natural order, round column j by the grid step (quantize_values),
    divide the rounding error by U[j, j], and subtract the weighted error
    from all not-yet-quantized columns via U[j, j+1:].

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
    The quantized layer's weight is the values formed here. The gap
    tr(E H E^T), E = Q - target, is the squared norms' sum
    tr(E (H + damp*I) E^T) less damp * ||E||_F^2.
    """
    damp = _damping_for(curvature[0], cfg.percdamp)
    try:
        u = cholesky_inverse_upper(curvature.pop(), context="damped curvature", shift=damp)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"curvature is singular even after damping {damp:g} "
            f"(pivot {exc.pivot}); increase percdamp",
            pivot=exc.pivot,
        ) from exc
    d_out, d = target.shape
    scales, zeros = fit_layer_grids(grid_source_weight, cfg.bits, cfg.group_size)
    # each column's grid row, and each pivot, looked up once as Python objects
    scale_rows, zero_rows = list(scales.T.copy()), list(zeros.T.astype(np.float64))
    col_scales = [scale_rows[j // cfg.group_size] for j in range(d)]
    col_zeros = [zero_rows[j // cfg.group_size] for j in range(d)]
    pivots = u.diagonal().tolist()

    work = target.T.copy()
    codes = np.empty((d, d_out), dtype=np.uint8)
    values = np.empty((d, d_out))
    errs = np.empty((min(ROUNDING_BLOCK, d), d_out))
    comp_sq = np.empty(d)
    scratch = np.empty(d_out)
    for b0 in range(0, d, ROUNDING_BLOCK):
        b1 = min(b0 + ROUNDING_BLOCK, d)
        rows = zip(range(b0, b1), work[b0:b1], codes[b0:b1], values[b0:b1], errs)
        for j, w, code, v, err in rows:
            if j > b0:
                w -= u[b0:j, j] @ errs[: j - b0]
            quantize_values(w, col_scales[j], col_zeros[j], cfg.bits, code, v, scratch)
            np.subtract(w, v, out=err)
            err /= pivots[j]
        block_errs = errs[: b1 - b0]
        comp_sq[b0:b1] = np.einsum("ij,ij->i", block_errs, block_errs)
        work[b1:] -= u[b0:b1, b1:].T @ block_errs
    del u  # dead before the two output copies
    codes, values = np.ascontiguousarray(codes.T), np.ascontiguousarray(values.T)
    quantized = QuantizedLayer(codes, scales, zeros, cfg.bits, cfg.group_size, values)
    comp_norms = np.sqrt(comp_sq)
    error = quantized.weight - target
    gap = float(np.dot(comp_norms, comp_norms)) - damp * frobenius_sq(error)
    return SolveReport(
        quantized=quantized,
        objective=gap,
        lam=0.0,
        damping=damp,
        per_column_comp_norms=comp_norms,
        solver="gptq",
    )


def gptq_solve(problem: SolverProblem) -> SolveReport:
    """Sequential error-compensated rounding toward the problem target.

    _round_under's report, as is, whatever cfg.solver says: solver "gptq",
    lam 0.0, and as the objective the rounding gap tr((Q - T) H (Q - T)^T)
    of the final values against the pre-damping curvature, read from the
    compensation norms (no GEMM).
    """
    return _round_under(
        problem.target, [problem.curvature], problem.grid_source_weight, problem.cfg
    )


def solve_layer(
    expert_weights: Sequence[np.ndarray],
    merged_weight: np.ndarray,
    hessians: Iterable[np.ndarray] | None,
    cfg: QuantConfig,
) -> SolveReport:
    """Codes for one layer with solver cfg.solver.

    `hessians` are the layer's task curvatures H_i = X_i X_i^T, an iterable
    consumed once in task order (one per expert for epmq), or None without
    calibration; the pooled curvature is their task-order sum. rtn ignores
    the experts and needs no curvatures; with them its objective is scored
    against the pooled curvature. gptq rounds the merged weight under the
    pooled curvature.
    epmq builds (H_E, R, lam, c), computes the continuous target
    W* = R inv(H_E), then rounds toward W* under H_E.
    Its objective, the full anchored objective of the final codes, is
    F(Q) = gap + c - <R, W*> with gap = tr(E H_E E^T), E = Q - W*. When the
    anchor is zero and the pooled curvature singular, W* solves
    W* (H_E + delta'*I) = R for a damping delta', and F(Q) takes
    - 2 delta' <W*, E> - delta' ||W*||_F^2 more. The closed form cancels terms
    of size c, so it rounds relative to c, not to F(Q); epmq_objective
    recomputes F(Q) from the curvatures, with K GEMMs, as a reference.
    """
    merged_weight = as_matrix(merged_weight, "merged_weight")
    if cfg.solver == "rtn":
        quantized = rtn_quantize(merged_weight, cfg)
        objective = None
        if hessians is not None:
            objective = quadratic_objective(
                quantized.weight, merged_weight, _pooled_curvature(hessians)
            )
        return SolveReport(
            quantized=quantized,
            objective=objective,
            lam=0.0,
            damping=0.0,
            per_column_comp_norms=np.zeros(merged_weight.shape[1]),
            solver="rtn",
        )
    if hessians is None:
        raise ValueError(f"solver '{cfg.solver}' needs the layer's curvatures, got None")
    if cfg.solver == "gptq":
        pooled = _pooled_curvature(hessians)
        return gptq_solve(SolverProblem(merged_weight, pooled, merged_weight, cfg))
    h_e, r, lam, c = build_epmq_statistics(expert_weights, merged_weight, hessians, cfg.alpha)
    check_symmetric(h_e, "curvature")
    shift = 0.0
    try:
        w_star = continuous_solution(h_e, r)
    except SingularMatrixError:
        shift = _damping_for(h_e, cfg.percdamp)
        damped = h_e.copy()
        damped.flat[:: len(h_e) + 1] += shift
        w_star = continuous_solution(damped, r)
        del damped
    constant = c - float(np.vdot(r, w_star))
    curvature = [h_e]
    del r, h_e  # R and H_E are dead before the rounding
    grid_source = w_star if cfg.grid_source == "target" else merged_weight
    report = _round_under(w_star, curvature, grid_source, cfg)
    objective = report.objective + constant
    if shift:
        error = report.quantized.weight - w_star
        objective -= shift * (2.0 * float(np.vdot(w_star, error)) + frobenius_sq(w_star))
    return replace(
        report, objective=objective, lam=lam, solver="epmq", damped_fallback=bool(shift)
    )
