"""Independent reference implementations used as test oracles.

Everything here is written with plain Python loops or numpy built-ins that
do not share code paths with the package under test. There are four
exceptions. brute_force_optimum reuses the package's grid fitting, because
what it pins down is the best code assignment on the grids the solvers
round to. gptq_columnwise reuses the package's grid fitting and rounding
helpers, because what it pins down is the order of the error updates, not
those helpers; it factors the inverse curvature its own way
(cholesky_inverse_upper_via_inverse). gptq_columnwise_longdouble reuses the
grid fitting only and carries out the rest in extended precision, so that
float64 results can be measured against it. deviation_rows_from_scratch and
quantize_from_scratch reuse the package's forward pass (and the latter its
statistics and layer solver), because what they pin down is that the
pipeline's one-pass activations are the ones re-forwarding from the inputs
to every layer would give. sweep_from_scratch reuses the CLI's generation,
quantization and evaluation, because what it pins down is that sharing one
problem among sweep points gives what regenerating it for each would.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import struct
import time
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from pmq.calib import LayerCalibStats, accumulate_stats
from pmq.cli import ConfigError, _generate_problem, config_from_dict
from pmq.merge import apply_merge
from pmq.model import Model, forward_to_layer, save_model
from pmq.pipeline import DeviationRow, evaluate, quantize, run_to_json_dict
from pmq.quant import QuantConfig, dequantize_values, fit_layer_grids, quantize_values
from pmq.solver import solve_layer


def matmul_triple_loop(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.empty((m, n))
    for i in range(m):
        for c in range(n):
            acc = 0.0
            for j in range(k):
                acc += a[i, j] * b[j, c]
            out[i, c] = acc
    return out


def cholesky_inverse_upper_via_inverse(h):
    """Upper Cholesky factor U of inv(h) (inv(h) = U^T U) through the explicit inverse.

    dpotrf of h, dpotri for inv(h), symmetrize, then dpotrf of inv(h).
    """
    u, info = lapack.dpotrf(np.asarray(h, dtype=np.float64), lower=0)
    assert info == 0, f"dpotrf of h failed with info={info}"
    inv, info = lapack.dpotri(np.triu(u), lower=0)
    assert info == 0, f"dpotri failed with info={info}"
    inv = np.triu(inv) + np.triu(inv, 1).T
    u, info = lapack.dpotrf(inv, lower=0)
    assert info == 0, f"dpotrf of inv(h) failed with info={info}"
    return np.triu(u)


def gptq_columnwise(problem):
    """Sequential rounding with one rank-1 update of all later columns per column.

    The unbatched form of pmq.solver.gptq_solve. Returns (codes,
    per_column_comp_norms, objective against the pre-damping curvature).
    """
    cfg = problem.cfg
    target = problem.target
    d_out, d = target.shape
    h = problem.curvature
    damp = cfg.percdamp * float(np.mean(np.diag(h)))
    if not damp > 0:
        damp = cfg.percdamp
    u = cholesky_inverse_upper_via_inverse(h + damp * np.eye(d))
    scales, zeros = fit_layer_grids(problem.grid_source_weight, cfg.bits, cfg.group_size)
    col_group = np.minimum(np.arange(d) // cfg.group_size, scales.shape[1] - 1)

    work = target.copy()
    codes = np.empty((d_out, d), dtype=np.uint8)
    values = np.empty((d_out, d))
    comp_norms = np.zeros(d)
    for j in range(d):
        g = col_group[j]
        cj = quantize_values(work[:, j], scales[:, g], zeros[:, g], cfg.bits)
        qj = dequantize_values(cj, scales[:, g], zeros[:, g])
        err = (work[:, j] - qj) / u[j, j]
        comp_norms[j] = float(np.sqrt(np.dot(err, err)))
        codes[:, j] = cj
        values[:, j] = qj
        if j + 1 < d:
            work[:, j + 1 :] -= np.outer(err, u[j, j + 1 :])
    e = values - target
    objective = float(np.einsum("ij,jk,ik->", e, h, e))
    return codes, comp_norms, objective


def _require_extended_precision():
    assert np.finfo(np.longdouble).eps < 1e-18, "needs an extended-precision long double"


def cholesky_inverse_upper_longdouble(h):
    """Upper Cholesky factor U of inv(h) (inv(h) = U^T U), in long double.

    A row-by-row Cholesky of the reversed h, J h J = L L^T, then inv(L) by
    forward substitution; U = J inv(L) J. Returns a long double array.
    """
    _require_extended_precision()
    a = np.asarray(h, dtype=np.longdouble)[::-1, ::-1]
    d = len(a)
    low = np.zeros((d, d), dtype=np.longdouble)
    for j in range(d):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        assert pivot > 0, f"not positive definite at reversed column {j}"
        low[j, j] = np.sqrt(pivot)
        low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    inv = np.zeros_like(low)
    eye = np.eye(d, dtype=np.longdouble)
    for i in range(d):
        inv[i] = (eye[i] - low[i, :i] @ inv[:i]) / low[i, i]
    return inv[::-1, ::-1]


@functools.lru_cache(maxsize=4)
def _damped_inverse_upper_longdouble(h_bytes, d, damp):
    h = np.frombuffer(h_bytes, dtype=np.float64).reshape(d, d)
    return cholesky_inverse_upper_longdouble(h + damp * np.eye(d))


def gptq_columnwise_longdouble(problem):
    """gptq_columnwise in long double: the reference for per-column compensation norms.

    The damped curvature and the grids are the package's float64 ones; the
    inverse factor (computed once per curvature and damping), the rounding
    errors and the rank-1 updates of all later columns are long double.
    Returns (codes, per_column_comp_norms rounded to float64).
    """
    _require_extended_precision()
    cfg = problem.cfg
    d_out, d = problem.target.shape
    h = np.ascontiguousarray(problem.curvature, dtype=np.float64)
    damp = cfg.percdamp * float(np.mean(np.diag(h)))
    if not damp > 0:
        damp = cfg.percdamp
    u = _damped_inverse_upper_longdouble(h.tobytes(), d, damp)
    scales, zeros = fit_layer_grids(problem.grid_source_weight, cfg.bits, cfg.group_size)
    col_group = np.minimum(np.arange(d) // cfg.group_size, scales.shape[1] - 1)
    maxq = (1 << cfg.bits) - 1

    work = np.asarray(problem.target, dtype=np.longdouble).copy()
    codes = np.empty((d_out, d), dtype=np.uint8)
    comp_norms = np.empty(d, dtype=np.longdouble)
    for j in range(d):
        s, z = scales[:, col_group[j]], zeros[:, col_group[j]]
        x = work[:, j] / s
        t = np.trunc(x)
        cj = np.clip(t + np.where(np.abs(x - t) >= 0.5, np.sign(x), 0) + z, 0, maxq)
        err = (work[:, j] - s * (cj - z)) / u[j, j]
        comp_norms[j] = np.sqrt(err @ err)
        codes[:, j] = cj
        work[:, j + 1 :] -= np.outer(err, u[j, j + 1 :])
    return codes, comp_norms.astype(np.float64)


def deviation_rows_from_scratch(run, heldout):
    """Deviation rows, layer-major, forwarding each task from its inputs to every layer."""
    rows = []
    for layer_index in range(1, run.model.num_layers + 1):
        layer_id = run.model.layers[layer_index - 1].spec.id
        q_w = run.model.layers[layer_index - 1].weight
        m_w = run.merged.layers[layer_index - 1].weight
        for expert_idx, expert in enumerate(run.experts, start=1):
            x = forward_to_layer(run.model, heldout.task(expert_idx).inputs, layer_index)
            e_w = expert.layers[layer_index - 1].weight
            qx = q_w @ x
            mx = m_w @ x
            ex = e_w @ x
            quant_dev = qx - mx
            merge_dev = mx - ex
            combined = qx - ex
            rows.append(
                DeviationRow(
                    layer_id=layer_id,
                    task_id=expert_idx,
                    quant_norm=float(np.sqrt(np.sum(quant_dev**2))),
                    merge_norm=float(np.sqrt(np.sum(merge_dev**2))),
                    combined_norm=float(np.sqrt(np.sum(combined**2))),
                    identity_max_abs=float(
                        np.abs(combined - (quant_dev + merge_dev)).max(initial=0.0)
                    ),
                )
            )
    return rows


def quantize_from_scratch(merged, experts, calib, cfg):
    """Quantized model and per-layer solve reports, without an activation cache.

    At every layer each task is forwarded from its raw inputs with
    forward_to_layer through the partially quantized model, and the layer is
    solved with pmq.solver.solve_layer.
    """
    model = Model.from_checkpoint(merged)
    reports = []
    for ell in range(1, model.num_layers + 1):
        stats = None
        if calib is not None:
            hessians = [
                accumulate_stats(forward_to_layer(model, batch.inputs, ell))
                for batch in calib.batches
            ]
            stats = LayerCalibStats(hessians, d=hessians[0].shape[0])
        expert_weights = [e.layers[ell - 1].weight for e in experts]
        report = solve_layer(expert_weights, model.layers[ell - 1].weight, stats, cfg)
        model.replace_layer(ell, report.quantized)
        reports.append(report)
    return model, reports


def brute_force_optimum(problem, max_assignments=10_000_000):
    """Exact minimizer of the problem quadratic over the fitted grid.

    Enumerates all (2^bits)^d code assignments per output row (rows are
    separable) and returns (codes, total objective). The objective matches
    quadratic_objective on the pre-damping curvature, so solver objectives
    can never fall below the value returned here.
    """
    cfg = problem.cfg
    target = problem.target
    d_out, d = target.shape
    levels = 1 << cfg.bits
    if levels**d > max_assignments:
        raise ValueError(
            f"search space {levels}^{d} exceeds the {max_assignments} assignment budget"
        )
    scales, zeros = fit_layer_grids(problem.grid_source_weight, cfg.bits, cfg.group_size)
    col_group = np.minimum(np.arange(d) // cfg.group_size, scales.shape[1] - 1)

    assignments = np.array(list(np.ndindex(*([levels] * d))), dtype=np.uint8)
    best_codes = np.empty((d_out, d), dtype=np.uint8)
    total = 0.0
    for row in range(d_out):
        row_scales = scales[row, col_group]
        row_zeros = zeros[row, col_group]
        values = row_scales * (assignments.astype(np.float64) - row_zeros)
        err = values - target[row]
        objectives = np.sum((err @ problem.curvature) * err, axis=1)
        idx = int(np.argmin(objectives))
        best_codes[row] = assignments[idx]
        total += float(objectives[idx])
    return best_codes, total


def frobenius_scalar(a):
    total = 0.0
    for row in np.asarray(a, dtype=np.float64):
        for v in row:
            total += v * v
    return total


def round_half_away_by_fraction(x):
    """Round to nearest, halves away from zero, by testing the fractional part:
    trunc(x) + copysign(|x - trunc(x)| >= 1/2, x), exact as x - trunc(x) is."""
    x = np.asarray(x, dtype=np.float64)
    t = np.trunc(x)
    return t + np.copysign(np.abs(x - t) >= 0.5, x)


def symmetric_by_full_difference(h, rtol=1e-9):
    """Whether max|H - H^T| <= rtol * max|H|, from the whole d x d difference
    (a NaN anywhere accepts, as the comparison is then false)."""
    h = np.asarray(h, dtype=np.float64)
    scale = float(np.abs(h).max())
    with np.errstate(invalid="ignore"):
        asym = float(np.abs(h - h.T).max())
    return not asym > rtol * max(scale, 1e-300)


def solve_right_via_inverse(h, rhs):
    """S @ h = rhs solved with an explicit LU-based inverse."""
    return np.asarray(rhs, dtype=np.float64) @ np.linalg.inv(np.asarray(h, dtype=np.float64))


def straight_line_forward(weights, biases, activations, x):
    """Forward pass with BLAS matmul and inline activations."""
    out = np.asarray(x, dtype=np.float64)
    for w, b, act in zip(weights, biases, activations):
        out = w @ out
        if b is not None:
            out = out + b.reshape(-1, 1)
        if act == "relu":
            out = np.where(out > 0, out, 0.0)
        elif act == "gelu":
            out = 0.5 * out * (1.0 + np.tanh(0.7978845608028654 * (out + 0.044715 * out**3)))
        elif act != "identity":
            raise ValueError(act)
    return out


def mean_of_arrays_scalar(arrays):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    out = np.empty_like(arrays[0])
    flat = [a.ravel() for a in arrays]
    for idx in range(flat[0].size):
        acc = flat[0][idx]
        for other in flat[1:]:
            acc = acc + other[idx]
        out.ravel()[idx] = acc / len(arrays)
    return out


def task_arithmetic_scalar(base, experts, coefficient):
    base = np.asarray(base, dtype=np.float64)
    out = np.empty_like(base)
    for idx in range(base.size):
        b = base.ravel()[idx]
        acc = experts[0].ravel()[idx] - b
        for e in experts[1:]:
            acc = acc + (e.ravel()[idx] - b)
        out.ravel()[idx] = b + coefficient * acc
    return out


def ties_reference(base, experts, coefficient, density):
    """Literal trim / elect-sign / disjoint-mean steps with Python loops."""
    import math

    base = np.asarray(base, dtype=np.float64)
    taus = [np.asarray(e, dtype=np.float64) - base for e in experts]
    size = base.size
    keep = math.ceil(density * size)
    trimmed = []
    for tau in taus:
        flat = tau.ravel()
        ranked = sorted(range(size), key=lambda i: (-abs(flat[i]), i))
        kept = set(ranked[:keep])
        t = np.zeros(size)
        for i in kept:
            t[i] = flat[i]
        trimmed.append(t)
    merged = np.zeros(size)
    for i in range(size):
        total = 0.0
        for t in trimmed:
            total += t[i]
        elected = -1.0 if total < 0 else 1.0
        values = [t[i] for t in trimmed if t[i] != 0 and np.sign(t[i]) == elected]
        merged[i] = sum(values) / len(values) if values else 0.0
    return base + coefficient * merged.reshape(base.shape)


def enumerate_quadratic_min(target_row, h, grid_values):
    """Exhaustive minimum of (v - t) H (v - t)^T over per-column grids.

    grid_values: list of candidate dequantized values per column.
    Returns (best_value_vector, best_objective).
    """
    import itertools

    t = np.asarray(target_row, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    best = None
    best_obj = np.inf
    for combo in itertools.product(*grid_values):
        v = np.array(combo, dtype=np.float64)
        e = v - t
        obj = float(e @ h @ e)
        if obj < best_obj:
            best_obj = obj
            best = v
    return best, best_obj


def gradient_descent_anchored(xs, ws, wm, lam, iters=200_000, tol=1e-13):
    """GD-to-convergence on sum_i ||Q X_i - W_i X_i||_F^2 + lam ||Q - W_m||_F^2."""
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    ws = [np.asarray(w, dtype=np.float64) for w in ws]
    wm = np.asarray(wm, dtype=np.float64)
    q = wm.copy()
    hs = [x @ x.T for x in xs]
    lip = 2.0 * (sum(np.linalg.eigvalsh(h).max() for h in hs) + lam)
    step = 1.0 / lip
    for _ in range(iters):
        grad = 2.0 * lam * (q - wm)
        for w, h in zip(ws, hs):
            grad = grad + 2.0 * (q - w) @ h
        q_next = q - step * grad
        if np.abs(q_next - q).max() < tol:
            q = q_next
            break
        q = q_next
    return q


def write_minimal_tensor_file(path, tensors):
    """Independent writer for the tensor file format (float64 tensors only)."""
    header = {}
    chunks = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        data = arr.tobytes(order="C")
        header[name] = {
            "dtype": "F64",
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + len(data)],
        }
        chunks.append(data)
        offset += len(data)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)) + blob + b"".join(chunks))


def pack_bits_reference(codes, bits):
    """Per-row little-endian bitstream packer using Python integers."""
    codes = np.asarray(codes, dtype=np.uint8)
    out = bytearray()
    for row in codes:
        acc = 0
        nbits = 0
        for code in row:
            acc |= int(code) << nbits
            nbits += bits
        row_bytes = (nbits + 7) // 8
        out.extend(acc.to_bytes(row_bytes, "little"))
    return np.frombuffer(bytes(out), dtype=np.uint8)


def mse_reference(outputs, targets):
    diff = np.asarray(outputs) - np.asarray(targets)
    return float((diff * diff).sum() / diff.size)


def _sweep_point_from_scratch(cfg_dict, axis, value, method, subdir):
    """One sweep point: regenerate, merge, quantize, evaluate. Returns a CSV row."""
    cfg = config_from_dict(cfg_dict)
    row = {"axis": axis, "axis_value": value, "method": method, "error": ""}
    try:
        quant = dataclasses.asdict(cfg.quant)
        quant["solver"] = method
        samples = cfg.samples_per_task
        if axis == "bits":
            quant["bits"] = int(value)
        elif axis == "alpha":
            quant["alpha"] = float(value)
        elif axis == "samples":
            samples = int(value)
        else:
            raise ConfigError(f"unknown sweep axis '{axis}'")
        point_cfg = dataclasses.replace(cfg, quant=QuantConfig(**quant), samples_per_task=samples)
        problem = _generate_problem(point_cfg)
        merged = apply_merge(point_cfg.merge, problem.base, problem.experts)
        start = time.perf_counter()
        run = quantize(merged, problem.experts, problem.calib, point_cfg.quant)
        wall = time.perf_counter() - start
        result = evaluate(run.model, problem.heldout)
        subpath = Path(subdir)
        subpath.mkdir(parents=True, exist_ok=True)
        save_model(run.model, subpath / "quantized.safetensors")
        blob = json.dumps(
            run_to_json_dict(run, config=point_cfg.to_json_dict()),
            sort_keys=True,
            separators=(",", ":"),
        )
        (subpath / "run.json").write_text(blob + "\n", encoding="utf-8")
        for task_id, mse in sorted(result.per_task_mse.items()):
            row[f"mse_task{task_id}"] = repr(mse)
        row["macro_mse"] = repr(result.macro_mse)
        row["wall_time_s"] = repr(wall)
        row["damped"] = str(run.damped_fallback).lower()
    except Exception as exc:  # record the failure, keep sweeping
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep_from_scratch(cfg, out, axis):
    """`pmq sweep` in which every (value, method) point generates and merges its own problem.

    Writes the same files as pmq.cli.cmd_sweep at --jobs 1: sweep.csv and,
    per point, sweep/<axis>=<value>/<method>/{quantized.safetensors,run.json}.
    """
    values = {"bits": cfg.sweep_bits, "alpha": cfg.sweep_alpha, "samples": cfg.sweep_samples}[axis]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_dict = cfg.to_json_dict()
    rows = [
        _sweep_point_from_scratch(
            cfg_dict, axis, value, method, str(out / "sweep" / f"{axis}={value}" / method)
        )
        for value in values
        for method in cfg.sweep_methods
    ]
    fieldnames = ["axis", "axis_value", "method"]
    fieldnames += [f"mse_task{i}" for i in range(1, cfg.k + 1)]
    fieldnames += ["macro_mse", "wall_time_s", "damped", "error"]
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
