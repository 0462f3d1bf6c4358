"""Forward-order layer-wise quantization with trajectory-consistent calibration.

The driver walks the layers front to back. For each layer it collects the
per-task input activations from the current partially quantized model
(advancing the K tasks' inputs, one (K, d, n) stack, through each freshly
quantized layer with one propagation, which for sequential models is exactly
equivalent to re-running the forward pass), solves for low-bit codes, and
puts the quantized layer in its place before moving on. The curvatures are
formed one at a time as the solver consumes them, and the last layer's stack
is let go once they are.

Each layer report carries a trajectory checksum: the prefix chain
c_1 = EMPTY_PREFIX, c_l = chain_link(c_{l-1}, layer l-1) over layers
1..l-1 as they stand when layer l is calibrated. quantize extends it by one
link per layer and hashes nothing else. The arrays a step can reach are
read-only views: checkpoint weights and biases, calibration inputs and a
quantized layer's realized weight. A solver that writes into layer l's
source or into a layer the cache was advanced through fails at the write
with numpy's read-only ValueError, so the collected activations describe
the state that is replaced.

Deviation diagnostics decompose the held-out output error of each
quantized layer into the quantization part (Q X - W_m X) and the
expert-relative merging part (W_m X - W_i X), whose sum telescopes to the
combined deviation Q X - W_i X. They and evaluation share one walk of all
tasks together as one (K, d, n) stack, as quantize does (`_walk`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .calib import CalibSet, collect_layer_stats
from .checkpoint import Checkpoint, ModelManifest
from .linalg import CHUNK_ELEMENTS, matmul
from .model import (
    EMPTY_PREFIX,
    Model,
    apply_activation,
    chain_link,
    forward,
    forward_to_layer,
    propagate_through_layer,
)
from .quant import QuantConfig
from .solver import SolveReport, solve_layer

# largest |(Q X - W_i X) - ((Q X - W_m X) + (W_m X - W_i X))| a deviation row may hold,
# relative to max(1, max|Q X|, max|W_i X|) of its layer and task
IDENTITY_TOL = 1e-9


@dataclass
class LayerReport:
    layer_id: str
    solve: SolveReport
    trajectory_checksum: str

    def to_json_dict(self) -> dict:
        out = {"layer_id": self.layer_id, "trajectory_checksum": self.trajectory_checksum}
        out.update(self.solve.to_json_dict())
        return out


@dataclass
class PmqRun:
    """Everything produced by one quantization run."""

    merged: Checkpoint
    experts: list[Checkpoint]
    calib: CalibSet | None
    cfg: QuantConfig
    layer_reports: list[LayerReport]
    model: Model
    method: str

    @property
    def damped_fallback(self) -> bool:
        return any(rep.solve.damped_fallback for rep in self.layer_reports)

    def total_objective(self) -> float:
        return float(sum(rep.solve.objective or 0.0 for rep in self.layer_reports))


@dataclass
class DeviationRow:
    layer_id: str
    task_id: int
    quant_norm: float
    merge_norm: float
    combined_norm: float
    identity_max_abs: float


@dataclass
class DeviationReport:
    rows: list[DeviationRow] = field(default_factory=list)

    def max_identity_error(self) -> float:
        return max((r.identity_max_abs for r in self.rows), default=0.0)


@dataclass
class EvalResult:
    per_task_mse: dict[int, float]
    macro_mse: float


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


def _check_tasks(data: CalibSet, manifest: ModelManifest, name: str, targets: bool) -> None:
    """The tasks' inputs must fit layer 1 and, when asked, their targets the last layer."""
    d_in, d_out = manifest.layers[0].d_in, manifest.layers[-1].d_out
    if data.inputs.shape[1] != d_in:
        raise ConfigError(
            f"{name} inputs have {data.inputs.shape[1]} rows, layer 1 has d_in={d_in}"
        )
    if targets and data.targets is None:
        raise ConfigError(f"{name} tasks have no targets")
    if targets and data.targets.shape[1] != d_out:
        raise ConfigError(
            f"{name} targets have {data.targets.shape[1]} rows, the last layer has d_out={d_out}"
        )


def quantize(
    merged: Checkpoint,
    experts: list[Checkpoint],
    calib: CalibSet | None,
    cfg: QuantConfig,
) -> PmqRun:
    """Quantize every layer of `merged` in forward order with cfg.solver.

    epmq needs at least one expert and one calibration task per expert; gptq
    pools the per-task curvatures (sum_i H_i) and needs calibration; rtn uses
    calibration only to report objectives. Activations follow the partially
    quantized trajectory. Raises ConfigError, before any compute, when
    those needs are unmet, an expert's manifest differs from the merged one,
    or the calibration inputs do not fit layer 1.
    """
    if cfg.solver == "epmq" and not experts:
        raise ConfigError("epmq requires at least one expert")
    if cfg.solver in ("epmq", "gptq") and calib is None:
        raise ConfigError(f"{cfg.solver} requires a calibration set")
    if cfg.solver == "epmq" and calib.num_tasks != len(experts):
        raise ConfigError(f"{calib.num_tasks} calibration tasks for {len(experts)} experts")
    for idx, expert in enumerate(experts, start=1):
        if expert.manifest != merged.manifest:
            raise ConfigError(f"expert {idx} does not share the merged checkpoint's manifest")
    if calib is not None:
        _check_tasks(calib, merged.manifest, "calibration", targets=False)

    model = Model.from_checkpoint(merged)
    # layer-l inputs of the K tasks, one (K, d, n) stack: the calibration set's own at layer 1
    cache = None if calib is None else calib.inputs
    reports: list[LayerReport] = []
    chain = EMPTY_PREFIX
    for layer_index in range(1, model.num_layers + 1):
        layer = model.layers[layer_index - 1]
        layer_id = layer.spec.id
        try:
            hessians = None if cache is None else collect_layer_stats(model, layer_index, cache)
            if layer_index == model.num_layers:
                cache = None  # the last stack lives only until its curvatures are taken
            solve = solve_layer(
                [e.layers[layer_index - 1].weight for e in experts], layer.weight, hessians, cfg
            )
            model.replace_layer(layer_index, solve.quantized)
            layer = model.layers[layer_index - 1]  # the quantized Layer, for the cache and chain
            if cache is not None and layer_index < model.num_layers:
                cache = propagate_through_layer(cache, layer)
        except Exception as exc:
            exc.args = (f"layer '{layer_id}': {exc}",)
            raise
        reports.append(
            LayerReport(layer_id=layer_id, solve=solve, trajectory_checksum=chain.hex())
        )
        if layer_index < model.num_layers:
            chain = chain_link(chain, layer)
    return PmqRun(
        merged=merged,
        experts=list(experts),
        calib=calib,
        cfg=cfg,
        layer_reports=reports,
        model=model,
        method=cfg.solver,
    )


def run_epmq(
    merged: Checkpoint,
    experts: list[Checkpoint],
    calib: CalibSet,
    cfg: QuantConfig,
) -> PmqRun:
    """`quantize` for a config whose solver is epmq."""
    if cfg.solver != "epmq":
        raise ConfigError(f"run_epmq requires solver='epmq', got '{cfg.solver}'")
    return quantize(merged, experts, calib, cfg)


def _walk(
    model: Model,
    heldout: CalibSet,
    merged: Checkpoint | None = None,
    experts: Sequence[Checkpoint] = (),
    outputs: bool = True,
) -> tuple[np.ndarray | None, DeviationReport | None]:
    """The (K, d_out, n) outputs of the K held-out tasks walked through `model`
    from their stack `heldout.inputs` and, when `merged` is given, the
    deviation rows against it and `experts` (one per task) from the same
    pass. With `merged` and not `outputs` the outputs are None: the last
    layer forms no fresh array for a caller that wants only the rows.

    Without `merged` the walk is `forward`. With it, per layer, W_m X goes
    into a (K, d_out, n) workspace, and Q X, the W_i X_i and one panel of
    combined deviations, of about CHUNK_ELEMENTS entries (every task when
    they are small), into one buffer of 2K + panel rows, both reused while
    the output width stays. The next inputs are formed from Q X (bias, then
    activation in place) before the deviations overwrite it in place. The
    panels run last to first, each but the first summing its own squares, so
    one square-and-sum over the buffer fills the rest of the layer's norms.
    After the walk the first row, layer-major, whose gap exceeds
    IDENTITY_TOL * max(1, max|Q X|, max|W_i X|) raises, so a correct
    decomposition passes at any scale of the data; that scale is measured
    (forwarding the layer's inputs afresh) only past IDENTITY_TOL itself.
    Raises ConfigError, before any compute, unless there is one held-out
    task per expert and every checkpoint shares the model's manifest.
    """
    x = heldout.inputs
    if merged is None:
        return forward(model, x), None
    if heldout.num_tasks != len(experts):
        raise ConfigError(f"{heldout.num_tasks} held-out tasks for {len(experts)} experts")
    for idx, ckpt in enumerate([merged, *experts]):
        if ckpt.manifest != model.manifest:
            name = f"expert {idx}" if idx else "merged checkpoint"
            raise ConfigError(f"{name} does not share the quantized model's manifest")
    # per layer and task: squared sums of the quant, merge and combined deviations, the gap
    k, n = len(x), x.shape[-1]
    stats = np.empty((model.num_layers, 4, k))
    work = None
    for index, layer in enumerate(model.layers):
        if work is None or work.shape[1] != layer.spec.d_out:
            shape = (layer.spec.d_out, n)
            panel = min(k, max(1, CHUNK_ELEMENTS // (shape[0] * n)))
            work = np.empty((2 * k + panel, *shape))  # Q X, W_i X_i, one combined panel
            mx = np.empty((k, *shape))
        # Q X becomes the quant deviation, W_i X_i the merge one and W_m X the gap
        qx, ex = work[:k], work[k : 2 * k]
        np.matmul(layer.weight, x, out=qx)
        np.matmul(merged.layers[index].weight, x, out=mx)
        for t, expert in enumerate(experts):
            np.matmul(expert.layers[index].weight, x[t], out=ex[t])
        x = None
        if outputs or index + 1 < model.num_layers:
            # a fresh array: identity would hand back qx, overwritten below
            x = apply_activation(
                layer.spec.activation,
                qx.copy() if layer.bias is None else qx + layer.bias[:, None],
                in_place=True,
            )
        for t0 in reversed(range(0, k, panel)):
            t1 = min(t0 + panel, k)
            q, e, m, c = qx[t0:t1], ex[t0:t1], mx[t0:t1], work[2 * k : 2 * k + t1 - t0]
            np.subtract(q, e, out=c)
            np.subtract(m, e, out=e)
            np.subtract(q, m, out=q)
            np.subtract(c, np.add(q, e, out=m), out=m)
            np.abs(m, out=m).max(axis=(1, 2), out=stats[index, 3, t0:t1])
            if t0:  # the next panel overwrites this one
                np.sum(np.square(c, out=c), axis=(1, 2), out=stats[index, 2, t0:t1])
        sums = stats[index, :3].reshape(-1)[: len(work)]
        np.sum(np.square(work, out=work), axis=(1, 2), out=sums)
    np.sqrt(stats[:, :3], out=stats[:, :3])
    rows = [
        DeviationRow(layer.spec.id, task_id, *values)
        for layer, per_task in zip(model.layers, stats.transpose(0, 2, 1).tolist())
        for task_id, values in enumerate(per_task, start=1)
    ]
    gaps = stats[:, 3]
    # the tolerance scales with the outputs (>= 1), measured only past the absolute one
    for index in np.flatnonzero(gaps.max(axis=1) > IDENTITY_TOL):
        scales = _output_scales(model, experts, heldout, index + 1)
        failed = np.flatnonzero(gaps[index] > IDENTITY_TOL * scales)
        if failed.size:
            raise ArithmeticError(
                f"layer '{model.layers[index].spec.id}' task {failed[0] + 1}: "
                f"deviation decomposition violated by {gaps[index, failed[0]]:g}"
            )
    return x, DeviationReport(rows=rows)


def _output_scales(
    model: Model, experts: Sequence[Checkpoint], heldout: CalibSet, layer_index: int
) -> np.ndarray:
    """Per task max(1, max|Q X|, max|W_i X|) at layer `layer_index`, forwarded afresh."""
    x = forward_to_layer(model, heldout.inputs, layer_index)
    qx = np.abs(matmul(model.layers[layer_index - 1].weight, x)).max(axis=(1, 2))
    ex = [np.abs(e.layers[layer_index - 1].weight @ x_t).max() for e, x_t in zip(experts, x)]
    return np.maximum(np.maximum(qx, ex), 1.0)


def deviation_diagnostics(run: PmqRun, heldout: CalibSet) -> DeviationReport:
    """Layer/task deviation norms on held-out activations of the quantized model.

    For each layer and task: the quantization deviation Q X - W_m X, the
    expert-relative merging deviation W_m X - W_i X, and the combined
    deviation Q X - W_i X, which must equal their sum elementwise. Rows come
    out layer-major and keep the absolute identity gap; see `_walk`.
    """
    _check_tasks(heldout, run.model.manifest, "held-out", targets=False)
    return _walk(run.model, heldout, run.merged, run.experts, outputs=False)[1]


def evaluate_with_deviations(
    model: Model,
    heldout: CalibSet,
    merged: Checkpoint | None = None,
    experts: Sequence[Checkpoint] = (),
) -> tuple[EvalResult, DeviationReport | None]:
    """`evaluate`, and with `merged` the deviation rows against it and
    `experts`, from one walk of the held-out tasks through `model`.

    Raises ConfigError, before any forward pass, when a task's inputs do not
    fit layer 1 or its targets are missing or do not fit the last layer, and
    when the checkpoints do not fit the model (see `_walk`).
    """
    _check_tasks(heldout, model.manifest, "held-out", targets=True)
    outputs, report = _walk(model, heldout, merged, experts)
    per_task = {
        t: float(np.mean((out - y) ** 2))
        for t, (out, y) in enumerate(zip(outputs, heldout.targets), start=1)
    }
    macro = float(np.mean(list(per_task.values())))
    return EvalResult(per_task_mse=per_task, macro_mse=macro), report


def evaluate(model: Model, heldout: CalibSet) -> EvalResult:
    """Per-task mean squared error against held-out targets, plus the macro mean.

    All tasks are forwarded together as one (K, d, n) stack; the input checks
    are `evaluate_with_deviations`'s.
    """
    return evaluate_with_deviations(model, heldout)[0]


def run_to_json_dict(run: PmqRun, config: dict | None = None) -> dict:
    return {
        "method": run.method,
        "damped": run.damped_fallback,
        "total_objective": run.total_objective(),
        "config": config or {},
        "layers": [rep.to_json_dict() for rep in run.layer_reports],
    }


RUN_JSON_SCHEMA = {
    "type": "object",
    "required": ["method", "damped", "total_objective", "config", "layers"],
    "additionalProperties": True,
    "properties": {
        "method": {"type": "string", "enum": ["rtn", "gptq", "epmq"]},
        "damped": {"type": "boolean"},
        "total_objective": {"type": "number"},
        "config": {"type": "object"},
        # written by the CLI: the hex SHA-256 of the quantized.safetensors it describes
        "model_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "layers": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "layer_id",
                    "trajectory_checksum",
                    "objective",
                    "lambda",
                    "damping",
                    "damped",
                    "per_column_comp_norms",
                    "bits",
                    "group_size",
                    "solver",
                ],
                "properties": {
                    "layer_id": {"type": "string"},
                    "trajectory_checksum": {"type": "string"},
                    "objective": {"type": ["number", "null"]},
                    "lambda": {"type": "number"},
                    "damping": {"type": "number"},
                    "damped": {"type": "boolean"},
                    "per_column_comp_norms": {"type": "array", "items": {"type": "number"}},
                    "bits": {"type": "integer", "minimum": 2, "maximum": 8},
                    "group_size": {"type": "integer", "minimum": 1},
                    "solver": {"type": "string", "enum": ["rtn", "gptq", "epmq"]},
                },
            },
        },
    },
}
