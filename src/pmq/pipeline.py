"""Forward-order layer-wise quantization with trajectory-consistent calibration.

The driver walks the layers front to back. For each layer it collects the
per-task input activations from the current partially quantized model
(advancing a per-task activation cache through each freshly quantized layer,
which for sequential models is exactly equivalent to re-running the forward
pass), solves for low-bit codes, and swaps the layer in place before moving
on.

Each layer report carries a trajectory checksum: the prefix chain
c_1 = EMPTY_PREFIX, c_l = chain_link(c_{l-1}, layer l-1) over layers
1..l-1 as they stand when layer l is calibrated. quantize extends it by one
link per layer. Between collection and replacement it re-hashes the two
layers a step can reach, layer l's source (the array the solver receives as
the merged weight) and layer l-1 (the link the cache was advanced through),
and raises if either changed.

Deviation diagnostics decompose the held-out output error of each
quantized layer into the quantization part (Q X - W_m X) and the
expert-relative merging part (W_m X - W_i X), whose sum telescopes to the
combined deviation Q X - W_i X. They walk each task forward once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calib import CalibSet, collect_layer_stats
from .checkpoint import Checkpoint, ModelManifest
from .linalg import matmul
from .model import (
    EMPTY_PREFIX,
    Model,
    apply_activation,
    chain_link,
    forward,
    propagate_through_layer,
)
from .quant import QuantConfig
from .solver import SolveReport, solve_layer

# largest |(Q X - W_i X) - ((Q X - W_m X) + (W_m X - W_i X))| a deviation row may hold
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
    """Every task's inputs must fit layer 1 and, when asked, its targets the last layer."""
    d_in, d_out = manifest.layers[0].d_in, manifest.layers[-1].d_out
    for batch in data.batches:
        task = f"{name} task {batch.task_id}"
        if batch.inputs.shape[0] != d_in:
            raise ConfigError(
                f"{task} has inputs of {batch.inputs.shape[0]} rows, layer 1 has d_in={d_in}"
            )
        if targets and batch.targets is None:
            raise ConfigError(f"{task} has no targets")
        if targets and batch.targets.shape[0] != d_out:
            raise ConfigError(
                f"{task} has targets of {batch.targets.shape[0]} rows, "
                f"the last layer has d_out={d_out}"
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
    cache = None if calib is None else {batch.task_id: batch.inputs for batch in calib.batches}
    reports: list[LayerReport] = []
    prev_chain, chain = b"", EMPTY_PREFIX
    for layer_index in range(1, model.num_layers + 1):
        layer = model.layers[layer_index - 1]
        layer_id = layer.spec.id
        try:
            stats = None
            if cache is not None:
                stats = collect_layer_stats(model, layer_index, cache)
                collected = chain_link(chain, layer)
            solve = solve_layer(
                [e.layers[layer_index - 1].weight for e in experts], layer.weight, stats, cfg
            )
            # the collected activations must describe the exact state we mutate
            if cache is not None and (
                chain_link(chain, layer) != collected
                or (
                    layer_index > 1
                    and chain_link(prev_chain, model.layers[layer_index - 2]) != chain
                )
            ):
                raise RuntimeError("model state changed between collection and replacement")
            model.replace_layer(layer_index, solve.quantized)
            if cache is not None and layer_index < model.num_layers:
                cache = {
                    task_id: propagate_through_layer(x, layer) for task_id, x in cache.items()
                }
        except Exception as exc:
            exc.args = (f"layer '{layer_id}': {exc}",)
            raise
        reports.append(
            LayerReport(layer_id=layer_id, solve=solve, trajectory_checksum=chain.hex())
        )
        if layer_index < model.num_layers:
            prev_chain, chain = chain, chain_link(chain, layer)
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


def deviation_diagnostics(run: PmqRun, heldout: CalibSet) -> DeviationReport:
    """Layer/task deviation norms on held-out activations of the quantized model.

    For each layer and task: the quantization deviation Q X - W_m X, the
    expert-relative merging deviation W_m X - W_i X, and the combined
    deviation Q X - W_i X, which must equal their sum elementwise.

    Each task's activations are walked forward once through the quantized
    model, one layer at a time, and advanced from Q X itself (bias, then
    activation), so a layer costs three GEMMs per task. Rows come out
    layer-major, and the first row (in that order) whose identity gap
    exceeds IDENTITY_TOL raises. Raises ConfigError unless the held-out set
    has one task per expert.
    """
    if heldout.num_tasks != len(run.experts):
        raise ConfigError(f"{heldout.num_tasks} held-out tasks for {len(run.experts)} experts")
    layers = run.model.layers
    by_task: list[list[DeviationRow]] = []
    for expert_idx, expert in enumerate(run.experts, start=1):
        x = heldout.task(expert_idx).inputs
        rows = []
        for layer_index, layer in enumerate(layers, start=1):
            qx = matmul(layer.weight, x)
            mx = matmul(run.merged.layers[layer_index - 1].weight, x)
            ex = matmul(expert.layers[layer_index - 1].weight, x)
            if layer_index < len(layers):
                pre = qx if layer.bias is None else qx + layer.bias[:, None]
                x = apply_activation(layer.spec.activation, pre)
            quant_dev = qx - mx
            merge_dev = mx - ex
            combined = qx - ex
            rows.append(
                DeviationRow(
                    layer_id=layer.spec.id,
                    task_id=expert_idx,
                    quant_norm=float(np.sqrt(np.sum(quant_dev**2))),
                    merge_norm=float(np.sqrt(np.sum(merge_dev**2))),
                    combined_norm=float(np.sqrt(np.sum(combined**2))),
                    identity_max_abs=float(
                        np.abs(combined - (quant_dev + merge_dev)).max(initial=0.0)
                    ),
                )
            )
        by_task.append(rows)
    report = DeviationReport(rows=[row for layer_rows in zip(*by_task) for row in layer_rows])
    for row in report.rows:
        if row.identity_max_abs > IDENTITY_TOL:
            raise ArithmeticError(
                f"layer '{row.layer_id}' task {row.task_id}: deviation decomposition "
                f"violated by {row.identity_max_abs:g}"
            )
    return report


def evaluate(model: Model, heldout: CalibSet) -> EvalResult:
    """Per-task mean squared error against held-out targets, plus the macro mean.

    Raises ConfigError, before any forward pass, when a task's inputs do not
    fit layer 1 or its targets are missing or do not fit the last layer.
    """
    _check_tasks(heldout, model.manifest, "held-out", targets=True)
    per_task: dict[int, float] = {}
    for batch in heldout.batches:
        outputs = forward(model, batch.inputs)
        per_task[batch.task_id] = float(np.mean((outputs - batch.targets) ** 2))
    macro = float(np.mean(list(per_task.values())))
    return EvalResult(per_task_mse=per_task, macro_mse=macro)


def run_to_json_dict(run: PmqRun, config: dict | None = None) -> dict:
    return {
        "method": run.method,
        "solver": run.cfg.solver,
        "damped": run.damped_fallback,
        "total_objective": run.total_objective(),
        "config": config or {},
        "layers": [rep.to_json_dict() for rep in run.layer_reports],
    }


RUN_JSON_SCHEMA = {
    "type": "object",
    "required": ["method", "solver", "damped", "total_objective", "config", "layers"],
    "additionalProperties": True,
    "properties": {
        "method": {"type": "string", "enum": ["rtn", "gptq", "epmq"]},
        "solver": {"type": "string", "enum": ["rtn", "gptq", "epmq"]},
        "damped": {"type": "boolean"},
        "total_objective": {"type": "number"},
        "config": {"type": "object"},
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
