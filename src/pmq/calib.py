"""Per-task calibration data and layer-wise second-order statistics.

For each task i and layer l the pipeline needs the layer inputs X_i
(d x n_i) and the unnormalized curvature H_i = X_i X_i^T. The adaptive
anchor for a layer is lam = (alpha / d) * sum_i trace(H_i), where
trace(H_i) is the activation energy ||X_i||_F^2.

Also hosts the synthetic-task generator: a random base model, per-task input
distributions, per-task teacher targets, and experts produced by a fixed
budget of full-batch gradient steps from the base (or, in "perturb" mode,
by taking the teacher directly).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, LayerWeights, ModelManifest, LayerSpec
from .linalg import ShapeError, as_matrix, matmul
from .model import (
    Batch,
    Model,
    activation_grad,
    apply_activation,
    forward,
)
from .tensorfile import MalformedHeaderError, read_tensor_file, write_json, write_tensor_file

@dataclass
class CalibSet:
    """Per-task batches, task ids covering 1..K."""

    batches: list[Batch]
    samples_per_task: int
    seed: int | None = None

    def __post_init__(self):
        ids = sorted(b.task_id for b in self.batches)
        if not ids or ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"task ids must cover 1..K, K >= 1, exactly once, got {ids}")
        self.batches = sorted(self.batches, key=lambda b: b.task_id)

    @property
    def num_tasks(self) -> int:
        return len(self.batches)

    def task(self, task_id: int) -> Batch:
        return self.batches[task_id - 1]


@dataclass
class LayerCalibStats:
    """Curvatures for one layer, per task."""

    hessians: list[np.ndarray]
    d: int

    @property
    def num_tasks(self) -> int:
        return len(self.hessians)

    def pooled_hessian(self) -> np.ndarray:
        return sum(self.hessians[1:], self.hessians[0].copy())  # in task order


def accumulate_stats(x: np.ndarray) -> np.ndarray:
    """H = X X^T for one activation matrix; H or its trace overflowing raises.

    trace(H) is the activation energy ||X||_F^2 in exact arithmetic; in
    floating point each H_jj keeps the BLAS summation order of the product."""
    x = as_matrix(x, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        h = x @ x.T  # on a contiguous x numpy takes the syrk path
        if not (np.isfinite(h).all() and np.isfinite(np.trace(h))):
            raise FloatingPointError("calibration statistics overflowed (non-finite curvature)")
    return h


def collect_layer_stats(
    model: Model, layer_index: int, activations: dict[int, np.ndarray]
) -> LayerCalibStats:
    """Statistics of the layer-l inputs `activations` (task id -> X_i), in task order."""
    d = model.layers[layer_index - 1].spec.d_in
    hessians = []
    for task_id in sorted(activations):
        x = activations[task_id]
        if x.shape[0] != d:
            raise ShapeError(
                f"activations for task {task_id} have {x.shape[0]} rows, "
                f"layer {layer_index} expects {d}"
            )
        hessians.append(accumulate_stats(x))
    return LayerCalibStats(hessians=hessians, d=d)


def anchor_lambda(stats: LayerCalibStats, alpha: float) -> float:
    """Adaptive anchor strength: (alpha / d) * sum_i trace(H_i), summed in task order."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    energy = 0.0
    for h in stats.hessians:
        energy += float(np.trace(h))
    return (alpha / stats.d) * energy


# ---------------------------------------------------------------------------
# synthetic task generation


@dataclass
class SyntheticProblem:
    base: Checkpoint
    experts: list[Checkpoint]
    calib: CalibSet
    heldout: CalibSet


def _random_checkpoint(rng: np.random.Generator, manifest: ModelManifest) -> Checkpoint:
    layers = []
    for spec in manifest.layers:
        weight = rng.normal(0.0, 1.0 / np.sqrt(spec.d_in), size=(spec.d_out, spec.d_in))
        bias = rng.normal(0.0, 0.05, size=spec.d_out) if spec.has_bias else None
        layers.append(LayerWeights(id=spec.id, weight=weight, bias=bias))
    return Checkpoint(layers=layers, manifest=manifest)


def _perturb_checkpoint(
    rng: np.random.Generator, base: Checkpoint, scale: float
) -> Checkpoint:
    layers = []
    for lw, spec in zip(base.layers, base.manifest.layers):
        delta = rng.normal(0.0, scale / np.sqrt(spec.d_in), size=lw.weight.shape)
        bias = None
        if lw.bias is not None:
            bias = lw.bias + rng.normal(0.0, 0.02, size=lw.bias.shape)
        layers.append(LayerWeights(id=lw.id, weight=lw.weight + delta, bias=bias))
    return Checkpoint(layers=layers, manifest=base.manifest)


def _train_expert(
    base: Checkpoint, inputs: np.ndarray, targets: np.ndarray, steps: int, lr: float
) -> Checkpoint:
    """Full-batch gradient descent on mean squared loss, from the base weights."""
    weights = [lw.weight.copy() for lw in base.layers]
    biases = [None if lw.bias is None else lw.bias.copy() for lw in base.layers]
    acts = [spec.activation for spec in base.manifest.layers]
    for _ in range(steps):
        # forward with taps
        a = inputs
        taps = [a]
        pres = []
        for w, b, act in zip(weights, biases, acts):
            z = matmul(w, a)
            if b is not None:
                z = z + b[:, None]
            pres.append(z)
            a = apply_activation(act, z)
            taps.append(a)
        # backward
        g = 2.0 * (a - targets) / a.size
        for idx in range(len(weights) - 1, -1, -1):
            gz = g * activation_grad(acts[idx], pres[idx])
            dw = matmul(gz, taps[idx].T)
            if biases[idx] is not None:
                biases[idx] = biases[idx] - lr * gz.sum(axis=1)
            if idx > 0:
                g = matmul(weights[idx].T, gz)
            weights[idx] = weights[idx] - lr * dw
    layers = [
        LayerWeights(id=lw.id, weight=w, bias=b)
        for lw, w, b in zip(base.layers, weights, biases)
    ]
    return Checkpoint(layers=layers, manifest=base.manifest)


def make_synthetic_tasks(
    seed: int,
    num_tasks: int,
    dims: list[int],
    samples_per_task: int = 256,
    *,
    heldout_samples: int = 256,
    train_samples: int = 256,
    train_steps: int = 100,
    learning_rate: float = 0.1,
    teacher_scale: float = 0.25,
    input_mean_scale: float = 1.0,
    input_spread: tuple[float, float] = (0.6, 1.4),
    expert_mode: str = "train",
    hidden_activation: str = "relu",
) -> SyntheticProblem:
    """Deterministic desk-scale stand-in for a fleet of fine-tuned experts.

    Draws a random base model over the layer chain `dims`; per task draws a
    Gaussian input distribution (task-specific mean and diagonal spread) and
    a teacher network (base plus a task-specific delta) whose outputs serve
    as targets. Experts start from the base and take `train_steps` full-batch
    gradient steps toward their teacher ("train" mode) or are the teacher
    itself ("perturb" mode). Calibration and held-out sets are disjoint
    draws; held-out batches carry teacher targets for evaluation.
    """
    if num_tasks < 1:
        raise ValueError(f"need at least one task, got {num_tasks}")
    if len(dims) < 2:
        raise ValueError(f"dims must chain at least one layer, got {dims}")
    if expert_mode not in ("train", "perturb"):
        raise ValueError(f"unknown expert_mode '{expert_mode}'")
    rng = np.random.default_rng(seed)
    specs = []
    for idx in range(len(dims) - 1):
        activation = hidden_activation if idx < len(dims) - 2 else "identity"
        specs.append(
            LayerSpec(
                id=f"layer{idx + 1}",
                d_in=dims[idx],
                d_out=dims[idx + 1],
                activation=activation,
                has_bias=True,
            )
        )
    manifest = ModelManifest(layers=tuple(specs), dtype="f64")
    base = _random_checkpoint(rng, manifest)

    d0 = dims[0]
    experts = []
    calib_batches = []
    heldout_batches = []
    for task_id in range(1, num_tasks + 1):
        mean = rng.normal(0.0, input_mean_scale, size=(d0, 1))
        spread = rng.uniform(input_spread[0], input_spread[1], size=(d0, 1))
        teacher = _perturb_checkpoint(rng, base, teacher_scale)
        teacher_model = Model.from_checkpoint(teacher)

        def draw(n: int) -> np.ndarray:
            return mean + spread * rng.normal(0.0, 1.0, size=(d0, n))

        train_x = draw(train_samples)  # drawn in both modes, so the stream that follows agrees
        if expert_mode == "perturb":
            expert = teacher
        else:
            train_y = forward(teacher_model, train_x)
            expert = _train_expert(base, train_x, train_y, train_steps, learning_rate)
        experts.append(expert)

        calib_x = draw(samples_per_task)
        heldout_x = draw(heldout_samples)
        heldout_y = forward(teacher_model, heldout_x)
        calib_batches.append(Batch(inputs=calib_x, task_id=task_id))
        heldout_batches.append(Batch(inputs=heldout_x, task_id=task_id, targets=heldout_y))

    calib = CalibSet(batches=calib_batches, samples_per_task=samples_per_task, seed=seed)
    heldout = CalibSet(batches=heldout_batches, samples_per_task=heldout_samples, seed=seed)
    return SyntheticProblem(base=base, experts=experts, calib=calib, heldout=heldout)


# ---------------------------------------------------------------------------
# calibration set files: one tensor file per task plus an index JSON


def save_calib_set(calib: CalibSet, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for batch in calib.batches:
        tensors = {"inputs": batch.inputs}
        if batch.targets is not None:
            tensors["targets"] = batch.targets
        write_tensor_file(directory / f"task{batch.task_id}.safetensors", tensors)
    index = {
        "K": calib.num_tasks,
        "samples_per_task": calib.samples_per_task,
        "seed": calib.seed,
    }
    write_json(directory / "index.json", index)


def _read_task(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """A task file's `inputs` (d x n, n >= 1) and optional `targets` (rows x n).

    The tensor reader already rejects non-finite values.
    """
    tensors, _ = read_tensor_file(path)
    if "inputs" not in tensors:
        raise MalformedHeaderError(f"{path}: no tensor 'inputs'")
    inputs, targets = tensors["inputs"], tensors.get("targets")
    if inputs.ndim != 2 or inputs.shape[1] < 1:
        raise MalformedHeaderError(
            f"{path}: tensor 'inputs' must be (d, n>=1), got shape {list(inputs.shape)}"
        )
    if targets is not None and (targets.ndim != 2 or targets.shape[1] != inputs.shape[1]):
        raise MalformedHeaderError(
            f"{path}: tensor 'targets' has shape {list(targets.shape)}, "
            f"not {inputs.shape[1]} columns like 'inputs'"
        )
    return inputs, targets


def load_calib_set(directory) -> CalibSet:
    directory = Path(directory)
    index_path = directory / "index.json"
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
        num_tasks, samples_per_task = int(index["K"]), int(index["samples_per_task"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedHeaderError(f"{index_path}: malformed index: {exc!r}") from exc
    if num_tasks < 1:
        raise MalformedHeaderError(f"{index_path}: malformed index: K={num_tasks}, need K >= 1")
    batches = []
    for task_id in range(1, num_tasks + 1):
        inputs, targets = _read_task(directory / f"task{task_id}.safetensors")
        batches.append(Batch(inputs=inputs, task_id=task_id, targets=targets))
    return CalibSet(
        batches=batches,
        samples_per_task=samples_per_task,
        seed=None if index.get("seed") is None else int(index["seed"]),
    )
