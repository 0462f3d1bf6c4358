"""Per-task calibration data and layer-wise second-order statistics.

For each task i and layer l the pipeline needs the layer inputs X_i
(d x n_i) and the unnormalized curvature H_i = X_i X_i^T.

Also hosts the synthetic-task generator: a random base model, per-task input
distributions, per-task teacher targets, and experts produced by a fixed
budget of full-batch gradient steps from the base (or, in "perturb" mode,
by taking the teacher directly).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .checkpoint import Checkpoint, Layer, LayerSpec, ModelManifest
# `matmul` is unused here but perfbench's alias test requires pmq.calib.matmul; the
# trainer's stacked products bypass the traced matmul (see ROADMAP item 1)
from .linalg import ShapeError, as_matrix, matmul, read_only  # noqa: F401
from .model import Model, activation_grad, apply_activation, forward
from .tensorfile import MalformedHeaderError, read_tensor_file, write_json, write_tensor_file


class _Task(NamedTuple):
    inputs: np.ndarray


def _task_stack(arrays, name: str) -> np.ndarray:
    """`arrays` as a read-only float64 (K >= 1, rows, n >= 1) stack, a view when it is one."""
    try:
        stack = np.ascontiguousarray(arrays, dtype=np.float64)
    except ValueError as exc:  # a ragged sequence of tasks
        raise ShapeError(f"task {name} do not stack into one array: {exc}") from exc
    if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[2] < 1:
        raise ShapeError(f"task {name} must be a (K>=1, rows, n>=1) stack, got {stack.shape}")
    return read_only(stack)


@dataclass
class CalibSet:
    """K tasks' read-only (K, d, n) `inputs` and (K, d_out, n) `targets` or None;
    task t sits at position t - 1, and n is samples_per_task. Shapes that are
    not these raise ShapeError."""

    inputs: np.ndarray
    targets: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        self.inputs = _task_stack(self.inputs, "inputs")
        if self.targets is not None:
            self.targets = _task_stack(self.targets, "targets")
            if self.targets.shape[::2] != self.inputs.shape[::2]:
                raise ShapeError(
                    f"task targets {self.targets.shape} and inputs {self.inputs.shape} "
                    "differ in K or n"
                )
        # per-task views that nothing here reads, but perfbench's alias test
        # reads batches[0].inputs (see ROADMAP item 1)
        self.batches = [_Task(x) for x in self.inputs]

    @property
    def num_tasks(self) -> int:
        return len(self.inputs)

    @property
    def samples_per_task(self) -> int:
        return self.inputs.shape[2]


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
    model: Model, layer_index: int, activations: np.ndarray
) -> Iterator[np.ndarray]:
    """The curvatures H_i of the layer-l inputs `activations`, a (K, d, n) stack
    of the X_i in task order, checked here and formed one at a time as the
    returned iterator is consumed. The X_i are views of the stack, so its
    memory goes only once the caller has let go of it and the last H_i is
    formed, not task by task."""
    d = model.layers[layer_index - 1].spec.d_in
    if activations.shape[1] != d:
        raise ShapeError(
            f"activations have {activations.shape[1]} rows, layer {layer_index} expects {d}"
        )
    xs = list(activations)  # popped, so no view outlives its H_i
    return (accumulate_stats(xs.pop(0)) for _ in range(len(xs)))


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
        layers.append(Layer(spec, weight, bias))
    return Checkpoint(layers, manifest)


def _perturb_checkpoint(
    rng: np.random.Generator, base: Checkpoint, scale: float
) -> Checkpoint:
    layers = []
    for lw in base.layers:
        delta = rng.normal(0.0, scale / np.sqrt(lw.spec.d_in), size=lw.weight.shape)
        bias = None
        if lw.bias is not None:
            bias = lw.bias + rng.normal(0.0, 0.02, size=lw.bias.shape)
        layers.append(Layer(lw.spec, lw.weight + delta, bias))
    return Checkpoint(layers, base.manifest)


def _train_experts(
    base: Checkpoint, inputs: np.ndarray, targets: np.ndarray, steps: int, lr: float
) -> list[Checkpoint]:
    """Full-batch gradient descent on mean squared loss, from the base weights, for
    expert t on inputs[t] and targets[t] (stacks (K, d, n)). Products are stacked
    and transposes copied contiguous, so each expert gets the bits of its own run."""
    k = len(inputs)
    weights = [np.tile(lw.weight, (k, 1, 1)) for lw in base.layers]
    biases = [None if lw.bias is None else np.tile(lw.bias, (k, 1)) for lw in base.layers]
    acts = [lw.spec.activation for lw in base.layers]
    for _ in range(steps):
        # forward with taps
        a = inputs
        taps = [a]
        pres = []
        for w, b, act in zip(weights, biases, acts):
            z = w @ a
            if b is not None:
                z = z + b[:, :, None]
            pres.append(z)
            a = apply_activation(act, z)
            taps.append(a)
        # backward; each expert's loss is the mean over its own outputs
        g = 2.0 * (a - targets) / (a.size // k)
        for idx in range(len(weights) - 1, -1, -1):
            gz = g * activation_grad(acts[idx], pres[idx])
            dw = gz @ np.ascontiguousarray(taps[idx].transpose(0, 2, 1))
            if biases[idx] is not None:
                biases[idx] = biases[idx] - lr * gz.sum(axis=2)
            if idx > 0:
                g = np.ascontiguousarray(weights[idx].transpose(0, 2, 1)) @ gz
            weights[idx] = weights[idx] - lr * dw
    layers = [
        [Layer(lw.spec, w[t], None if b is None else b[t]) for t in range(k)]
        for lw, w, b in zip(base.layers, weights, biases)
    ]
    return [Checkpoint(list(per_task), base.manifest) for per_task in zip(*layers)]


# an overflow in the draws, teacher forwards or training surfaces as the
# finiteness error below, with no numpy warning before it
@np.errstate(over="ignore", invalid="ignore")
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
    draws; the held-out set carries teacher targets for evaluation. An expert
    or held-out target that is not finite raises FloatingPointError.
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
    teachers, train_xs, train_ys = [], [], []
    calib_xs, heldout_xs, heldout_ys = [], [], []
    for _ in range(num_tasks):
        mean = rng.normal(0.0, input_mean_scale, size=(d0, 1))
        spread = rng.uniform(input_spread[0], input_spread[1], size=(d0, 1))
        teacher = _perturb_checkpoint(rng, base, teacher_scale)
        teacher_model = Model.from_checkpoint(teacher)
        teachers.append(teacher)

        def draw(n: int) -> np.ndarray:
            return mean + spread * rng.normal(0.0, 1.0, size=(d0, n))

        train_x = draw(train_samples)  # drawn in both modes, so the stream that follows agrees
        if expert_mode == "train":
            train_xs.append(train_x)
            train_ys.append(forward(teacher_model, train_x))

        calib_xs.append(draw(samples_per_task))
        heldout_xs.append(draw(heldout_samples))
        heldout_ys.append(forward(teacher_model, heldout_xs[-1]))

    experts = teachers
    if expert_mode == "train":  # training draws nothing, so it runs after every task's draws
        xs, ys = np.stack(train_xs), np.stack(train_ys)
        experts = _train_experts(base, xs, ys, train_steps, learning_rate)
    # a diverging trainer or an outsized teacher overflows; no caller gets the result
    for task_id, expert in enumerate(experts, start=1):
        for lw in expert.layers:
            for name, arr in (("weight", lw.weight), ("bias", lw.bias)):
                if arr is not None and not np.isfinite(arr).all():
                    raise FloatingPointError(f"expert {task_id}: {lw.spec.id}.{name} is not finite")
    for task_id, y in enumerate(heldout_ys, start=1):
        if not np.isfinite(y).all():
            raise FloatingPointError(f"held-out targets of task {task_id} are not finite")

    calib = CalibSet(np.stack(calib_xs), seed=seed)
    # the calibration draws die before the held-out stacks take their memory: kept
    # alive, peak_rss_mb@wide read 85.1-85.4 MB, not 84.1-84.4 (10 runs, 2-vCPU VM)
    del calib_xs
    heldout = CalibSet(np.stack(heldout_xs), np.stack(heldout_ys), seed=seed)
    return SyntheticProblem(base=base, experts=experts, calib=calib, heldout=heldout)


# ---------------------------------------------------------------------------
# calibration set files: one tensor file per task plus an index JSON


def save_calib_set(calib: CalibSet, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t, inputs in enumerate(calib.inputs):
        tensors = {"inputs": inputs}
        if calib.targets is not None:
            tensors["targets"] = calib.targets[t]
        write_tensor_file(directory / f"task{t + 1}.safetensors", tensors)
    index = {
        "K": calib.num_tasks,
        "samples_per_task": calib.samples_per_task,
        "seed": calib.seed,
    }
    write_json(directory / "index.json", index)


def _read_task(path: Path, samples: int) -> tuple[np.ndarray, np.ndarray | None]:
    """A task file's `inputs` (d x n, n = samples >= 1) and optional `targets` (rows x n).

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
    if inputs.shape[1] != samples:
        raise MalformedHeaderError(f"{path}: {inputs.shape[1]} samples, index.json has {samples}")
    return inputs, targets


def load_calib_set(directory) -> CalibSet:
    directory = Path(directory)
    index_path = directory / "index.json"
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
        num_tasks, samples_per_task, seed = index["K"], index["samples_per_task"], index.get("seed")
        counts = (num_tasks, samples_per_task, 0 if seed is None else seed)
        if not all(type(v) is int for v in counts):
            raise TypeError(f"K, samples_per_task and seed must be integers, got {index}")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedHeaderError(f"{index_path}: malformed index: {exc!r}") from exc
    if num_tasks < 1:
        raise MalformedHeaderError(f"{index_path}: malformed index: K={num_tasks}, need K >= 1")
    last = directory / f"task{num_tasks}.safetensors"
    if not last.is_file():  # before a (K, d, n) stack is sized from an index that overstates K
        raise FileNotFoundError(f"{last}: no such task file, {index_path} has K={num_tasks}")
    stacks = {}
    for t in range(num_tasks):
        path = directory / f"task{t + 1}.safetensors"
        for name, task in zip(("inputs", "targets"), _read_task(path, samples_per_task)):
            if t == 0 and task is not None:
                stacks[name] = np.empty((num_tasks, *task.shape))
            rows = [None if a is None else a.shape[-2] for a in (task, stacks.get(name))]
            if rows[0] != rows[1]:
                got, want = ("no" if r is None else r for r in rows)
                raise ShapeError(
                    f"{path}: tensor '{name}' has {got} rows where task1.safetensors "
                    f"has {want}; the tasks do not stack"
                )
            if task is not None:
                stacks[name][t] = task
    return CalibSet(stacks["inputs"], stacks.get("targets"), seed=seed)
