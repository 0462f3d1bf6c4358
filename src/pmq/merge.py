"""Merge operators over expert checkpoints.

Three upstream mergers: elementwise averaging, task arithmetic
(base + coefficient * sum of task vectors), and trim/elect-sign/disjoint-mean
merging. All operate per tensor, biases included, and require every
checkpoint to share one manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checkpoint import Checkpoint, LayerWeights, ManifestError
from .linalg import require_real

MERGE_METHODS = ("average", "task_arithmetic", "ties")


@dataclass(frozen=True)
class MergeSpec:
    method: str = "task_arithmetic"
    coefficient: float = 0.3
    density: float = 0.2

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise ValueError(f"unknown merge method '{self.method}' (allowed: {MERGE_METHODS})")
        for name in ("coefficient", "density"):
            require_real(getattr(self, name), name)
        if self.method in ("task_arithmetic", "ties") and self.coefficient < 0:
            raise ValueError(f"coefficient must be >= 0 for '{self.method}'")
        if not 0 < self.density <= 1:
            raise ValueError(f"density must be in (0, 1], got {self.density}")


def _require_shared_manifest(checkpoints: Sequence[Checkpoint]) -> None:
    first = checkpoints[0].manifest
    for ckpt in checkpoints[1:]:
        if ckpt.manifest != first:
            raise ManifestError("checkpoints do not share a manifest")


def _zip_tensors(ckpt: Checkpoint):
    for lw in ckpt.layers:
        yield lw.weight
        if lw.bias is not None:
            yield lw.bias


def _rebuild(template: Checkpoint, tensors: list[np.ndarray]) -> Checkpoint:
    it = iter(tensors)
    layers = []
    for lw in template.layers:
        weight = next(it)
        bias = next(it) if lw.bias is not None else None
        layers.append(LayerWeights(id=lw.id, weight=weight, bias=bias))
    return Checkpoint(layers=layers, manifest=template.manifest)


def merge_average(experts: Sequence[Checkpoint]) -> Checkpoint:
    """Elementwise mean of expert tensors, accumulated in expert order."""
    if len(experts) < 1:
        raise ValueError("need at least one expert")
    _require_shared_manifest(experts)
    stacks = [list(_zip_tensors(e)) for e in experts]
    merged = []
    for idx in range(len(stacks[0])):
        acc = sum((expert[idx] for expert in stacks[1:]), stacks[0][idx])  # in expert order
        merged.append(acc / len(experts))
    return _rebuild(experts[0], merged)


def merge_task_arithmetic(
    base: Checkpoint, experts: Sequence[Checkpoint], coefficient: float = 0.3
) -> Checkpoint:
    """base + coefficient * sum_i (expert_i - base), per tensor."""
    if len(experts) < 1:
        raise ValueError("need at least one expert")
    _require_shared_manifest([base, *experts])
    base_tensors = list(_zip_tensors(base))
    stacks = [list(_zip_tensors(e)) for e in experts]
    merged = []
    for idx, b in enumerate(base_tensors):
        acc = stacks[0][idx] - b
        for expert in stacks[1:]:
            acc = acc + (expert[idx] - b)
        merged.append(b + coefficient * acc)
    return _rebuild(base, merged)


def _trim_to_density(tau: np.ndarray, density: float) -> np.ndarray:
    """Zero all but the top-ceil(density * size) entries by |value|.

    Magnitude ties keep the lower flat index (stable descending sort).
    """
    flat = np.abs(tau).ravel()
    keep = math.ceil(density * flat.size)
    order = np.argsort(-flat, kind="stable")
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:keep]] = True
    return tau * mask.reshape(tau.shape)


def merge_ties(
    base: Checkpoint,
    experts: Sequence[Checkpoint],
    coefficient: float = 0.3,
    density: float = 0.2,
) -> Checkpoint:
    """Trim task vectors, elect a per-entry sign, disjoint-mean the survivors.

    Per tensor: (1) task vectors tau_i = expert_i - base; (2) per expert keep
    only the top-density fraction by magnitude; (3) elect sign(sum of trimmed
    values), zero sums counting as +; (4) average trimmed values over the
    experts whose sign matches the election (entries with no match become 0);
    (5) merged = base + coefficient * disjoint mean.
    """
    if len(experts) < 1:
        raise ValueError("need at least one expert")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    _require_shared_manifest([base, *experts])
    base_tensors = list(_zip_tensors(base))
    stacks = [list(_zip_tensors(e)) for e in experts]
    merged = []
    for idx, b in enumerate(base_tensors):
        trimmed = [_trim_to_density(expert[idx] - b, density) for expert in stacks]
        total = sum(trimmed[1:], trimmed[0])
        elected = np.where(total < 0, -1.0, 1.0)
        matched_sum = np.zeros_like(b)
        matched_count = np.zeros_like(b)
        for t in trimmed:
            match = (np.sign(t) == elected) & (t != 0)
            matched_sum = matched_sum + np.where(match, t, 0.0)
            matched_count = matched_count + match
        mean = np.divide(
            matched_sum, matched_count, out=np.zeros_like(b), where=matched_count > 0
        )
        merged.append(b + coefficient * mean)
    return _rebuild(base, merged)


def apply_merge(spec: MergeSpec, base: Checkpoint, experts: Sequence[Checkpoint]) -> Checkpoint:
    if spec.method == "average":
        return merge_average(experts)
    if spec.method == "task_arithmetic":
        return merge_task_arithmetic(base, experts, spec.coefficient)
    return merge_ties(base, experts, spec.coefficient, spec.density)
