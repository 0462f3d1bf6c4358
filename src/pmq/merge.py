"""Merge operators over expert checkpoints.

`apply_merge` walks the tensors of the base and the experts together, biases
included, and applies one of three upstream rules to each: elementwise
averaging, task arithmetic (base + coefficient * sum of task vectors), and
trim/elect-sign/disjoint-mean merging. Every checkpoint shares one manifest.
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


def _disjoint_mean(trimmed: list[np.ndarray]) -> np.ndarray:
    """Elect sign(sum of trimmed values) per entry, zero sums counting as +, and
    average the values whose sign matches it (entries with no match become 0)."""
    total = sum(trimmed[1:], trimmed[0])
    elected = np.where(total < 0, -1.0, 1.0)
    matched_sum = np.zeros_like(total)
    matched_count = np.zeros_like(total)
    for t in trimmed:
        match = (np.sign(t) == elected) & (t != 0)
        matched_sum = matched_sum + np.where(match, t, 0.0)
        matched_count = matched_count + match
    return np.divide(matched_sum, matched_count, out=np.zeros_like(total), where=matched_count > 0)


def _merge_tensor(spec: MergeSpec, base: np.ndarray, experts: list[np.ndarray]) -> np.ndarray:
    """One merged tensor; every sum runs in expert order."""
    if spec.method == "average":  # the base is not read
        return sum(experts[1:], experts[0]) / len(experts)
    if spec.method == "task_arithmetic":
        acc = experts[0] - base
        for expert in experts[1:]:
            acc = acc + (expert - base)
        return base + spec.coefficient * acc
    # ties: trim each task vector, then disjoint-mean the survivors
    trimmed = [_trim_to_density(expert - base, spec.density) for expert in experts]
    return base + spec.coefficient * _disjoint_mean(trimmed)


def apply_merge(spec: MergeSpec, base: Checkpoint, experts: Sequence[Checkpoint]) -> Checkpoint:
    """Merge `experts` into one checkpoint by `spec.method`, tensor by tensor.

    Every expert must share the base's manifest, for `average` too, which
    does not read the base's weights.
    """
    if len(experts) < 1:
        raise ValueError("need at least one expert")
    if any(expert.manifest != base.manifest for expert in experts):
        raise ManifestError("checkpoints do not share a manifest")
    layers = []
    for idx, lw in enumerate(base.layers):
        peers = [expert.layers[idx] for expert in experts]
        weight = _merge_tensor(spec, lw.weight, [p.weight for p in peers])
        bias = None if lw.bias is None else _merge_tensor(spec, lw.bias, [p.bias for p in peers])
        layers.append(LayerWeights(id=lw.id, weight=weight, bias=bias))
    return Checkpoint(layers=layers, manifest=base.manifest)
