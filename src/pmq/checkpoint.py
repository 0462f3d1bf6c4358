"""Checkpoints: ordered stacks of dense layers plus a sidecar manifest.

A checkpoint file holds one tensor per layer weight ("<id>.weight", shape
d_out x d_in) and optionally "<id>.bias" (shape d_out). The manifest is a
sidecar JSON file "<name>.manifest.json" describing layer dimensions,
activations, the storage dtype, and the format version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import read_only, require_finite
from .tensorfile import (
    DtypeMismatchError,
    MalformedHeaderError,
    read_tensor_file,
    write_json,
    write_tensor_file,
)

MANIFEST_VERSION = 1
ACTIVATIONS = ("identity", "relu", "gelu")
_STORAGE_DTYPES = {"f32": "F32", "f64": "F64"}


class ManifestError(ValueError):
    """Manifest is inconsistent with itself or with the tensors present."""


@dataclass(frozen=True)
class LayerSpec:
    id: str
    d_in: int
    d_out: int
    activation: str = "identity"
    has_bias: bool = True

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ManifestError(
                f"layer '{self.id}': unknown activation '{self.activation}' (allowed: {ACTIVATIONS})"
            )
        if self.d_in < 1 or self.d_out < 1:
            raise ManifestError(f"layer '{self.id}': dimensions must be positive")


@dataclass(frozen=True)
class ModelManifest:
    layers: tuple[LayerSpec, ...]
    dtype: str = "f64"
    version: int = MANIFEST_VERSION

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.dtype not in _STORAGE_DTYPES:
            raise ManifestError(f"unknown storage dtype '{self.dtype}'")
        if self.version != MANIFEST_VERSION:
            raise ManifestError(f"unsupported manifest version {self.version}")
        if not self.layers:
            raise ManifestError("manifest has no layers")
        ids = [s.id for s in self.layers]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate layer ids in manifest: {ids}")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.d_in != prev.d_out:
                raise ManifestError(
                    f"layer '{cur.id}' expects d_in={cur.d_in} but '{prev.id}' emits d_out={prev.d_out}"
                )

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "dtype": self.dtype,
            "layers": [
                {
                    "id": s.id,
                    "d_in": s.d_in,
                    "d_out": s.d_out,
                    "activation": s.activation,
                    "has_bias": s.has_bias,
                }
                for s in self.layers
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelManifest":
        """The manifest in `obj`; a field of another JSON type is malformed."""

        def field(entry, key, kind):
            if type(entry[key]) is not kind:
                raise ManifestError(f"'{key}' must be a {kind.__name__}, got {entry[key]!r}")
            return entry[key]

        try:
            layers = tuple(
                LayerSpec(
                    id=field(entry, "id", str),
                    d_in=field(entry, "d_in", int),
                    d_out=field(entry, "d_out", int),
                    activation=field(entry, "activation", str),
                    has_bias=field(entry, "has_bias", bool),
                )
                for entry in obj["layers"]
            )
            dtype, version = field(obj, "dtype", str), field(obj, "version", int)
            return cls(layers=layers, dtype=dtype, version=version)
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"malformed manifest JSON: {exc}") from exc


@dataclass
class LayerWeights:
    id: str
    weight: np.ndarray  # (d_out, d_in) float64
    bias: np.ndarray | None = None  # (d_out,) float64


@dataclass
class Checkpoint:
    """Layer weights checked against the manifest, each weight and bias kept
    as a read-only float64 view (the caller's arrays keep their flags)."""

    layers: list[LayerWeights] = field(default_factory=list)
    manifest: ModelManifest | None = None

    def __post_init__(self):
        if self.manifest is None:
            raise ManifestError("checkpoint requires a manifest")
        if len(self.layers) != len(self.manifest.layers):
            raise ManifestError(
                f"checkpoint has {len(self.layers)} layers, manifest declares {len(self.manifest.layers)}"
            )
        for lw, spec in zip(self.layers, self.manifest.layers):
            if lw.id != spec.id:
                raise ManifestError(f"layer id '{lw.id}' does not match manifest id '{spec.id}'")
            lw.weight = read_only(np.ascontiguousarray(lw.weight, dtype=np.float64))
            if lw.weight.shape != (spec.d_out, spec.d_in):
                raise ManifestError(
                    f"layer '{lw.id}': weight shape {lw.weight.shape} != ({spec.d_out}, {spec.d_in})"
                )
            if spec.has_bias:
                if lw.bias is None:
                    raise ManifestError(f"layer '{lw.id}': manifest declares a bias but none given")
                lw.bias = read_only(np.ascontiguousarray(lw.bias, dtype=np.float64))
                if lw.bias.shape != (spec.d_out,):
                    raise ManifestError(
                        f"layer '{lw.id}': bias shape {lw.bias.shape} != ({spec.d_out},)"
                    )
            elif lw.bias is not None:
                raise ManifestError(f"layer '{lw.id}': manifest declares no bias but one was given")


def manifest_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".manifest.json")


def save_manifest(manifest: ModelManifest, path) -> None:
    write_json(path, manifest.to_json_dict())


def load_manifest(path) -> ModelManifest:
    """The manifest in sidecar `path`; a malformed one is a MalformedHeaderError naming it."""
    try:
        return ModelManifest.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # not JSON, or a manifest that fails validation
        raise MalformedHeaderError(f"{path}: bad manifest: {exc}") from exc


def storage_dtype(manifest: ModelManifest) -> np.dtype:
    return np.dtype("<f4") if manifest.dtype == "f32" else np.dtype("<f8")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write a full-precision checkpoint plus its manifest sidecar."""
    store = storage_dtype(ckpt.manifest)
    tensors: dict[str, np.ndarray] = {}
    for lw in ckpt.layers:
        tensors[f"{lw.id}.weight"] = lw.weight.astype(store)
        if lw.bias is not None:
            tensors[f"{lw.id}.bias"] = lw.bias.astype(store)
    write_tensor_file(path, tensors)
    save_manifest(ckpt.manifest, manifest_path(path))


def pop_tensor(tensors: dict, path, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """Remove and return tensors[key]; a missing tensor or one whose shape
    disagrees with the manifest is a MalformedHeaderError naming the file."""
    if key not in tensors:
        raise MalformedHeaderError(f"{path}: missing tensor '{key}'")
    arr = tensors.pop(key)
    if arr.shape != shape:
        raise MalformedHeaderError(
            f"{path}: tensor '{key}' has shape {list(arr.shape)}, manifest declares {list(shape)}"
        )
    return arr


def pop_weight(tensors: dict, path, spec: LayerSpec, manifest: ModelManifest) -> np.ndarray:
    """pop_tensor of layer `spec`'s full-precision weight; a stored dtype other
    than the manifest's storage dtype is a DtypeMismatchError naming the file."""
    key = f"{spec.id}.weight"
    weight = pop_tensor(tensors, path, key, (spec.d_out, spec.d_in))
    if weight.dtype != storage_dtype(manifest):
        raise DtypeMismatchError(
            f"{path}: tensor '{key}' has dtype {weight.dtype}, manifest declares {manifest.dtype}"
        )
    return weight


def load_checkpoint(path) -> Checkpoint:
    """Read a full-precision checkpoint written by save_checkpoint."""
    manifest = load_manifest(manifest_path(path))
    tensors, _ = read_tensor_file(path)
    layers = []
    for spec in manifest.layers:
        weight = pop_weight(tensors, path, spec, manifest)
        bias = None
        if spec.has_bias:
            bias = pop_tensor(tensors, path, f"{spec.id}.bias", (spec.d_out,))
        layers.append(
            LayerWeights(
                id=spec.id,
                weight=require_finite(np.asarray(weight, dtype=np.float64), f"{spec.id}.weight"),
                bias=None if bias is None else np.asarray(bias, dtype=np.float64),
            )
        )
    if tensors:
        raise MalformedHeaderError(f"{path}: unexpected tensors {sorted(tensors)}")
    return Checkpoint(layers=layers, manifest=manifest)
