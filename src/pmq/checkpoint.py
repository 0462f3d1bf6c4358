"""Checkpoints: ordered stacks of dense layers plus a sidecar manifest.

A checkpoint file holds one tensor per layer weight ("<id>.weight", shape
d_out x d_in) and optionally "<id>.bias" (shape d_out). The manifest is a
sidecar JSON file "<name>.manifest.json" describing layer dimensions,
activations, the storage dtype, and the format version. Model files share
the format, with quantized layers in place of weights: write_layers and
read_layers are its one writer and reader.

`Layer` is the one layer record of checkpoints, models and layer files: a
spec, a weight source (full precision or quantized) and a bias, validated
once when it is built. A Checkpoint is a stack of full-precision Layers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .linalg import read_only
from .quant import QuantizedLayer, check_grid, pack_codes, unpack_codes
from .tensorfile import (
    DtypeMismatchError,
    MalformedHeaderError,
    read_tensor_file,
    write_json,
    write_tensor_file,
)

MANIFEST_VERSION = 1
ACTIVATIONS = ("identity", "relu", "gelu")
_STORAGE_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
# a quantized layer's codes, scales and zeros as stored: any other dtype would be cast
_QUANT_DTYPES = (np.dtype("<u1"), np.dtype("<f4"), np.dtype("<i4"))


# each LayerSpec field's JSON type, in the order from_json_dict checks them
_SPEC_TYPES = {"id": str, "d_in": int, "d_out": int, "activation": str, "has_bias": bool}


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
            "layers": [asdict(s) for s in self.layers],
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
                LayerSpec(**{key: field(entry, key, kind) for key, kind in _SPEC_TYPES.items()})
                for entry in obj["layers"]
            )
            dtype, version = field(obj, "dtype", str), field(obj, "version", int)
            return cls(layers=layers, dtype=dtype, version=version)
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"malformed manifest JSON: {exc}") from exc


@dataclass(frozen=True)
class Layer:
    """One layer of a stack: its spec, weight source and bias, checked against the spec.

    `source` is a float matrix, kept as a read-only contiguous float64 view
    (the caller's array keeps its flags), or a QuantizedLayer; the bias is
    kept like a float matrix. A shape or bias that disagrees with `spec` is
    a ManifestError.
    """

    spec: LayerSpec
    source: np.ndarray | QuantizedLayer
    bias: np.ndarray | None = None

    def __post_init__(self):
        spec = self.spec
        if not self.is_quantized:
            object.__setattr__(self, "source", _float64(self.source))
        shape = self.source.codes.shape if self.is_quantized else self.source.shape
        if shape != (spec.d_out, spec.d_in):
            raise ManifestError(
                f"layer '{spec.id}': weight shape {shape} != ({spec.d_out}, {spec.d_in})"
            )
        if (self.bias is not None) != spec.has_bias:
            state = "a bias but none given" if spec.has_bias else "no bias but one was given"
            raise ManifestError(f"layer '{spec.id}': manifest declares {state}")
        if self.bias is not None:
            object.__setattr__(self, "bias", _float64(self.bias))
            if self.bias.shape != (spec.d_out,):
                raise ManifestError(
                    f"layer '{spec.id}': bias shape {self.bias.shape} != ({spec.d_out},)"
                )

    @property
    def is_quantized(self) -> bool:
        return isinstance(self.source, QuantizedLayer)

    @property
    def weight(self) -> np.ndarray:
        """The realized weight; a quantized source caches its own."""
        return self.source.weight if self.is_quantized else self.source


def _float64(a) -> np.ndarray:
    return read_only(np.ascontiguousarray(a, dtype=np.float64))


def check_layers(layers: list[Layer], manifest: ModelManifest) -> None:
    """Raise ManifestError unless `layers` are the manifest's layers, in order."""
    specs = tuple(layer.spec for layer in layers)
    if specs != manifest.layers:
        raise ManifestError(
            f"layers {[s.id for s in specs]} are not the manifest's "
            f"{[s.id for s in manifest.layers]} with the same dimensions"
        )


@dataclass
class Checkpoint:
    """A full-precision stack: its layers, in the manifest's order."""

    layers: list[Layer]
    manifest: ModelManifest

    def __post_init__(self):
        check_layers(self.layers, self.manifest)
        for layer in self.layers:
            if layer.is_quantized:
                raise ManifestError(f"layer '{layer.spec.id}' is quantized, not full precision")


def manifest_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".manifest.json")


def load_manifest(path) -> ModelManifest:
    """The manifest in sidecar `path`; a malformed one is a MalformedHeaderError naming it."""
    try:
        return ModelManifest.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # not JSON, or a manifest that fails validation
        raise MalformedHeaderError(f"{path}: bad manifest: {exc}") from exc


def write_layers(path, manifest: ModelManifest, layers: list[Layer]) -> bytes:
    """Write `layers`, the manifest's, and the manifest sidecar; returns the
    tensor file's bytes.

    A full-precision weight is stored as "<id>.weight" in the manifest's
    storage dtype; a QuantizedLayer as "<id>.codes" (packed bitstream),
    "<id>.scales" (F32) and "<id>.zeros" (I32), with {bits, group_size} as
    the JSON attrs "<id>.quant" in the file metadata. Biases are stored F64.
    """
    store = _STORAGE_DTYPES[manifest.dtype]
    tensors: dict[str, np.ndarray] = {}
    metadata: dict[str, str] = {}
    for layer in layers:
        spec, source = layer.spec, layer.source
        if layer.is_quantized:
            tensors[f"{spec.id}.codes"] = pack_codes(source.codes, source.bits)
            tensors[f"{spec.id}.scales"] = source.scales
            tensors[f"{spec.id}.zeros"] = source.zeros
            metadata[f"{spec.id}.quant"] = json.dumps(
                {"bits": source.bits, "group_size": source.group_size}, sort_keys=True
            )
        else:
            tensors[f"{spec.id}.weight"] = source.astype(store, copy=False)
        if layer.bias is not None:
            tensors[f"{spec.id}.bias"] = layer.bias
    data = write_tensor_file(path, tensors, metadata=metadata)
    write_json(manifest_path(path), manifest.to_json_dict())
    return data


def read_layers(path) -> tuple[ModelManifest, list[Layer]]:
    """The manifest and the layers of a file written by write_layers.

    A missing, misshapen or unexpected tensor, or quant attrs that are not
    JSON {bits, group_size} agreeing with the codes, scales and zeros, is a
    MalformedHeaderError; a weight not in the storage dtype, or codes, scales
    or zeros not U8, F32 and I32, is a DtypeMismatchError. Both name the file.
    """
    manifest = load_manifest(manifest_path(path))
    tensors, metadata = read_tensor_file(path)

    def take(key: str, shape=None) -> np.ndarray:
        if key not in tensors:
            raise MalformedHeaderError(f"{path}: missing tensor '{key}'")
        arr = tensors.pop(key)
        if shape is not None and arr.shape != shape:
            raise MalformedHeaderError(
                f"{path}: tensor '{key}' has shape {list(arr.shape)}, "
                f"manifest declares {list(shape)}"
            )
        return arr

    layers = []
    for spec in manifest.layers:
        attrs = metadata.get(f"{spec.id}.quant")
        source: np.ndarray | QuantizedLayer
        if attrs is not None:
            codes, scales, zeros = (take(f"{spec.id}.{p}") for p in ("codes", "scales", "zeros"))
            if (codes.dtype, scales.dtype, zeros.dtype) != _QUANT_DTYPES:
                raise DtypeMismatchError(
                    f"{path}: layer '{spec.id}' stores codes, scales and zeros as "
                    f"{codes.dtype}, {scales.dtype}, {zeros.dtype}, not uint8, float32, int32"
                )
            # attrs that are not JSON, not {bits, group_size} or disagree with the tensors
            try:
                grid = json.loads(attrs)
                bits, group_size = grid["bits"], grid["group_size"]
                check_grid(bits, group_size)  # before unpacking at that width
                codes = unpack_codes(codes, bits, spec.d_out, spec.d_in)
                source = QuantizedLayer(codes, scales, zeros, bits, group_size)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedHeaderError(
                    f"{path}: bad quantized layer '{spec.id}' ({attrs!r}): {exc}"
                ) from exc
        else:
            source = take(f"{spec.id}.weight", (spec.d_out, spec.d_in))
            if source.dtype != _STORAGE_DTYPES[manifest.dtype]:
                raise DtypeMismatchError(
                    f"{path}: tensor '{spec.id}.weight' has dtype {source.dtype}, "
                    f"manifest declares {manifest.dtype}"
                )
        bias = take(f"{spec.id}.bias", (spec.d_out,)) if spec.has_bias else None
        layers.append(Layer(spec, source, bias))
    if tensors:
        raise MalformedHeaderError(f"{path}: unexpected tensors {sorted(tensors)}")
    return manifest, layers


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write a full-precision checkpoint plus its manifest sidecar."""
    write_layers(path, ckpt.manifest, ckpt.layers)


def load_checkpoint(path) -> Checkpoint:
    """Read a full-precision checkpoint; a quantized layer is a MalformedHeaderError naming it."""
    manifest, layers = read_layers(path)
    for layer in layers:
        if layer.is_quantized:
            raise MalformedHeaderError(f"{path}: layer '{layer.spec.id}' is quantized")
    return Checkpoint(layers, manifest)
