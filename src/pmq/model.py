"""Sequential feed-forward model semantics.

A Model realizes each checkpoint layer from either a full-precision float64
matrix or a quantized layer (its `weight`: the values its solver formed, or
dequantized on first use). Forward passes are pure; replacing a layer's
weight source mutates the model and is only done by the quantization
pipeline, which serializes those writes.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import (
    Checkpoint,
    LayerSpec,
    ModelManifest,
    load_manifest,
    manifest_path,
    pop_tensor,
    pop_weight,
    save_manifest,
    storage_dtype,
)
from .linalg import ShapeError, matmul
from .quant import QuantizedLayer, pack_codes, unpack_codes
from .tensorfile import MalformedHeaderError, read_tensor_file, write_tensor_file

# tanh-form gelu constants, fixed so independent builds agree at 64-bit
_GELU_COEF = 0.7978845608028654
_GELU_CUBIC = 0.044715


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "identity":
        return x
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "gelu":
        inner = _GELU_COEF * (x + _GELU_CUBIC * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))
    raise ValueError(f"unknown activation '{name}'")


def activation_grad(name: str, z: np.ndarray) -> np.ndarray:
    """Derivative of the activation at pre-activation z."""
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "gelu":
        inner = _GELU_COEF * (z + _GELU_CUBIC * z**3)
        t = np.tanh(inner)
        dinner = _GELU_COEF * (1.0 + 3.0 * _GELU_CUBIC * z**2)
        return 0.5 * (1.0 + t) + 0.5 * z * (1.0 - t**2) * dinner
    raise ValueError(f"unknown activation '{name}'")


@dataclass
class Batch:
    """Inputs for one task: (d, n) columns of samples, 1-based task id."""

    inputs: np.ndarray
    task_id: int
    targets: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[1] < 1:
            raise ShapeError(f"batch inputs must be (d, n>=1), got {self.inputs.shape}")
        if self.task_id < 1:
            raise ValueError(f"task_id must be >= 1, got {self.task_id}")
        if self.targets is not None:
            self.targets = np.ascontiguousarray(self.targets, dtype=np.float64)
            if self.targets.shape[1] != self.inputs.shape[1]:
                raise ShapeError("targets must have the same number of columns as inputs")


@dataclass
class RealizedLayer:
    spec: LayerSpec
    source: np.ndarray | QuantizedLayer  # checked once, when the layer is built
    bias: np.ndarray | None

    def __post_init__(self):
        w = self.source
        shape, dtype = (w.codes.shape, np.float64) if self.is_quantized else (w.shape, w.dtype)
        if shape != (self.spec.d_out, self.spec.d_in) or dtype != np.float64:
            raise ShapeError(
                f"layer '{self.spec.id}': weight is {np.dtype(dtype)} {shape}, "
                f"not float64 ({self.spec.d_out}, {self.spec.d_in})"
            )

    @property
    def is_quantized(self) -> bool:
        return isinstance(self.source, QuantizedLayer)

    @property
    def weight(self) -> np.ndarray:
        """The realized weight; a quantized source caches its own."""
        return self.source.weight if self.is_quantized else self.source


class Model:
    """A checkpoint with per-layer realized weight sources."""

    def __init__(self, manifest: ModelManifest, layers: list[RealizedLayer]):
        if len(layers) != len(manifest.layers):
            raise ShapeError("layer count does not match manifest")
        self.manifest = manifest
        self.layers = layers

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "Model":
        layers = [
            RealizedLayer(spec=spec, source=lw.weight, bias=lw.bias)
            for spec, lw in zip(ckpt.manifest.layers, ckpt.layers)
        ]
        return cls(ckpt.manifest, layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def _check_index(self, layer_index: int) -> int:
        if not 1 <= layer_index <= self.num_layers:
            raise IndexError(
                f"layer index {layer_index} out of range [1, {self.num_layers}]"
            )
        return layer_index

    def replace_layer(self, layer_index: int, quantized: QuantizedLayer) -> None:
        """Swap layer `layer_index` (1-based) to a quantized weight source."""
        self._check_index(layer_index)
        spec = self.layers[layer_index - 1].spec
        if (quantized.d_out, quantized.d_in) != (spec.d_out, spec.d_in):
            raise ShapeError(
                f"layer '{spec.id}': quantized shape ({quantized.d_out}, {quantized.d_in}) "
                f"!= ({spec.d_out}, {spec.d_in})"
            )
        self.layers[layer_index - 1].source = quantized

    def state_checksum(self) -> str:
        """Hex SHA-256 prefix chain over every layer, in layer order.

        The fold of chain_link over all layers, starting from EMPTY_PREFIX,
        so it equals the trajectory checksum a layer appended after the last
        one would carry.
        """
        return functools.reduce(chain_link, self.layers, EMPTY_PREFIX).hex()


# c_1 of the prefix chain: the digest of no layers at all
EMPTY_PREFIX = hashlib.sha256().digest()


def chain_link(prev: bytes, layer: RealizedLayer) -> bytes:
    """One link of the prefix chain: sha256(prev || id || W || b).

    W is the realized weight and b the bias, hashed through the buffer
    protocol (no byte copies). c_l = chain_link(c_{l-1}, layer l-1) covers
    exactly the layers that decide the inputs to layer l.
    """
    h = hashlib.sha256(prev)
    h.update(layer.spec.id.encode("utf-8"))
    h.update(np.ascontiguousarray(layer.weight))
    if layer.bias is not None:
        h.update(np.ascontiguousarray(layer.bias))
    return h.digest()


def propagate_through_layer(x: np.ndarray, layer: RealizedLayer) -> np.ndarray:
    """act(W x + b) for a single realized layer."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != layer.spec.d_in:
        raise ShapeError(
            f"layer '{layer.spec.id}': input has {x.shape[0]} rows, expected {layer.spec.d_in}"
        )
    y = matmul(layer.weight, x)
    if layer.bias is not None:
        y += layer.bias[:, None]  # y is this call's own product
    # relu writes a fresh array: writing it in place too raised the peak RSS
    # of 512-wide runs by ~1 MB, through glibc's heap layout
    return apply_activation(layer.spec.activation, y)


def forward_to_layer(model: Model, x: np.ndarray, layer_index: int) -> np.ndarray:
    """Input activation of layer `layer_index` (1-based); index 1 returns x."""
    model._check_index(layer_index)
    out = np.asarray(x, dtype=np.float64)
    for layer in model.layers[: layer_index - 1]:
        out = propagate_through_layer(out, layer)
    return out


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Full forward pass through every layer."""
    out = forward_to_layer(model, x, model.num_layers)
    return propagate_through_layer(out, model.layers[-1])


def save_model(model: Model, path) -> None:
    """Write a (possibly partially quantized) model plus manifest sidecar.

    Full-precision layers store "<id>.weight"; quantized layers store
    "<id>.codes" (packed bitstream), "<id>.scales" (f32), "<id>.zeros" (i32),
    with {bits, group_size} recorded as JSON attrs in the file metadata.
    Biases are always stored at full precision.
    """
    store = storage_dtype(model.manifest)
    tensors: dict[str, np.ndarray] = {}
    metadata: dict[str, str] = {}
    for layer in model.layers:
        lid = layer.spec.id
        if layer.is_quantized:
            q: QuantizedLayer = layer.source
            tensors[f"{lid}.codes"] = pack_codes(q.codes, q.bits)
            tensors[f"{lid}.scales"] = q.scales
            tensors[f"{lid}.zeros"] = q.zeros
            metadata[f"{lid}.quant"] = json.dumps(
                {"bits": q.bits, "group_size": q.group_size}, sort_keys=True
            )
        else:
            tensors[f"{lid}.weight"] = layer.weight.astype(store)
        if layer.bias is not None:
            tensors[f"{lid}.bias"] = layer.bias.astype(np.float64)
    write_tensor_file(path, tensors, metadata=metadata or None)
    save_manifest(model.manifest, manifest_path(path))


def load_model(path) -> Model:
    """Read a model written by save_model (full-precision or quantized layers)."""
    manifest = load_manifest(manifest_path(path))
    tensors, metadata = read_tensor_file(path)
    layers: list[RealizedLayer] = []
    for spec in manifest.layers:
        quant_attrs = metadata.get(f"{spec.id}.quant")
        source: np.ndarray | QuantizedLayer
        if quant_attrs is not None:
            try:
                attrs = json.loads(quant_attrs)
                bits = int(attrs["bits"])
                group_size = int(attrs["group_size"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedHeaderError(
                    f"{path}: bad quant attrs for layer '{spec.id}': {quant_attrs!r}"
                ) from exc
            for part in ("codes", "scales", "zeros"):
                if f"{spec.id}.{part}" not in tensors:
                    raise MalformedHeaderError(f"{path}: missing tensor '{spec.id}.{part}'")
            codes = unpack_codes(
                tensors.pop(f"{spec.id}.codes"), bits, spec.d_out, spec.d_in
            )
            source = QuantizedLayer(
                codes=codes,
                scales=tensors.pop(f"{spec.id}.scales"),
                zeros=tensors.pop(f"{spec.id}.zeros"),
                bits=bits,
                group_size=group_size,
            )
        else:
            source = np.asarray(pop_weight(tensors, path, spec, manifest), dtype=np.float64)
        bias = None
        if spec.has_bias:
            bias = pop_tensor(tensors, path, f"{spec.id}.bias", (spec.d_out,))
            bias = np.asarray(bias, dtype=np.float64)
        layers.append(RealizedLayer(spec=spec, source=source, bias=bias))
    if tensors:
        raise MalformedHeaderError(f"{path}: unexpected tensors {sorted(tensors)}")
    return Model(manifest, layers)

