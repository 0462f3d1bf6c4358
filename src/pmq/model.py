"""Sequential feed-forward model semantics.

A Model is a list of checkpoint.Layer records, each with a full-precision
float64 matrix or a quantized layer as its weight source (its `weight`: the
values its solver formed, or dequantized on first use). Layers are
immutable, so forward passes are pure; replace_layer puts a new quantized
Layer in the model's own list and is only called by the quantization
pipeline, which serializes those writes.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .checkpoint import Checkpoint, Layer, ModelManifest, check_layers, read_layers, write_layers
from .linalg import ShapeError, matmul
from .quant import QuantizedLayer

# tanh-form gelu constants, fixed so independent builds agree at 64-bit
_GELU_COEF = 0.7978845608028654
_GELU_CUBIC = 0.044715


def apply_activation(name: str, x: np.ndarray, in_place: bool = False) -> np.ndarray:
    """act(x); with `in_place` the result is written into x, which the caller owns."""
    out = x if in_place else None
    if name == "identity":
        return x
    if name == "relu":
        return np.maximum(x, 0.0, out=out)
    if name == "gelu":
        inner = _GELU_COEF * (x + _GELU_CUBIC * x**3)
        return np.multiply(0.5 * x, 1.0 + np.tanh(inner), out=out)
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


class Model:
    """A stack of Layers, full precision or quantized, in the manifest's order."""

    def __init__(self, manifest: ModelManifest, layers: list[Layer]):
        check_layers(layers, manifest)
        self.manifest = manifest
        self.layers = layers

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "Model":
        """A model over the checkpoint's immutable layers, in a list of its own,
        so replace_layer leaves the checkpoint as it is."""
        return cls(ckpt.manifest, list(ckpt.layers))

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def _check_index(self, layer_index: int) -> int:
        if not 1 <= layer_index <= self.num_layers:
            raise IndexError(f"layer index {layer_index} out of range [1, {self.num_layers}]")
        return layer_index

    def replace_layer(self, layer_index: int, quantized: QuantizedLayer) -> None:
        """Put a new Layer with the quantized weight source at `layer_index` (1-based)."""
        old = self.layers[self._check_index(layer_index) - 1]
        self.layers[layer_index - 1] = Layer(old.spec, quantized, old.bias)

    def state_checksum(self) -> str:
        """Hex SHA-256 prefix chain over every layer, in layer order.

        The fold of chain_link over all layers, starting from EMPTY_PREFIX,
        so it equals the trajectory checksum a layer appended after the last
        one would carry.
        """
        return functools.reduce(chain_link, self.layers, EMPTY_PREFIX).hex()


# c_1 of the prefix chain: the digest of no layers at all
EMPTY_PREFIX = hashlib.sha256().digest()


def chain_link(prev: bytes, layer: Layer) -> bytes:
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


def propagate_through_layer(x, layer: Layer) -> np.ndarray:
    """act(W x + b) for a single layer, on x (d_in, n) or a stack (..., d_in, n)."""
    try:
        x = np.asarray(x, dtype=np.float64)
    except ValueError as exc:  # a ragged sequence of arrays
        raise ShapeError(f"layer '{layer.spec.id}': input is not one array: {exc}") from exc
    if x.ndim < 2 or x.shape[-2] != layer.spec.d_in:
        raise ShapeError(
            f"layer '{layer.spec.id}': input {x.shape} does not have {layer.spec.d_in} rows"
        )
    y = matmul(layer.weight, x)
    if layer.bias is not None:
        y += layer.bias[:, None]  # y is this call's own product
    # relu in place: a fresh output is one more (K, d_out, n) stack, which read
    # 84.3 vs 83.2 MB median peak RSS on three 512-wide layers (K=2, n=512),
    # higher in 9 of 9 alternating runs on a 2-vCPU VM
    return apply_activation(layer.spec.activation, y, in_place=True)


def forward_to_layer(model: Model, x: np.ndarray, layer_index: int) -> np.ndarray:
    """Input activation of layer `layer_index` (1-based); index 1 returns x."""
    model._check_index(layer_index)
    out = np.asarray(x, dtype=np.float64)
    for layer in model.layers[: layer_index - 1]:
        out = propagate_through_layer(out, layer)
    return out


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Full forward pass through every layer, of x (d_in, n) or a stack (..., d_in, n)."""
    out = forward_to_layer(model, x, model.num_layers)
    return propagate_through_layer(out, model.layers[-1])


def save_model(model: Model, path) -> str:
    """Write a (possibly partially quantized) model plus manifest sidecar with
    checkpoint.write_layers; returns the hex SHA-256 of the model file's bytes."""
    return hashlib.sha256(write_layers(path, model.manifest, model.layers)).hexdigest()


def load_model(path) -> Model:
    """Read a model written by save_model (full-precision or quantized layers)."""
    return Model(*read_layers(path))
