"""Uniform affine weight-only quantization.

Grids are fit per output row, per contiguous group of input-dimension
entries: scale = (max - min) / (2^b - 1) with an integer zero-point, and
codes are produced by round-to-nearest with half-away-from-zero rounding.
Scales are stored at float32 precision (matching the serialized format) and
all arithmetic around them happens in float64.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .linalg import require_finite

SOLVERS = ("rtn", "gptq", "epmq")
GRID_SOURCES = ("target", "merged")


@dataclass(frozen=True)
class QuantConfig:
    """Knobs for one quantization run.

    bits: code width, 2..8.
    group_size: entries per grid group along the input dimension; the last
        group takes the remainder when it does not divide d_in.
    percdamp: diagonal damping added to the curvature, as a fraction of its
        mean diagonal.
    alpha: anchor scale for the merged-weight penalty (0 disables it).
    solver: "rtn", "gptq", or "epmq".
    grid_source: which weight the expert-guided solver fits grids from, the
        continuous target ("target") or the merged weight ("merged").
    """

    bits: int = 4
    group_size: int = 128
    percdamp: float = 0.01
    alpha: float = 0.01
    solver: str = "epmq"
    grid_source: str = "target"

    def __post_init__(self):
        if type(self.bits) is not int or type(self.group_size) is not int:
            raise ValueError(
                f"bits and group_size must be integers, got {self.bits!r}, {self.group_size!r}"
            )
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver '{self.solver}' (allowed: {SOLVERS})")
        if self.solver != "rtn" and not self.percdamp > 0:
            raise ValueError(f"percdamp must be > 0 for solver '{self.solver}'")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.grid_source not in GRID_SOURCES:
            raise ValueError(f"unknown grid_source '{self.grid_source}' (allowed: {GRID_SOURCES})")


# the largest double below one half
_BELOW_HALF = 0.5 - 2.0**-54


def round_half_away(x, out=None, scratch=None):
    """Round to nearest integer, halves away from zero.

    Computed as trunc(x + copysign(0.5 - 2^-54, x)): the sum rounds past the
    next integer exactly when |frac(x)| >= 1/2, and is exact or integral for
    |x| >= 2^52, so every finite x rounds correctly, the sign of zero kept.
    With `out` (which may be x) and `scratch`, buffers shaped like x, no new
    array is formed.
    """
    x = np.asarray(x, dtype=np.float64)
    stepped = np.add(x, np.copysign(_BELOW_HALF, x, out=scratch), out=out)
    return np.trunc(stepped, out=out)


def num_groups(d_in: int, group_size: int) -> int:
    return (d_in + group_size - 1) // group_size


def group_bounds(d_in: int, group_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + group_size, d_in)) for s in range(0, d_in, group_size)]


def fit_grid_rows(block: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit one grid per row of `block`.

    The grid range is extended to include zero (the usual convention for
    asymmetric min-max grids) so that zero values survive quantization and
    every entry stays within scale/2 of a grid point. Constant rows get
    scale 1 and a zero-point that reproduces the constant at code 0 (that
    zero-point may fall outside the code range; codes themselves never do).

    Returns (scales, zeros): scales float64 holding float32-rounded values,
    zeros int32.
    """
    block = np.asarray(block, dtype=np.float64)
    require_finite(block, "grid source block")
    maxq = (1 << bits) - 1
    raw_mn = block.min(axis=1)
    raw_mx = block.max(axis=1)
    degenerate = ~(raw_mx > raw_mn)
    mn = np.minimum(raw_mn, 0.0)
    mx = np.maximum(raw_mx, 0.0)
    raw = np.where(degenerate, 1.0, (mx - mn) / maxq)
    scales = np.float32(raw).astype(np.float64)
    zeros = np.clip(round_half_away(-mn / scales), 0, maxq)
    zeros = np.where(degenerate, -round_half_away(raw_mn), zeros)
    if np.abs(zeros).max(initial=0) >= 2**31:
        raise ValueError("zero-point exceeds int32 range")
    return scales, zeros.astype(np.int32)


def fit_grid(group, bits: int) -> tuple[float, int]:
    """Fit a single (scale, zero) pair for one group of values."""
    group = np.atleast_1d(np.asarray(group, dtype=np.float64))
    if group.size == 0:
        raise ValueError("empty group")
    scales, zeros = fit_grid_rows(group.reshape(1, -1), bits)
    return float(scales[0]), int(zeros[0])


def quantize_values(w, scale, zero, bits: int) -> np.ndarray:
    """code = clamp(round(w / scale) + zero, 0, 2^b - 1)."""
    w = np.asarray(w, dtype=np.float64)
    codes = round_half_away(w / np.asarray(scale, dtype=np.float64)) + np.asarray(zero)
    return np.clip(codes, 0, (1 << bits) - 1).astype(np.uint8)


def dequantize_values(codes, scale, zero) -> np.ndarray:
    """value = scale * (code - zero)."""
    return np.asarray(scale, dtype=np.float64) * (
        np.asarray(codes, dtype=np.float64) - np.asarray(zero, dtype=np.float64)
    )


@dataclass(frozen=True)
class QuantizedLayer:
    """Packed-format quantized weights for one layer.

    codes are kept unpacked in memory ((d_out, d_in) uint8, each in
    [0, 2^bits - 1]); pack_codes/unpack_codes produce the serialized
    bitstream. scales are (d_out, num_groups) float32, zeros int32.

    `weight` is the realized weight scale * (code - zero). A solver that has
    already formed those values passes them as `values`, bit for bit what
    dequantize() gives, and they are kept as the weight; otherwise the
    weight is dequantized on first use.
    """

    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    group_size: int
    values: InitVar[np.ndarray | None] = None

    def __post_init__(self, values):
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        scales = np.ascontiguousarray(self.scales, dtype=np.float32)
        zeros = np.ascontiguousarray(self.zeros, dtype=np.int32)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        d_out, d_in = codes.shape
        groups = num_groups(d_in, self.group_size)
        if scales.shape != (d_out, groups) or zeros.shape != (d_out, groups):
            raise ValueError(
                f"scales/zeros must be ({d_out}, {groups}), got {scales.shape} and {zeros.shape}"
            )
        if codes.max(initial=0) > (1 << self.bits) - 1:
            raise ValueError(f"codes exceed {self.bits}-bit range")
        if not (scales > 0).all():
            raise ValueError("all scales must be positive")
        for arr in (codes, scales, zeros):
            arr.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "zeros", zeros)
        if values is not None:
            if values.shape != codes.shape or values.dtype != np.float64:
                raise ValueError(
                    f"values must be float64 {codes.shape}, got {values.dtype} {values.shape}"
                )
            self.__dict__["weight"] = values  # the cached_property's slot

    @property
    def d_out(self) -> int:
        return self.codes.shape[0]

    @property
    def d_in(self) -> int:
        return self.codes.shape[1]

    @property
    def num_groups(self) -> int:
        return self.scales.shape[1]

    def dequantize(self) -> np.ndarray:
        g = np.arange(self.d_in) // self.group_size
        scales = self.scales.astype(np.float64)[:, g]
        zeros = self.zeros.astype(np.float64)[:, g]
        return scales * (self.codes.astype(np.float64) - zeros)

    @cached_property
    def weight(self) -> np.ndarray:
        """The realized weight: the solver's values, else dequantized once."""
        return self.dequantize()


def rtn_quantize(W, cfg: QuantConfig) -> QuantizedLayer:
    """Round-to-nearest per group: fit the grids, then quantize each entry."""
    W = np.asarray(W, dtype=np.float64)
    require_finite(W, "weight")
    scales, zeros = fit_layer_grids(W, cfg.bits, cfg.group_size)
    g = np.arange(W.shape[1]) // cfg.group_size
    codes = quantize_values(W, scales[:, g], zeros[:, g], cfg.bits)
    return QuantizedLayer(
        codes=codes, scales=scales, zeros=zeros, bits=cfg.bits, group_size=cfg.group_size
    )


def fit_layer_grids(W, bits: int, group_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group grids for a whole layer; returns (scales f64, zeros i32)."""
    W = np.asarray(W, dtype=np.float64)
    d_out, d_in = W.shape
    bounds = group_bounds(d_in, group_size)
    scales = np.empty((d_out, len(bounds)))
    zeros = np.empty((d_out, len(bounds)), dtype=np.int32)
    for g, (s, e) in enumerate(bounds):
        scales[:, g], zeros[:, g] = fit_grid_rows(W[:, s:e], bits)
    return scales, zeros


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack codes into a byte stream.

    Codes are flattened row-major and packed little-endian within bytes,
    lowest bits first; every row is padded to a byte boundary.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
    if codes.max(initial=0) > (1 << bits) - 1:
        raise ValueError(f"codes exceed {bits}-bit range")
    rows, cols = codes.shape
    bitmat = (codes[:, :, None] >> np.arange(bits, dtype=np.uint8)) & 1
    bitrows = bitmat.reshape(rows, cols * bits)
    packed = np.packbits(bitrows, axis=1, bitorder="little")
    return packed.reshape(-1)


def unpack_codes(payload: np.ndarray, bits: int, rows: int, cols: int) -> np.ndarray:
    """Inverse of pack_codes; raises on payload length mismatch."""
    payload = np.ascontiguousarray(payload, dtype=np.uint8).reshape(-1)
    bytes_per_row = (cols * bits + 7) // 8
    if payload.size != rows * bytes_per_row:
        raise ValueError(
            f"payload has {payload.size} bytes, expected {rows * bytes_per_row} "
            f"for {rows}x{cols} codes at {bits} bits"
        )
    bitrows = np.unpackbits(payload.reshape(rows, bytes_per_row), axis=1, bitorder="little")
    bitmat = bitrows[:, : cols * bits].reshape(rows, cols, bits)
    weights = (1 << np.arange(bits, dtype=np.uint16)).astype(np.uint16)
    return (bitmat.astype(np.uint16) * weights).sum(axis=2).astype(np.uint8)
