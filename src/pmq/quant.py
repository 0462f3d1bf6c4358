"""Uniform affine weight-only quantization.

Grids are fit per output row, per contiguous group of input-dimension
entries, every group of a layer in one pass (fit_layer_grids): scale =
(max - min) / (2^b - 1) over a range extended to zero, with an integer
zero-point. Codes and realized values come from one grid step
(quantize_values), round-to-nearest with half-away-from-zero rounding.
Scales are stored at float32 precision (matching the serialized format) and
all arithmetic around them happens in float64.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import as_matrix, read_only, require_finite, require_real

SOLVERS = ("rtn", "gptq", "epmq")
GRID_SOURCES = ("target", "merged")


def check_grid(bits, group_size) -> None:
    """Raise ValueError unless bits is an int in [2, 8] and group_size an int >= 1."""
    if type(bits) is not int or type(group_size) is not int:
        raise ValueError(f"bits and group_size must be integers, got {bits!r}, {group_size!r}")
    if not 2 <= bits <= 8:
        raise ValueError(f"bits must be in [2, 8], got {bits}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")


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
        check_grid(self.bits, self.group_size)
        for name in ("percdamp", "alpha"):
            require_real(getattr(self, name), name)
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


@functools.cache
def _code_range(bits: int, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 0 and 2^bits - 1 rows: clipping to arrays converts no Python scalar."""
    return read_only(np.zeros(shape)), read_only(np.full(shape, float((1 << bits) - 1)))


def quantize_values(w, scale, zero, bits: int, codes=None, values=None, scratch=None) -> tuple:
    """The grid step, the one place codes and realized values are formed:
    code = clip(round_half_away(w / scale) + zero, 0, 2^bits - 1) and
    value = scale * (code - zero), scale and zero broadcast against w.

    Returns (codes uint8, values float64). A caller that rounds column by
    column passes both `codes` and `values`, buffers shaped like w, and a
    `scratch` one (see round_half_away), so that no new array is formed.
    """
    if values is None:
        values = np.empty(np.shape(w))
        codes = np.empty(values.shape, dtype=np.uint8)
    lowest, highest = _code_range(bits, values.shape[-1:])
    round_half_away(np.divide(w, scale, out=values), out=values, scratch=scratch)
    values += zero
    np.minimum(np.maximum(values, lowest, out=values), highest, out=values)
    codes[...] = values
    values -= zero
    values *= scale
    return codes, values


@dataclass(frozen=True)
class QuantizedLayer:
    """Packed-format quantized weights for one layer.

    codes are kept unpacked in memory ((d_out, d_in) uint8, each in
    [0, 2^bits - 1]); pack_codes/unpack_codes produce the serialized
    bitstream. scales are (d_out, num_groups) float32, zeros int32.

    Every array is held as a read-only view.

    `weight` is the realized weight scale * (code - zero), held from
    construction: the solver passes the values it formed while rounding as
    `values`, bit for bit what dequantize() gives, and codes read from a
    file are dequantized once, here.
    """

    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    group_size: int
    values: InitVar[np.ndarray | None] = None
    weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, values):
        check_grid(self.bits, self.group_size)
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
        object.__setattr__(self, "codes", read_only(codes))
        object.__setattr__(self, "scales", read_only(scales))
        object.__setattr__(self, "zeros", read_only(zeros))
        if values is None:
            values = self.dequantize()
        elif values.shape != codes.shape or values.dtype != np.float64:
            raise ValueError(
                f"values must be float64 {codes.shape}, got {values.dtype} {values.shape}"
            )
        object.__setattr__(self, "weight", read_only(values))

    def dequantize(self) -> np.ndarray:
        g = np.arange(self.codes.shape[1]) // self.group_size
        scales = self.scales.astype(np.float64)[:, g]
        zeros = self.zeros.astype(np.float64)[:, g]
        return scales * (self.codes.astype(np.float64) - zeros)


def rtn_quantize(W, cfg: QuantConfig) -> QuantizedLayer:
    """Round-to-nearest per group: fit W's grids, then every entry takes the
    grid step (quantize_values) at once, with nothing to compensate."""
    W = as_matrix(W, "weight")
    scales, zeros = fit_layer_grids(W, cfg.bits, cfg.group_size)
    g = np.arange(W.shape[1]) // cfg.group_size
    codes, values = quantize_values(W, scales[:, g], zeros[:, g], cfg.bits)
    return QuantizedLayer(codes, scales, zeros, cfg.bits, cfg.group_size, values)


def fit_layer_grids(W, bits: int, group_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit one grid per row of each group of `group_size` columns of W, all
    groups at once; the last group takes the remainder.

    The grid range is extended to include zero (the usual convention for
    asymmetric min-max grids) so that zero values survive quantization and
    every entry stays within scale/2 of a grid point. A constant group, or
    one whose scale rounds to 0 at float32 (every entry within ~1e-43 of
    zero), gets scale 1 and zero-point -round(min), so code 0 lies within
    half a step of each entry (that zero-point may fall outside the code
    range; codes themselves never do). A scale beyond float32's range (the
    group's range, or its float64 difference, too wide) or a zero-point
    beyond int32 raises OverflowError. W must be finite (ValueError).

    Returns (scales, zeros), each (d_out, num_groups): scales float64
    holding float32-rounded values, zeros int32.
    """
    W = require_finite(np.asarray(W, dtype=np.float64), "grid source weight")
    maxq = (1 << bits) - 1
    starts = np.arange(0, W.shape[1], group_size)
    raw_mn = np.minimum.reduceat(W, starts, axis=1)
    raw_mx = np.maximum.reduceat(W, starts, axis=1)
    degenerate = ~(raw_mx > raw_mn)
    mn = np.minimum(raw_mn, 0.0)
    mx = np.maximum(raw_mx, 0.0)
    with np.errstate(over="ignore"):
        scales = np.float32(np.where(degenerate, 1.0, (mx - mn) / maxq)).astype(np.float64)
    if not np.isfinite(scales).all():
        raise OverflowError("grid scale exceeds float32 range")
    degenerate |= scales == 0.0
    scales[degenerate] = 1.0
    zeros = np.clip(round_half_away(-mn / scales), 0, maxq)
    zeros = np.where(degenerate, -round_half_away(raw_mn), zeros)
    if np.abs(zeros).max(initial=0) >= 2**31:
        raise OverflowError("zero-point exceeds int32 range")
    return scales, zeros.astype(np.int32)


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
