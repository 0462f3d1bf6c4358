"""Binary tensor file I/O, and the atomic write every pmq file goes through.

Layout: an unsigned 64-bit little-endian header length, a UTF-8 JSON header
mapping tensor name -> {dtype, shape, data_offsets}, then contiguous raw
little-endian tensor payloads. An optional "__metadata__" header entry holds
a string-to-string map. Offsets are relative to the end of the header.

Writes are canonical (sorted tensor names, compact sorted-key JSON) so that
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np


class TensorFileError(Exception):
    """Base class for tensor file parse/write failures."""


class MalformedHeaderError(TensorFileError):
    """The header is not valid JSON or violates the header schema."""


class DtypeMismatchError(TensorFileError):
    """A tensor declares an unknown or unexpected dtype tag."""


class TruncatedPayloadError(TensorFileError):
    """Declared sizes extend past the end of the file."""


_DTYPES = {
    "F32": np.dtype("<f4"),
    "F64": np.dtype("<f8"),
    "U8": np.dtype("<u1"),
    "I32": np.dtype("<i4"),
}
_TAGS = {v: k for k, v in _DTYPES.items()}

METADATA_KEY = "__metadata__"


def dtype_tag(arr: np.ndarray) -> str:
    dt = np.dtype(arr.dtype).newbyteorder("<")
    if dt not in _TAGS:
        raise DtypeMismatchError(f"unsupported dtype {arr.dtype}")
    return _TAGS[dt]


def write_atomic(path, data: bytes) -> None:
    """Replace `path` with `data` via a temp file in its directory and os.replace.

    A failed write leaves the previous file (or none) and no temp file. There
    is no fsync: the result survives a crash of the process, not a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Canonical JSON (sorted keys, compact separators) plus a newline, written atomically."""
    write_atomic(path, (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode())


def write_tensor_file(path, tensors: dict[str, np.ndarray], metadata: dict[str, str] | None = None) -> bytes:
    """Write `tensors` (and `metadata`) canonically to `path`; returns the file's bytes."""
    header: dict[str, object] = {}
    if metadata:
        header[METADATA_KEY] = {str(k): str(v) for k, v in metadata.items()}
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        tag = dtype_tag(arr)
        data = arr.astype(_DTYPES[tag], copy=False).tobytes()
        start = len(payload)
        payload.extend(data)
        header[name] = {
            "dtype": tag,
            "shape": list(arr.shape),
            "data_offsets": [start, start + len(data)],
        }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    data = b"".join((struct.pack("<Q", len(blob)), blob, payload))
    write_atomic(path, data)
    return data


def read_tensor_file(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Tensors and metadata of one file: views of one payload buffer, copied if unaligned."""
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 8:
            raise MalformedHeaderError(f"{path}: file too short to contain a header length")
        (header_len,) = struct.unpack("<Q", f.read(8))
        if header_len > size - 8:
            raise TruncatedPayloadError(f"{path}: header length {header_len} > file size {size}")
        head = f.read(header_len)
        payload = np.empty(size - 8 - header_len, dtype=np.uint8)
        if f.readinto(payload) != payload.size:
            raise TruncatedPayloadError(f"{path}: file shrank while it was read")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeaderError(f"{path}: header must be a JSON object")

    metadata = header.pop(METADATA_KEY, {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise MalformedHeaderError(f"{path}: __metadata__ must map strings to strings")

    tensors: dict[str, np.ndarray] = {}
    for name, entry in header.items():
        if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "data_offsets"}:
            raise MalformedHeaderError(f"{path}: bad header entry for tensor '{name}'")
        tag = entry["dtype"]
        if tag not in _DTYPES:
            raise DtypeMismatchError(f"{path}: tensor '{name}' has unknown dtype tag '{tag}'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(isinstance(s, int) and s >= 0 for s in shape):
            raise MalformedHeaderError(f"{path}: tensor '{name}' has a bad shape {shape!r}")
        offsets = entry["data_offsets"]
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and o >= 0 for o in offsets)
            or offsets[1] < offsets[0]
        ):
            raise MalformedHeaderError(f"{path}: tensor '{name}' has bad data_offsets {offsets!r}")
        start, end = offsets
        dt = _DTYPES[tag]
        expected = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        if end - start != expected:
            raise MalformedHeaderError(
                f"{path}: tensor '{name}' spans {end - start} bytes, shape/dtype need {expected}"
            )
        if end > len(payload):
            raise TruncatedPayloadError(
                f"{path}: tensor '{name}' payload ends at {end}, only {len(payload)} bytes present"
            )
        arr = np.require(payload[start:end].view(dt), requirements="A").reshape(shape)
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise TensorFileError(f"{path}: tensor '{name}' contains non-finite values")
        tensors[name] = arr
    return tensors, dict(metadata)
