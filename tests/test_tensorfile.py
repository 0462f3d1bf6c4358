import json
import struct
import tracemalloc

import numpy as np
import pytest

from pmq.tensorfile import (
    DtypeMismatchError,
    MalformedHeaderError,
    TruncatedPayloadError,
    read_tensor_file,
    write_tensor_file,
)

from oracles import write_minimal_tensor_file


def test_round_trip_bit_exact(tmp_path, rng):
    tensors = {
        "a": rng.normal(size=(3, 5)),
        "b": rng.normal(size=(2, 2)).astype(np.float32),
        "c": rng.integers(0, 255, size=7).astype(np.uint8),
        "d": rng.integers(-5, 5, size=(2, 3)).astype(np.int32),
    }
    path = tmp_path / "t.safetensors"
    write_tensor_file(path, tensors, metadata={"note": "x"})
    loaded, meta = read_tensor_file(path)
    assert meta == {"note": "x"}
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_save_load_save_identical_bytes(tmp_path, rng):
    tensors = {"w": rng.normal(size=(4, 4))}
    p1 = tmp_path / "a.safetensors"
    p2 = tmp_path / "b.safetensors"
    write_tensor_file(p1, tensors)
    loaded, _ = read_tensor_file(p1)
    write_tensor_file(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_reads_independent_writer_output(tmp_path, rng):
    tensors = {"x": rng.normal(size=(3, 2)), "y": rng.normal(size=(1, 4))}
    path = tmp_path / "ext.safetensors"
    write_minimal_tensor_file(path, tensors)
    loaded, _ = read_tensor_file(path)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_header_length_exceeding_file_is_truncation(tmp_path):
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(TruncatedPayloadError):
        read_tensor_file(path)


def test_file_too_short_is_malformed(tmp_path):
    path = tmp_path / "tiny.safetensors"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(MalformedHeaderError):
        read_tensor_file(path)


def test_garbage_json_is_malformed(tmp_path):
    blob = b"not json at all"
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(MalformedHeaderError):
        read_tensor_file(path)


def test_unknown_dtype_tag(tmp_path):
    header = json.dumps(
        {"x": {"dtype": "F16", "shape": [1], "data_offsets": [0, 2]}}
    ).encode()
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00\x00")
    with pytest.raises(DtypeMismatchError):
        read_tensor_file(path)


def test_payload_shorter_than_declared(tmp_path):
    header = json.dumps(
        {"x": {"dtype": "F64", "shape": [4], "data_offsets": [0, 32]}}
    ).encode()
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(TruncatedPayloadError):
        read_tensor_file(path)


def test_offsets_inconsistent_with_shape(tmp_path):
    header = json.dumps(
        {"x": {"dtype": "F64", "shape": [4], "data_offsets": [0, 16]}}
    ).encode()
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 16)
    with pytest.raises(MalformedHeaderError):
        read_tensor_file(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "nan.safetensors"
    write_tensor_file(path, {"x": np.array([[1.0, 2.0]])})
    # corrupt the payload with a NaN pattern
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(Exception, match="non-finite"):
        read_tensor_file(path)


def test_read_peaks_near_one_copy_of_the_file(tmp_path, rng):
    # one 8 MB tensor: the payload is read once and the tensor is a view of it
    path = tmp_path / "big.safetensors"
    write_tensor_file(path, {"w": rng.normal(size=(1024, 1024))})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded, _ = read_tensor_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size
    assert loaded["w"].flags.aligned and loaded["w"].flags.writeable


def test_tensor_after_odd_sized_tensor_is_aligned(tmp_path):
    tensors = {"a": np.arange(3, dtype=np.uint8), "b": np.ones((2, 3)), "c": np.float32([1.5, 2])}
    path = tmp_path / "odd.safetensors"
    write_tensor_file(path, tensors)
    loaded, _ = read_tensor_file(path)
    for name, arr in tensors.items():
        assert loaded[name].flags.aligned
        np.testing.assert_array_equal(loaded[name], arr)
