import numpy as np
import pytest

from pmq.checkpoint import (
    Checkpoint,
    DtypeMismatchError,
    Layer,
    LayerSpec,
    ManifestError,
    ModelManifest,
    load_checkpoint,
    manifest_path,
    save_checkpoint,
)
from pmq.model import Model, load_model, save_model
from pmq.quant import QuantConfig, rtn_quantize
from pmq.tensorfile import MalformedHeaderError, read_tensor_file, write_tensor_file


def make_manifest(dims=(4, 3, 2), dtype="f64", activation="relu"):
    specs = []
    for idx in range(len(dims) - 1):
        act = activation if idx < len(dims) - 2 else "identity"
        specs.append(LayerSpec(f"layer{idx + 1}", dims[idx], dims[idx + 1], act, True))
    return ModelManifest(layers=tuple(specs), dtype=dtype)


def make_checkpoint(rng, dims=(4, 3, 2), dtype="f64"):
    manifest = make_manifest(dims, dtype)
    layers = [
        Layer(spec, rng.normal(size=(spec.d_out, spec.d_in)), rng.normal(size=spec.d_out))
        for spec in manifest.layers
    ]
    return Checkpoint(layers, manifest)


class TestManifest:
    def test_unknown_activation_rejected(self):
        with pytest.raises(ManifestError):
            LayerSpec("x", 2, 2, "tanh", True)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ManifestError, match="d_in"):
            ModelManifest(
                layers=(LayerSpec("a", 2, 3, "relu", True), LayerSpec("b", 4, 2, "identity", True))
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            ModelManifest(
                layers=(LayerSpec("a", 2, 2, "relu", True), LayerSpec("a", 2, 2, "identity", True))
            )

    def test_round_trips_field_for_field(self):
        m = make_manifest()
        assert ModelManifest.from_json_dict(m.to_json_dict()) == m


class TestCheckpointIO:
    def test_round_trip_byte_identical_weights(self, tmp_path, rng):
        ckpt = make_checkpoint(rng)
        path = tmp_path / "m.safetensors"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.layers, loaded.layers):
            assert a.weight.tobytes() == b.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
        assert loaded.manifest == ckpt.manifest

    def test_manifest_sidecar_name(self, tmp_path):
        assert manifest_path(tmp_path / "model.safetensors").name == "model.manifest.json"

    def test_f32_storage_round_trips_bit_exact_on_bytes(self, tmp_path, rng):
        ckpt = make_checkpoint(rng, dtype="f32")
        p1 = tmp_path / "a.safetensors"
        p2 = tmp_path / "b.safetensors"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        tensors, _ = read_tensor_file(p1)
        assert tensors["layer1.weight"].dtype == np.float32
        assert tensors["layer1.bias"].dtype == np.float64  # biases are F64, as in model files

    def test_dtype_mismatch_detected(self, tmp_path, rng):
        ckpt = make_checkpoint(rng, dtype="f64")
        path = tmp_path / "m.safetensors"
        save_checkpoint(ckpt, path)
        # rewrite the manifest to claim f32 while tensors stay f64
        mpath = manifest_path(path)
        mpath.write_text(mpath.read_text().replace('"dtype":"f64"', '"dtype":"f32"'))
        with pytest.raises(DtypeMismatchError):
            load_checkpoint(path)

    def test_model_reader_checks_the_stored_dtype_too(self, tmp_path, rng):
        """An F64 layer1.weight beside an f32 sidecar fails both loaders alike."""
        path = tmp_path / "m.safetensors"
        save_checkpoint(make_checkpoint(rng, dtype="f64"), path)
        mpath = manifest_path(path)
        mpath.write_text(mpath.read_text().replace('"dtype":"f64"', '"dtype":"f32"'))
        message = f"{path}: tensor 'layer1.weight' has dtype float64, manifest declares f32"
        for load in (load_checkpoint, load_model):
            with pytest.raises(DtypeMismatchError) as err:
                load(path)
            assert str(err.value) == message

    def test_quantized_layer_is_not_a_checkpoint(self, tmp_path, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        model.replace_layer(2, rtn_quantize(model.layers[1].weight, QuantConfig(solver="rtn")))
        path = tmp_path / "q.safetensors"
        save_model(model, path)
        with pytest.raises(MalformedHeaderError, match=f"{path}: layer 'layer2' is quantized"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "part, dtype", [("codes", np.int32), ("scales", np.float64), ("zeros", np.float32)]
    )
    def test_quantized_tensor_in_another_dtype_is_refused(self, tmp_path, rng, part, dtype):
        """Loading cast F64 scales to float32 and F32 zeros to int32 without a word."""
        model = Model.from_checkpoint(make_checkpoint(rng))
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        path = tmp_path / "q.safetensors"
        save_model(model, path)
        tensors, metadata = read_tensor_file(path)
        tensors[f"layer1.{part}"] = tensors[f"layer1.{part}"].astype(dtype)
        write_tensor_file(path, tensors, metadata)
        with pytest.raises(DtypeMismatchError, match=f"{path}: layer 'layer1' stores codes"):
            load_model(path)

    def test_shape_must_match_manifest(self, rng):
        manifest = make_manifest()
        with pytest.raises(ManifestError, match="shape"):
            layers = [
                Layer(spec, rng.normal(size=(spec.d_out, spec.d_in + 1)), rng.normal(size=spec.d_out))
                for spec in manifest.layers
            ]
            Checkpoint(layers, manifest)

    @pytest.mark.parametrize(
        "key, cut, shape",
        [("layer1.weight", 2, "[2, 4]"), ("layer2.bias", 1, "[1]")],
    )
    @pytest.mark.parametrize("load", [load_checkpoint, load_model], ids=["checkpoint", "model"])
    def test_tensor_not_matching_its_sidecar_is_malformed(self, tmp_path, rng, load, key, cut, shape):
        path = tmp_path / "m.safetensors"
        save_checkpoint(make_checkpoint(rng), path)
        tensors, _ = read_tensor_file(path)
        tensors[key] = tensors[key][:cut]
        write_tensor_file(path, tensors)
        with pytest.raises(MalformedHeaderError) as err:
            load(path)
        assert f"{path}: tensor '{key}' has shape {shape}" in str(err.value)
