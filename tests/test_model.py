import numpy as np
import pytest

from pmq.checkpoint import Checkpoint, LayerSpec, LayerWeights, ModelManifest
from pmq.linalg import ShapeError
from pmq.model import (
    Model,
    RealizedLayer,
    forward,
    forward_to_layer,
    load_model,
    propagate_through_layer,
    save_model,
)
from pmq.quant import QuantConfig, rtn_quantize

from oracles import straight_line_forward
from test_checkpoint import make_checkpoint


def single_layer_model(weight, bias=None, activation="identity"):
    weight = np.asarray(weight, dtype=np.float64)
    d_out, d_in = weight.shape
    spec = LayerSpec("layer1", d_in, d_out, activation, bias is not None)
    manifest = ModelManifest(layers=(spec,))
    ckpt = Checkpoint(layers=[LayerWeights("layer1", weight, bias)], manifest=manifest)
    return Model.from_checkpoint(ckpt)


class TestForward:
    def test_identity_layer(self, rng):
        m = single_layer_model(np.eye(3))
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(forward(m, x), x)

    def test_relu_hand_arithmetic(self):
        m = single_layer_model([[1.0], [-1.0]], activation="relu")
        np.testing.assert_array_equal(forward(m, [[2.0]]), [[2.0], [0.0]])

    def test_matches_straight_line_script(self, rng):
        ckpt = make_checkpoint(rng, dims=(4, 6, 3))
        model = Model.from_checkpoint(ckpt)
        x = rng.normal(size=(4, 9))
        expected = straight_line_forward(
            [lw.weight for lw in ckpt.layers],
            [lw.bias for lw in ckpt.layers],
            [s.activation for s in ckpt.manifest.layers],
            x,
        )
        np.testing.assert_allclose(forward(model, x), expected, rtol=0, atol=1e-12)

    def test_gelu_path_matches_script(self, rng):
        ckpt = make_checkpoint(rng, dims=(3, 5, 2))
        specs = tuple(
            LayerSpec(s.id, s.d_in, s.d_out, "gelu" if i == 0 else s.activation, s.has_bias)
            for i, s in enumerate(ckpt.manifest.layers)
        )
        ckpt = Checkpoint(
            layers=[LayerWeights(lw.id, lw.weight, lw.bias) for lw in ckpt.layers],
            manifest=ModelManifest(layers=specs),
        )
        model = Model.from_checkpoint(ckpt)
        x = rng.normal(size=(3, 7))
        expected = straight_line_forward(
            [lw.weight for lw in ckpt.layers],
            [lw.bias for lw in ckpt.layers],
            ["gelu", "identity"],
            x,
        )
        np.testing.assert_allclose(forward(model, x), expected, rtol=0, atol=1e-12)

    def test_shape_mismatch(self, rng):
        m = single_layer_model(np.eye(3))
        with pytest.raises(ShapeError):
            forward(m, rng.normal(size=(4, 2)))


class TestForwardToLayer:
    def test_layer_one_returns_input(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        x = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(forward_to_layer(model, x, 1), x)

    def test_out_of_range_errors(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        with pytest.raises(IndexError):
            forward_to_layer(model, rng.normal(size=(4, 5)), model.num_layers + 1)
        with pytest.raises(IndexError):
            forward_to_layer(model, rng.normal(size=(4, 5)), 0)

    def test_last_layer_input_defined(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        x = rng.normal(size=(4, 5))
        out = forward_to_layer(model, x, model.num_layers)
        assert out.shape[0] == model.layers[-1].spec.d_in

    def test_matches_truncated_model(self, rng):
        ckpt = make_checkpoint(rng, dims=(4, 6, 5, 3))
        model = Model.from_checkpoint(ckpt)
        x = rng.normal(size=(4, 8))
        for ell in range(2, 4):
            truncated = Checkpoint(
                layers=[LayerWeights(lw.id, lw.weight, lw.bias) for lw in ckpt.layers[: ell - 1]],
                manifest=ModelManifest(layers=ckpt.manifest.layers[: ell - 1]),
            )
            expected = forward(Model.from_checkpoint(truncated), x)
            np.testing.assert_allclose(
                forward_to_layer(model, x, ell), expected, rtol=0, atol=1e-12
            )


class TestPropagate:
    def test_identity_layer(self, rng):
        m = single_layer_model(np.eye(4))
        x = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(propagate_through_layer(x, m.layers[0]), x)

    def test_compositionality_exact(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng, dims=(4, 6, 5, 3)))
        x = rng.normal(size=(4, 8))
        for ell in range(1, model.num_layers):
            left = forward_to_layer(model, x, ell + 1)
            right = propagate_through_layer(
                forward_to_layer(model, x, ell), model.layers[ell - 1]
            )
            np.testing.assert_array_equal(left, right)

    def test_spot_check_against_full_rerun(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng, dims=(5, 7, 6, 4, 3)))
        x = rng.normal(size=(5, 6))
        acc = x
        for ell in range(1, model.num_layers + 1):
            np.testing.assert_allclose(
                acc, forward_to_layer(model, x, ell), rtol=0, atol=1e-12
            )
            acc = propagate_through_layer(acc, model.layers[ell - 1])


class TestQuantizedLayers:
    def test_high_bit_requantization_preserves_forward(self, rng):
        # weights already on their own 8-bit grid dequantize exactly
        ckpt = make_checkpoint(rng, dims=(4, 6, 3))
        cfg = QuantConfig(bits=8, group_size=128, solver="rtn")
        model = Model.from_checkpoint(ckpt)
        for idx, lw in enumerate(ckpt.layers, start=1):
            snapped = rtn_quantize(lw.weight, cfg).dequantize()
            model.layers[idx - 1].source = snapped
        x = rng.normal(size=(4, 5))
        before = forward(model, x)
        for idx in range(1, model.num_layers + 1):
            model.replace_layer(idx, rtn_quantize(model.layers[idx - 1].weight, cfg))
        np.testing.assert_array_equal(forward(model, x), before)

    @pytest.mark.parametrize(
        "source",
        [np.zeros((3, 2)), np.zeros((2, 3), dtype=np.float32), np.zeros((2, 3), dtype=np.int64)],
        ids=["shape", "float32", "int64"],
    )
    def test_layer_source_checked_when_built(self, source):
        spec = LayerSpec("layer1", d_in=3, d_out=2)
        with pytest.raises(ShapeError, match="layer 'layer1': weight is"):
            RealizedLayer(spec=spec, source=source, bias=None)
        quantized = rtn_quantize(np.ones((3, 2)), QuantConfig(solver="rtn"))
        with pytest.raises(ShapeError, match=r"\(3, 2\), not float64 \(2, 3\)"):
            RealizedLayer(spec=spec, source=quantized, bias=None)

    def test_replace_layer_shape_checked(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        wrong = rtn_quantize(rng.normal(size=(2, 9)), QuantConfig(solver="rtn"))
        with pytest.raises(ShapeError):
            model.replace_layer(1, wrong)

    def test_state_checksum_changes_on_replace(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        before = model.state_checksum()
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        assert model.state_checksum() != before


class TestModelIO:
    def test_mixed_model_round_trip(self, tmp_path, rng):
        model = Model.from_checkpoint(make_checkpoint(rng, dims=(4, 6, 3)))
        model.replace_layer(2, rtn_quantize(model.layers[1].weight, QuantConfig(bits=3, group_size=4, solver="rtn")))
        path = tmp_path / "model.safetensors"
        save_model(model, path)
        loaded = load_model(path)
        x = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(forward(loaded, x), forward(model, x))
        q1 = model.layers[1].source
        q2 = loaded.layers[1].source
        np.testing.assert_array_equal(q1.codes, q2.codes)
        np.testing.assert_array_equal(q1.scales, q2.scales)
        np.testing.assert_array_equal(q1.zeros, q2.zeros)
        assert (q1.bits, q1.group_size) == (q2.bits, q2.group_size)

    def test_save_is_deterministic(self, tmp_path, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        p1, p2 = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
