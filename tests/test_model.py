import dataclasses

import numpy as np
import pytest

from pmq.checkpoint import Checkpoint, Layer, LayerSpec, ManifestError, ModelManifest
from pmq.linalg import ShapeError
from pmq.model import (
    Model,
    forward,
    forward_to_layer,
    load_model,
    propagate_through_layer,
    save_model,
)
from pmq.quant import QuantConfig, rtn_quantize

from oracles import straight_line_forward
from test_checkpoint import make_checkpoint
from test_pipeline import merged_problem, run_method


def single_layer_model(weight, bias=None, activation="identity"):
    weight = np.asarray(weight, dtype=np.float64)
    d_out, d_in = weight.shape
    spec = LayerSpec("layer1", d_in, d_out, activation, bias is not None)
    manifest = ModelManifest(layers=(spec,))
    ckpt = Checkpoint(layers=[Layer(spec, weight, bias)], manifest=manifest)
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
            layers=[Layer(s, lw.weight, lw.bias) for s, lw in zip(specs, ckpt.layers)],
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
        with pytest.raises(ShapeError):
            forward(m, rng.normal(size=(2, 4, 2)))

    @pytest.mark.parametrize("n", [1, 9])
    def test_task_stack_gives_each_slice_its_own_bits(self, rng, n):
        model = Model.from_checkpoint(make_checkpoint(rng, dims=(4, 6, 3)))
        stack = rng.normal(size=(3, 4, n))
        out = forward(model, stack)
        assert out.shape == (3, 3, n)
        for got, x in zip(out, stack):
            assert got.tobytes() == forward(model, x).tobytes()


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
                layers=ckpt.layers[: ell - 1],
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

    def test_list_of_task_arrays_equals_their_stack(self, rng):
        layer = Model.from_checkpoint(make_checkpoint(rng, dims=(4, 6, 3))).layers[0]
        xs = [rng.normal(size=(4, 5)) for _ in range(3)]
        expected = propagate_through_layer(np.stack(xs), layer)
        np.testing.assert_array_equal(propagate_through_layer(xs, layer), expected)
        nested = [x.tolist() for x in xs]
        np.testing.assert_array_equal(propagate_through_layer(nested, layer), expected)

    @pytest.mark.parametrize(
        "shapes", [[(4, 5), (3, 5)], [(4, 5), (4, 6)], [(4,), (4,)], [(4, 5, 1)]]
    )
    def test_list_of_task_arrays_checked(self, rng, shapes):
        layer = Model.from_checkpoint(make_checkpoint(rng, dims=(4, 6, 3))).layers[0]
        with pytest.raises(ShapeError, match=f"layer '{layer.spec.id}'"):
            propagate_through_layer([rng.normal(size=s) for s in shapes], layer)


class TestQuantizedLayers:
    def test_high_bit_requantization_preserves_forward(self, rng):
        # weights already on their own 8-bit grid dequantize exactly
        ckpt = make_checkpoint(rng, dims=(4, 6, 3))
        cfg = QuantConfig(bits=8, group_size=128, solver="rtn")
        model = Model.from_checkpoint(ckpt)
        for idx, lw in enumerate(ckpt.layers, start=1):
            snapped = rtn_quantize(lw.weight, cfg).dequantize()
            model.layers[idx - 1] = Layer(lw.spec, snapped, lw.bias)
        x = rng.normal(size=(4, 5))
        before = forward(model, x)
        for idx in range(1, model.num_layers + 1):
            model.replace_layer(idx, rtn_quantize(model.layers[idx - 1].weight, cfg))
        np.testing.assert_array_equal(forward(model, x), before)

    def test_replace_layer_shape_checked(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        wrong = rtn_quantize(rng.normal(size=(2, 9)), QuantConfig(solver="rtn"))
        with pytest.raises(ManifestError, match=r"layer 'layer1': weight shape \(2, 9\) != \(3, 4\)"):
            model.replace_layer(1, wrong)

    def test_state_checksum_changes_on_replace(self, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        before = model.state_checksum()
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        assert model.state_checksum() != before


# one layer spec with a bias and one without, (d_out, d_in) = (2, 3)
SPEC = LayerSpec("layer1", d_in=3, d_out=2)
NO_BIAS = dataclasses.replace(SPEC, has_bias=False)
RTN = QuantConfig(solver="rtn")


def in_checkpoint(spec, source, bias):
    return Checkpoint([Layer(spec, source, bias)], ModelManifest(layers=(spec,)))


def in_model(spec, source, bias):
    return Model(ModelManifest(layers=(spec,)), [Layer(spec, source, bias)])


@pytest.mark.parametrize("build", [in_checkpoint, in_model], ids=["checkpoint", "model"])
class TestLayerValidation:
    """One Layer record, checked alike wherever it is built."""

    @pytest.mark.parametrize(
        "spec, source, bias, message",
        [
            (SPEC, np.zeros((3, 2)), np.zeros(2), r"weight shape \(3, 2\) != \(2, 3\)"),
            (SPEC, rtn_quantize(np.ones((3, 2)), RTN), np.zeros(2), r"weight shape \(3, 2\)"),
            (NO_BIAS, np.zeros((2, 3)), np.zeros(2), "manifest declares no bias but one was given"),
            (SPEC, np.zeros((2, 3)), None, "manifest declares a bias but none given"),
            (SPEC, np.zeros((2, 3)), np.zeros(3), r"bias shape \(3,\) != \(2,\)"),
        ],
        ids=["weight-shape", "quantized-shape", "bias-undeclared", "bias-missing", "bias-shape"],
    )
    def test_refused(self, build, spec, source, bias, message):
        with pytest.raises(ManifestError, match=f"layer 'layer1': {message}"):
            build(spec, source, bias)

    @pytest.mark.parametrize(
        "source",
        [
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        ],
        ids=["float32", "int64", "fortran"],
    )
    def test_stored_as_read_only_float64(self, build, source):
        bias = np.ones(2, dtype=source.dtype)
        layer = build(SPEC, source, bias).layers[0]
        for stored, given in ((layer.source, source), (layer.bias, bias)):
            assert stored.dtype == np.float64 and stored.flags.c_contiguous
            assert not stored.flags.writeable and given.flags.writeable
            np.testing.assert_array_equal(stored, given)
        assert layer.weight is layer.source and not layer.is_quantized
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.source = np.zeros((2, 3))

    def test_quantized_layer_only_in_a_model(self, build):
        quantized = rtn_quantize(np.ones((2, 3)), RTN)
        if build is in_checkpoint:
            with pytest.raises(ManifestError, match="layer 'layer1' is quantized"):
                build(SPEC, quantized, np.zeros(2))
        else:
            layer = build(SPEC, quantized, np.zeros(2)).layers[0]
            assert layer.is_quantized and layer.weight is quantized.weight

    def test_layers_must_be_the_manifests(self, build):
        other = dataclasses.replace(SPEC, activation="relu")
        layers = [Layer(other, np.zeros((2, 3)), np.zeros(2))]
        with pytest.raises(ManifestError, match="not the manifest's"):
            if build is in_checkpoint:
                Checkpoint(layers, ModelManifest(layers=(SPEC,)))
            else:
                Model(ModelManifest(layers=(SPEC,)), layers)


def test_replace_layer_leaves_the_checkpoint_alone(rng):
    ckpt = make_checkpoint(rng)
    sources = [lw.source for lw in ckpt.layers]
    model = Model.from_checkpoint(ckpt)
    for idx in range(1, model.num_layers + 1):
        model.replace_layer(idx, rtn_quantize(model.layers[idx - 1].weight, RTN))
    assert all(layer.is_quantized for layer in model.layers)
    assert all(lw.source is source for lw, source in zip(ckpt.layers, sources))
    assert not any(lw.is_quantized for lw in ckpt.layers)


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
        for layer in loaded.layers:
            assert not layer.weight.flags.writeable and not layer.bias.flags.writeable
        assert not loaded.layers[0].source.flags.writeable

    @pytest.mark.parametrize("method", ["epmq", "gptq", "rtn"])
    def test_quantize_run_round_trip_keeps_the_solver_weights(self, tmp_path, method):
        """A loaded layer's weight, dequantized at load, has the bytes of the
        values its solver formed while rounding."""
        problem, merged = merged_problem(seed=31, dims=[6, 12, 10, 5])
        run = run_method(problem, merged, method)
        path = tmp_path / "model.safetensors"
        save_model(run.model, path)
        loaded = load_model(path)
        for layer, rep in zip(loaded.layers, run.layer_reports, strict=True):
            assert layer.is_quantized
            assert layer.weight.tobytes() == rep.quantized.weight.tobytes()
            assert not layer.weight.flags.writeable

    def test_save_is_deterministic(self, tmp_path, rng):
        model = Model.from_checkpoint(make_checkpoint(rng))
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        p1, p2 = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
