import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmq.quant import (
    QuantConfig,
    QuantizedLayer,
    dequantize_values,
    fit_grid,
    pack_codes,
    quantize_values,
    rtn_quantize,
    round_half_away,
    unpack_codes,
)

from oracles import enumerate_quadratic_min, pack_bits_reference, round_half_away_by_fraction


class TestQuantConfig:
    def test_defaults_valid(self):
        cfg = QuantConfig()
        assert cfg.bits == 4 and cfg.group_size == 128 and cfg.alpha == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bits": 1},
            {"bits": 9},
            {"group_size": 0},
            {"solver": "awq"},
            {"solver": "gptq", "percdamp": 0.0},
            {"alpha": -1.0},
            {"grid_source": "expert"},
            {"solver": "epmq", "percdamp": -0.01},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuantConfig(**kwargs)

    def test_rtn_allows_zero_percdamp(self):
        QuantConfig(solver="rtn", percdamp=0.0)


class TestRounding:
    def test_half_away_from_zero(self):
        np.testing.assert_array_equal(
            round_half_away([0.5, 1.5, 2.5, -0.5, -1.5, -2.5]),
            [1.0, 2.0, 3.0, -1.0, -2.0, -3.0],
        )

    def test_near_half_below(self):
        assert round_half_away(0.49999999999999994) == 0.0


def assert_rounds_as_reference(values):
    """round_half_away gives the bits of the fractional-part test (the sign of
    zero included), both into a new array and in place as the solver calls it."""
    v = np.array(values, dtype=np.float64)
    expected = round_half_away_by_fraction(v).view(np.uint64)
    np.testing.assert_array_equal(round_half_away(v).view(np.uint64), expected)
    out = round_half_away(v, out=v, scratch=np.empty_like(v))
    assert out is v
    np.testing.assert_array_equal(out.view(np.uint64), expected)


class TestRoundingAgainstFractionTest:
    def test_ties_round_away_from_zero(self):
        k = np.arange(-2048.0, 2048.0)
        assert_rounds_as_reference(np.concatenate([k + 0.5, k]))

    def test_neighbours_of_ties(self):
        ties = np.arange(-2048.0, 2048.0) + 0.5
        assert_rounds_as_reference(np.nextafter(ties, -np.inf))
        assert_rounds_as_reference(np.nextafter(ties, np.inf))

    def test_just_below_one_half(self):
        below = 0.5 - 2.0**-54
        assert below == np.nextafter(0.5, 0.0)
        assert_rounds_as_reference([below, -below, 0.5, -0.5, 1.5 - 2.0**-52])

    def test_magnitudes_from_two_to_the_52(self):
        big = [2.0**52, 2.0**52 + 1, 2.0**53 - 1, 2.0**53 + 2, 2.0**62, 1e308]
        big.append(np.finfo(np.float64).max)
        near = [2.0**51 + 0.5, 2.0**52 - 0.5, 2.0**52 - 1.5]
        assert_rounds_as_reference(big + near + [-x for x in big + near])

    def test_signed_zeros_and_subnormals(self):
        assert_rounds_as_reference([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)])
        assert np.signbit(round_half_away([-0.0, -0.3])).all()

    def test_infinities_and_nan_pass_through(self):
        out = round_half_away([np.inf, -np.inf, np.nan])
        assert out[0] == np.inf and out[1] == -np.inf and np.isnan(out[2])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-(2**51), 2**51).map(lambda k: k + 0.5),
                st.floats(-64.0, 64.0),
            ),
            min_size=1,
            max_size=32,
        )
    )
    def test_matches_reference_on_every_finite_float(self, values):
        assert_rounds_as_reference(values)


class TestFitGrid:
    def test_zero_to_three_two_bits(self):
        scale, zero = fit_grid([0.0, 3.0], bits=2)
        assert scale == 1.0 and zero == 0

    def test_constant_group_reproduced_within_half_scale(self):
        scale, zero = fit_grid([5.0, 5.0, 5.0], bits=2)
        assert scale == 1.0
        code = quantize_values(5.0, scale, zero, bits=2)
        deq = dequantize_values(code, scale, zero)
        assert abs(deq - 5.0) <= 0.5 * scale

    @pytest.mark.parametrize("c", [-7.2, -0.4, 0.0, 2.0, 9.9])
    def test_constant_group_general(self, c):
        scale, zero = fit_grid([c, c, c, c], bits=3)
        assert scale == 1.0
        code = quantize_values(c, scale, zero, bits=3)
        assert 0 <= int(code) <= 7
        assert abs(dequantize_values(code, scale, zero) - c) <= 0.5 * scale

    def test_random_groups_error_bound(self, rng):
        for _ in range(10_000):
            group = rng.normal(size=16) * rng.uniform(0.1, 10.0)
            scale, zero = fit_grid(group, bits=4)
            codes = quantize_values(group, scale, zero, bits=4)
            deq = dequantize_values(codes, scale, zero)
            assert np.abs(group - deq).max() <= scale / 2 + 4 * np.finfo(np.float64).eps * scale

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_grid([1.0, np.inf], bits=4)


class TestQuantizeValues:
    def test_zero_maps_to_zero_point(self):
        for z in [0, 3, 7]:
            code = quantize_values(0.0, 1.0, z, bits=3)
            assert int(code) == z
            assert dequantize_values(code, 1.0, z) == 0.0

    def test_exact_grid_points_round_trip(self):
        scale, zero = 0.25, 5
        for code in range(16):
            w = scale * (code - zero)
            assert int(quantize_values(w, scale, zero, bits=4)) == code
            assert dequantize_values(np.uint8(code), scale, zero) == w

    def test_sweep_within_half_scale(self):
        scale, zero = fit_grid(np.array([-1.0, 1.0]), bits=4)
        w = np.linspace(-1.0, 1.0, 2001)
        deq = dequantize_values(quantize_values(w, scale, zero, bits=4), scale, zero)
        assert np.abs(w - deq).max() <= scale / 2 + 1e-12


class TestRtn:
    def test_fixed_point_on_own_grid(self, rng):
        cfg = QuantConfig(bits=4, group_size=8, solver="rtn")
        base = rng.normal(size=(3, 8))
        q1 = rtn_quantize(base, cfg)
        w = q1.dequantize()
        q2 = rtn_quantize(w, cfg)
        np.testing.assert_array_equal(q2.dequantize(), w)

    def test_eight_bit_resolution_bound(self, rng):
        w = rng.uniform(-1.0, 1.0, size=(4, 64))
        w[:, 0], w[:, 1] = -1.0, 1.0  # pin the range
        q = rtn_quantize(w, QuantConfig(bits=8, group_size=64, solver="rtn"))
        err = np.abs(w - q.dequantize()).max()
        assert err <= (2.0 / 255.0) / 2 + 1e-12

    def test_matches_per_entry_enumeration(self, rng):
        cfg = QuantConfig(bits=2, group_size=4, solver="rtn")
        w = rng.normal(size=(1, 4))
        q = rtn_quantize(w, cfg)
        deq = q.dequantize()
        scale = float(q.scales[0, 0])
        zero = int(q.zeros[0, 0])
        grid = [[scale * (c - zero) for c in range(4)] for _ in range(4)]
        best, _ = enumerate_quadratic_min(w[0], np.eye(4), grid)
        np.testing.assert_allclose(deq[0], best, rtol=0, atol=1e-12)

    def test_error_bound_invariant(self, rng):
        cfg = QuantConfig(bits=4, group_size=32, solver="rtn")
        for _ in range(20):
            w = rng.normal(size=(8, 96))
            q = rtn_quantize(w, cfg)
            groups = np.minimum(np.arange(96) // 32, q.num_groups - 1)
            scales = q.scales.astype(np.float64)[:, groups]
            err = np.abs(w - q.dequantize())
            assert (err <= scales / 2 + 4 * np.finfo(np.float64).eps * scales).all()

    def test_monotone_in_bits(self, rng):
        means = {}
        for bits in (2, 3, 4, 8):
            total = 0.0
            for seed in range(50):
                w = np.random.default_rng(seed).normal(size=(32, 128))
                q = rtn_quantize(w, QuantConfig(bits=bits, group_size=128, solver="rtn"))
                total += float(np.sum((w - q.dequantize()) ** 2))
            means[bits] = total / 50
        assert means[2] > means[3] > means[4] > means[8]

    def test_idempotent_codes_when_refit(self, rng):
        cfg = QuantConfig(bits=3, group_size=16, solver="rtn")
        w = rng.normal(size=(4, 16))
        q1 = rtn_quantize(w, cfg)
        q2 = rtn_quantize(q1.dequantize(), cfg)
        np.testing.assert_array_equal(q1.codes, q2.codes)


def small_rtn_layer(rng):
    return rtn_quantize(rng.normal(size=(3, 10)), QuantConfig(bits=3, group_size=4, solver="rtn"))


class TestQuantizedLayer:
    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            QuantizedLayer(
                codes=np.full((1, 4), 9, dtype=np.uint8),
                scales=np.ones((1, 1), dtype=np.float32),
                zeros=np.zeros((1, 1), dtype=np.int32),
                bits=3,
                group_size=4,
            )

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            QuantizedLayer(
                codes=np.zeros((1, 4), dtype=np.uint8),
                scales=np.zeros((1, 1), dtype=np.float32),
                zeros=np.zeros((1, 1), dtype=np.int32),
                bits=3,
                group_size=4,
            )

    def test_last_group_takes_remainder(self, rng):
        w = rng.normal(size=(2, 10))
        q = rtn_quantize(w, QuantConfig(bits=4, group_size=4, solver="rtn"))
        assert q.num_groups == 3
        assert np.abs(w - q.dequantize()).max() <= q.scales.max() / 2 + 1e-12

    def test_weight_is_dequantized_once(self, rng, monkeypatch):
        q = small_rtn_layer(rng)
        calls = []
        real = QuantizedLayer.dequantize
        monkeypatch.setattr(QuantizedLayer, "dequantize", lambda self: calls.append(1) or real(self))
        assert q.weight is q.weight
        assert calls == [1]
        assert q.weight.tobytes() == real(q).tobytes()

    def test_given_values_are_the_weight(self, rng):
        q = small_rtn_layer(rng)
        values = q.dequantize()
        given_values = QuantizedLayer(q.codes, q.scales, q.zeros, q.bits, q.group_size, values)
        assert given_values.weight is values

    @pytest.mark.parametrize(
        "values", [np.zeros((3, 9)), np.zeros((10, 3)), np.zeros((3, 10), dtype=np.float32)]
    )
    def test_values_of_another_shape_or_dtype_rejected(self, rng, values):
        q = small_rtn_layer(rng)
        with pytest.raises(ValueError, match="values must be float64"):
            QuantizedLayer(q.codes, q.scales, q.zeros, q.bits, q.group_size, values)


class TestPacking:
    def test_nibble_order_forced_example(self):
        packed = pack_codes(np.array([[1, 2]], dtype=np.uint8), bits=4)
        assert packed.tolist() == [0x21]

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_round_trip(self, bits, rng):
        codes = rng.integers(0, 2**bits, size=(5, 11)).astype(np.uint8)
        payload = pack_codes(codes, bits)
        np.testing.assert_array_equal(unpack_codes(payload, bits, 5, 11), codes)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_independent_packer(self, bits, rng):
        codes = rng.integers(0, 2**bits, size=(3, 9)).astype(np.uint8)
        np.testing.assert_array_equal(pack_codes(codes, bits), pack_bits_reference(codes, bits))

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([2, 3, 4, 5, 6, 7, 8]),
        rows=st.integers(1, 6),
        cols=st.integers(1, 20),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_property(self, bits, rows, cols, seed):
        codes = (
            np.random.default_rng(seed).integers(0, 2**bits, size=(rows, cols)).astype(np.uint8)
        )
        np.testing.assert_array_equal(
            unpack_codes(pack_codes(codes, bits), bits, rows, cols), codes
        )

    def test_payload_length_mismatch(self):
        with pytest.raises(ValueError, match="payload"):
            unpack_codes(np.zeros(3, dtype=np.uint8), bits=4, rows=2, cols=4)
