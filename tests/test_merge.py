import numpy as np
import pytest

from pmq.checkpoint import Checkpoint, LayerWeights, ManifestError, ModelManifest
from pmq.merge import MergeSpec, apply_merge

from oracles import mean_of_arrays_scalar, task_arithmetic_scalar, ties_reference
from test_checkpoint import make_checkpoint, make_manifest


def clone_with(ckpt, transform):
    return Checkpoint(
        layers=[
            LayerWeights(lw.id, transform(lw.weight), transform(lw.bias))
            for lw in ckpt.layers
        ],
        manifest=ckpt.manifest,
    )


def all_tensors(ckpt):
    for lw in ckpt.layers:
        yield lw.weight
        yield lw.bias


class TestMergeSpec:
    def test_defaults(self):
        spec = MergeSpec()
        assert spec.method == "task_arithmetic" and spec.coefficient == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "fisher"},
            {"method": "ties", "coefficient": -0.1},
            {"density": 0.0},
            {"density": 1.5},
            {"density": True},
            {"method": "average", "coefficient": "x"},
            {"coefficient": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MergeSpec(**kwargs)


class TestAverage:
    def test_single_expert_unchanged(self, rng):
        e = make_checkpoint(rng)
        merged = apply_merge(MergeSpec(method="average"), e, [e])
        for a, b in zip(all_tensors(merged), all_tensors(e)):
            np.testing.assert_array_equal(a, b)

    def test_opposite_experts_cancel(self, rng):
        e = make_checkpoint(rng)
        neg = clone_with(e, lambda t: -t)
        merged = apply_merge(MergeSpec(method="average"), e, [e, neg])
        for t in all_tensors(merged):
            np.testing.assert_array_equal(t, np.zeros_like(t))

    def test_matches_scalar_mean_oracle_exactly(self, rng):
        experts = [make_checkpoint(np.random.default_rng(s)) for s in (1, 2, 3)]
        merged = apply_merge(MergeSpec(method="average"), experts[0], experts)
        for idx, t in enumerate(all_tensors(merged)):
            stacks = [list(all_tensors(e))[idx] for e in experts]
            np.testing.assert_array_equal(t, mean_of_arrays_scalar(stacks))

    def test_permutation_invariant(self, rng):
        experts = [make_checkpoint(np.random.default_rng(s)) for s in (1, 2, 3)]
        spec = MergeSpec(method="average")
        m1 = apply_merge(spec, experts[0], experts)
        m2 = apply_merge(spec, experts[0], experts[::-1])
        for a, b in zip(all_tensors(m1), all_tensors(m2)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_manifest_mismatch(self, rng):
        a = make_checkpoint(rng)
        b = make_checkpoint(rng, dims=(4, 3, 2), dtype="f32")
        with pytest.raises(ManifestError):
            apply_merge(MergeSpec(method="average"), a, [a, b])

    def test_base_with_another_manifest_is_refused(self, rng):
        # average never reads the base, yet its manifest must match the experts'
        base = make_checkpoint(rng, dims=(4, 3, 2), dtype="f32")
        experts = [make_checkpoint(np.random.default_rng(s)) for s in (1, 2)]
        with pytest.raises(ManifestError, match="share a manifest"):
            apply_merge(MergeSpec(method="average"), base, experts)


class TestTaskArithmetic:
    def test_zero_coefficient_returns_base(self, rng):
        base = make_checkpoint(rng)
        expert = make_checkpoint(np.random.default_rng(7))
        merged = apply_merge(MergeSpec(coefficient=0.0), base, [expert])
        for a, b in zip(all_tensors(merged), all_tensors(base)):
            np.testing.assert_array_equal(a, b)

    def test_single_expert_unit_coefficient_is_identity(self, rng):
        base = make_checkpoint(rng)
        expert = make_checkpoint(np.random.default_rng(7))
        merged = apply_merge(MergeSpec(coefficient=1.0), base, [expert])
        for a, b in zip(all_tensors(merged), all_tensors(expert)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_matches_scalar_oracle(self, rng):
        base = make_checkpoint(rng)
        experts = [make_checkpoint(np.random.default_rng(s)) for s in (5, 6)]
        merged = apply_merge(MergeSpec(coefficient=0.3), base, experts)
        for idx, t in enumerate(all_tensors(merged)):
            b = list(all_tensors(base))[idx]
            es = [list(all_tensors(e))[idx] for e in experts]
            np.testing.assert_array_equal(t, task_arithmetic_scalar(b, es, 0.3))


class TestTies:
    def test_unanimous_full_density(self, rng):
        base = make_checkpoint(rng)
        tau = [t.copy() for t in all_tensors(make_checkpoint(np.random.default_rng(9)))]
        expert_tensors = [b + t for b, t in zip(all_tensors(base), tau)]
        expert = Checkpoint(
            layers=[
                LayerWeights(lw.id, expert_tensors[2 * i], expert_tensors[2 * i + 1])
                for i, lw in enumerate(base.layers)
            ],
            manifest=base.manifest,
        )
        merged = apply_merge(
            MergeSpec(method="ties", coefficient=0.4, density=1.0), base, [expert, expert, expert]
        )
        for got, b, t in zip(all_tensors(merged), all_tensors(base), tau):
            np.testing.assert_allclose(got, b + 0.4 * t, rtol=0, atol=1e-12)

    def test_sign_election_hand_case(self):
        # single 1x1 layer, three experts with entries +1, +3, -2:
        # elected sign +, disjoint mean = mean(1, 3) = 2
        manifest = ModelManifest(
            layers=(make_manifest(dims=(1, 1)).layers[0],)
        )
        base = Checkpoint(
            layers=[LayerWeights("layer1", np.zeros((1, 1)), np.zeros(1))], manifest=manifest
        )
        experts = [
            Checkpoint(
                layers=[LayerWeights("layer1", np.array([[v]]), np.zeros(1))],
                manifest=manifest,
            )
            for v in (1.0, 3.0, -2.0)
        ]
        merged = apply_merge(
            MergeSpec(method="ties", coefficient=1.0, density=1.0), base, experts
        )
        assert merged.layers[0].weight[0, 0] == 2.0

    def test_matches_literal_reference(self, rng):
        base = make_checkpoint(rng, dims=(4, 4, 4))
        experts = [make_checkpoint(np.random.default_rng(s), dims=(4, 4, 4)) for s in (11, 12, 13)]
        merged = apply_merge(
            MergeSpec(method="ties", coefficient=0.3, density=0.5), base, experts
        )
        for idx, got in enumerate(all_tensors(merged)):
            b = list(all_tensors(base))[idx]
            es = [list(all_tensors(e))[idx] for e in experts]
            expected = ties_reference(b, es, coefficient=0.3, density=0.5)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_magnitude_tie_break_keeps_lower_flat_index(self):
        manifest = make_manifest(dims=(4, 1))
        base = Checkpoint(
            layers=[LayerWeights("layer1", np.zeros((1, 4)), np.zeros(1))],
            manifest=ModelManifest(layers=manifest.layers[:1]),
        )
        tau = np.array([[1.0, -1.0, 1.0, -1.0]])
        expert = Checkpoint(
            layers=[LayerWeights("layer1", tau, np.zeros(1))], manifest=base.manifest
        )
        merged = apply_merge(
            MergeSpec(method="ties", coefficient=1.0, density=0.5), base, [expert]
        )
        np.testing.assert_array_equal(merged.layers[0].weight, [[1.0, -1.0, 0.0, 0.0]])

    def test_full_density_shared_signs_equals_mean_arithmetic(self, rng):
        base = make_checkpoint(rng, dims=(3, 3))
        taus = [np.abs(np.random.default_rng(s).normal(size=(3, 3))) + 0.1 for s in (1, 2)]
        bias_taus = [np.abs(np.random.default_rng(s + 10).normal(size=3)) + 0.1 for s in (1, 2)]
        experts = [
            Checkpoint(
                layers=[LayerWeights("layer1", base.layers[0].weight + t, base.layers[0].bias + bt)],
                manifest=base.manifest,
            )
            for t, bt in zip(taus, bias_taus)
        ]
        merged = apply_merge(
            MergeSpec(method="ties", coefficient=0.3, density=1.0), base, experts
        )
        expected_w = base.layers[0].weight + 0.3 * (taus[0] + taus[1]) / 2
        np.testing.assert_allclose(merged.layers[0].weight, expected_w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["average", "task_arithmetic", "ties"])
def test_apply_merge_needs_an_expert(rng, method):
    with pytest.raises(ValueError, match="at least one expert"):
        apply_merge(MergeSpec(method=method), make_checkpoint(rng), [])


def test_apply_merge_dispatch(rng):
    base = make_checkpoint(rng)
    experts = [make_checkpoint(np.random.default_rng(s)) for s in (1, 2)]
    for method in ("average", "task_arithmetic", "ties"):
        merged = apply_merge(MergeSpec(method=method), base, experts)
        assert merged.manifest == base.manifest
