import re

import numpy as np
import pytest

import pmq.calib
from pmq.calib import (
    CalibSet,
    LayerCalibStats,
    accumulate_stats,
    anchor_lambda,
    collect_layer_stats,
    load_calib_set,
    make_synthetic_tasks,
    save_calib_set,
)
from pmq.linalg import ShapeError, frobenius_sq
from pmq.model import Batch, Model, forward_to_layer
from pmq.quant import QuantConfig, rtn_quantize
from pmq.tensorfile import MalformedHeaderError


def small_problem(seed=0, **kwargs):
    defaults = dict(
        num_tasks=2,
        dims=[6, 8, 5],
        samples_per_task=24,
        heldout_samples=24,
        train_samples=48,
        train_steps=20,
    )
    defaults.update(kwargs)
    return make_synthetic_tasks(seed, **defaults)


def layer_stats(model, calib, layer_index):
    """collect_layer_stats on every task forwarded from its inputs to the layer."""
    acts = {b.task_id: forward_to_layer(model, b.inputs, layer_index) for b in calib.batches}
    return collect_layer_stats(model, layer_index, acts)


class TestCalibSet:
    def test_task_ids_must_cover_range(self, rng):
        batches = [Batch(rng.normal(size=(3, 4)), task_id=2)]
        with pytest.raises(ValueError):
            CalibSet(batches=batches, samples_per_task=4)
        with pytest.raises(ValueError, match="K >= 1"):
            CalibSet(batches=[], samples_per_task=4)

    def test_round_trip_files(self, tmp_path, rng):
        batches = [
            Batch(rng.normal(size=(3, 4)), task_id=1),
            Batch(rng.normal(size=(3, 4)), task_id=2, targets=rng.normal(size=(2, 4))),
        ]
        calib = CalibSet(batches=batches, samples_per_task=4, seed=9)
        save_calib_set(calib, tmp_path / "calib")
        loaded = load_calib_set(tmp_path / "calib")
        assert loaded.num_tasks == 2 and loaded.samples_per_task == 4 and loaded.seed == 9
        np.testing.assert_array_equal(loaded.task(1).inputs, batches[0].inputs)
        np.testing.assert_array_equal(loaded.task(2).targets, batches[1].targets)
        assert loaded.task(1).targets is None

    def test_file_count_matches_tasks(self, tmp_path, rng):
        calib = CalibSet(
            batches=[Batch(rng.normal(size=(2, 3)), task_id=i) for i in (1, 2, 3)],
            samples_per_task=3,
        )
        save_calib_set(calib, tmp_path / "c")
        files = sorted(p.name for p in (tmp_path / "c").glob("task*.safetensors"))
        assert files == ["task1.safetensors", "task2.safetensors", "task3.safetensors"]


    @pytest.mark.parametrize(
        "index, message",
        [
            ('{"samples_per_task": 4}', "KeyError('K')"),
            ('{"K": 2}', "KeyError('samples_per_task')"),
            ("{K:", "JSONDecodeError"),
            ("[]", "TypeError"),
            ('{"K": 0, "samples_per_task": 4}', "K=0, need K >= 1"),
        ],
    )
    def test_incomplete_index_is_malformed(self, tmp_path, rng, index, message):
        calib = CalibSet(batches=[Batch(rng.normal(size=(2, 3)), task_id=1)], samples_per_task=3)
        save_calib_set(calib, tmp_path / "c")
        (tmp_path / "c" / "index.json").write_text(index)
        with pytest.raises(MalformedHeaderError, match=re.escape(message)):
            load_calib_set(tmp_path / "c")


class TestLayerStats:
    def test_layer_one_returns_raw_inputs_even_when_quantized(self):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        stats = layer_stats(model, problem.calib, 1)
        for batch, h in zip(problem.calib.batches, stats.hessians):
            np.testing.assert_array_equal(forward_to_layer(model, batch.inputs, 1), batch.inputs)
            np.testing.assert_array_equal(h, accumulate_stats(batch.inputs))
        assert stats.d == 6

    def test_single_sample_rank_one(self, rng):
        x = rng.normal(size=(5, 1))
        h = accumulate_stats(x)
        np.testing.assert_allclose(h, x @ x.T, rtol=0, atol=1e-12)
        assert abs(np.trace(h) - float(x.ravel() @ x.ravel())) < 1e-12
        assert np.linalg.matrix_rank(h) == 1

    def test_incremental_cache_equals_full_rerun(self):
        problem = small_problem(dims=[6, 8, 7, 5], train_steps=10)
        model = Model.from_checkpoint(problem.base)
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        cache = {b.task_id: b.inputs for b in problem.calib.batches}
        from pmq.model import propagate_through_layer

        cache = {t: propagate_through_layer(x, model.layers[0]) for t, x in cache.items()}
        stats_cached = collect_layer_stats(model, 2, cache)
        stats_fresh = layer_stats(model, problem.calib, 2)
        for hc, hf in zip(stats_cached.hessians, stats_fresh.hessians):
            np.testing.assert_allclose(hc, hf, rtol=0, atol=1e-10)

    def test_trace_identity(self):
        # trace(H_i) is the activation energy ||X_i||_F^2
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        for ell in (1, 2):
            stats = layer_stats(model, problem.calib, ell)
            for batch, h in zip(problem.calib.batches, stats.hessians):
                e = frobenius_sq(forward_to_layer(model, batch.inputs, ell))
                assert abs(np.trace(h) - e) <= 1e-9 * max(1.0, abs(e))

    def test_psd_probe_vectors(self, rng):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        stats = layer_stats(model, problem.calib, 2)
        for h in stats.hessians:
            tr = np.trace(h)
            for _ in range(50):
                v = rng.normal(size=h.shape[0])
                assert v @ h @ v >= -1e-8 * (v @ v) * tr

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    def test_equals_gram_matrix(self, rng, n):
        x = rng.normal(size=(7, n))
        h = accumulate_stats(x)
        np.testing.assert_allclose(h, x @ x.T, rtol=0, atol=1e-12 * n)
        e = float(np.trace(h))
        assert abs(e - float(x.ravel() @ x.ravel())) <= 1e-12 * max(1.0, e)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 33), (48, 256)])
    def test_energy_is_the_trace_of_h(self, rng, shape):
        # the anchor reads the energy off H; it is ||X||_F^2 to rounding
        x = rng.normal(size=shape)
        h = accumulate_stats(x)
        e = float(np.trace(h))
        stats = LayerCalibStats(hessians=[h], d=shape[0])
        assert anchor_lambda(stats, 1.0) == (1.0 / shape[0]) * (0.0 + e)
        assert abs(e - frobenius_sq(x)) <= 1e-13 * e

    def test_overflowing_energy_raises(self):
        # every H_jj is finite, their sum is not
        x = np.full((4, 1), 1e154)
        with pytest.raises(FloatingPointError, match="overflowed"):
            accumulate_stats(x)

    def test_column_slice_gives_the_h_of_its_contiguous_copy(self, rng):
        x = rng.normal(size=(48, 300))[:, 7:263]
        assert not x.flags["C_CONTIGUOUS"]
        h = accumulate_stats(x)
        np.testing.assert_array_equal(h, accumulate_stats(np.ascontiguousarray(x)))
        np.testing.assert_array_equal(h, h.T)

    def test_cache_shape_drift_detected(self):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        bad_cache = {1: np.zeros((3, 4)), 2: np.zeros((3, 4))}
        with pytest.raises(ShapeError):
            collect_layer_stats(model, 1, bad_cache)


class TestAnchorLambda:
    def test_zero_alpha(self):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        stats = layer_stats(model, problem.calib, 1)
        assert anchor_lambda(stats, 0.0) == 0.0

    def test_direct_arithmetic(self):
        # trace 8 per task: (0.1 / 4) * 16
        stats = LayerCalibStats(hessians=[2.0 * np.eye(4), 2.0 * np.eye(4)], d=4)
        assert anchor_lambda(stats, 0.1) == pytest.approx(0.4, abs=1e-15)

    def test_matches_trace_form(self):
        problem = small_problem(seed=3)
        model = Model.from_checkpoint(problem.base)
        stats = layer_stats(model, problem.calib, 2)
        lam = anchor_lambda(stats, 0.7)
        trace_form = 0.7 / stats.d * np.trace(stats.pooled_hessian())
        assert abs(lam - trace_form) <= 1e-9 * max(1.0, abs(trace_form))


class TestSyntheticTasks:
    def test_zero_steps_expert_equals_base(self):
        problem = small_problem(train_steps=0, num_tasks=1)
        for lw_e, lw_b in zip(problem.experts[0].layers, problem.base.layers):
            np.testing.assert_array_equal(lw_e.weight, lw_b.weight)
            np.testing.assert_array_equal(lw_e.bias, lw_b.bias)

    def test_same_seed_bit_identical(self):
        p1 = small_problem(seed=5)
        p2 = small_problem(seed=5)
        for a, b in zip(p1.experts, p2.experts):
            for la, lb in zip(a.layers, b.layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
        for ba, bb in zip(p1.calib.batches, p2.calib.batches):
            assert ba.inputs.tobytes() == bb.inputs.tobytes()
        for ba, bb in zip(p1.heldout.batches, p2.heldout.batches):
            assert ba.targets.tobytes() == bb.targets.tobytes()

    def test_calib_and_heldout_disjoint(self):
        problem = small_problem(seed=8)
        for b_cal, b_held in zip(problem.calib.batches, problem.heldout.batches):
            assert b_cal.inputs.shape[1] == 24 and b_held.inputs.shape[1] == 24
            # disjoint draws: no shared columns
            shared = set(map(tuple, b_cal.inputs.T)) & set(map(tuple, b_held.inputs.T))
            assert not shared

    def test_experts_beat_base_on_own_task(self):
        # generator sanity bound fixed from a 40-seed pilot run (40/40)
        from pmq.pipeline import evaluate

        wins = 0
        seeds = range(40)
        for seed in seeds:
            problem = make_synthetic_tasks(
                seed,
                num_tasks=2,
                dims=[8, 12, 10, 6],
                samples_per_task=16,
                heldout_samples=64,
                train_samples=128,
                train_steps=100,
            )
            base_eval = evaluate(Model.from_checkpoint(problem.base), problem.heldout)
            ok = True
            for idx, expert in enumerate(problem.experts, start=1):
                ev = evaluate(Model.from_checkpoint(expert), problem.heldout)
                ok = ok and ev.per_task_mse[idx] < base_eval.per_task_mse[idx]
            wins += ok
        assert wins >= 38  # >= 95% of 40 seeds

    def test_perturb_mode_fast_path(self):
        problem = small_problem(expert_mode="perturb", train_steps=0)
        for lw_e, lw_b in zip(problem.experts[0].layers, problem.base.layers):
            assert not np.array_equal(lw_e.weight, lw_b.weight)

    @pytest.mark.parametrize("mode, per_task", [("perturb", 1), ("train", 2)])
    def test_teacher_forwards_only_what_is_used(self, monkeypatch, mode, per_task):
        """A perturb-mode expert is its teacher, so only the held-out targets need a forward."""
        calls = []
        real = pmq.calib.forward

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(pmq.calib, "forward", counted)
        small_problem(expert_mode=mode, num_tasks=3)
        assert len(calls) == per_task * 3

    def test_both_expert_modes_draw_the_same_data(self):
        """Training draws nothing, so the modes share one random stream and one data set."""
        perturb = small_problem(seed=4, expert_mode="perturb")
        train = small_problem(seed=4, expert_mode="train")
        for a, b in zip(
            [*perturb.calib.batches, *perturb.heldout.batches],
            [*train.calib.batches, *train.heldout.batches],
        ):
            assert a.inputs.tobytes() == b.inputs.tobytes()
            if a.targets is not None:
                assert a.targets.tobytes() == b.targets.tobytes()
