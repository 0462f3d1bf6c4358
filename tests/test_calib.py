import re

import numpy as np
import pytest

import pmq.calib
from pmq.calib import (
    CalibSet,
    accumulate_stats,
    collect_layer_stats,
    load_calib_set,
    make_synthetic_tasks,
    save_calib_set,
)
from pmq.linalg import ShapeError, frobenius_sq
from pmq.model import Model, forward_to_layer
from pmq.quant import QuantConfig, rtn_quantize
from pmq.solver import build_epmq_statistics
from pmq.tensorfile import MalformedHeaderError

from oracles import train_expert_per_task


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
    """collect_layer_stats on every task forwarded from its inputs to the layer, as a list
    (the package's iterator is consumed once; tests read the curvatures more than once)."""
    acts = np.stack([forward_to_layer(model, x, layer_index) for x in calib.inputs])
    return list(collect_layer_stats(model, layer_index, acts))


class TestCalibSet:
    @pytest.mark.parametrize(
        "inputs, targets, message",
        [
            ((3, 4), None, r"task inputs must be a \(K>=1, rows, n>=1\) stack, got \(3, 4\)"),
            ((2, 3, 0), None, r"task inputs must be .*, got \(2, 3, 0\)"),
            ((0, 3, 4), None, r"task inputs must be .*, got \(0, 3, 4\)"),
            ((2, 3, 4), (3, 2, 4), r"targets \(3, 2, 4\) and inputs \(2, 3, 4\) differ in K"),
            ((2, 3, 4), (2, 2, 5), r"targets \(2, 2, 5\) and inputs \(2, 3, 4\) differ in K"),
            ((2, 3, 4), (2, 4), r"task targets must be .*, got \(2, 4\)"),
        ],
        ids=["2-d-inputs", "no-samples", "no-tasks", "targets-tasks", "targets-width",
             "2-d-targets"],
    )
    def test_shapes_checked(self, rng, inputs, targets, message):
        targets = None if targets is None else rng.normal(size=targets)
        with pytest.raises(ShapeError, match=message):
            CalibSet(rng.normal(size=inputs), targets)

    def test_inputs_are_one_read_only_stack(self, rng):
        given = rng.normal(size=(2, 3, 4))
        calib = CalibSet(given)
        assert calib.inputs.shape == (2, 3, 4) and not calib.inputs.flags.writeable
        assert calib.inputs.base is given and given.flags.writeable
        assert calib.targets is None and calib.num_tasks == 2

    def test_a_list_of_tasks_is_stacked(self, rng):
        tasks = [rng.normal(size=(3, 4)) for _ in range(2)]
        calib = CalibSet(tasks, [rng.normal(size=(2, 4)) for _ in range(2)])
        assert calib.inputs.shape == (2, 3, 4) and calib.targets.shape == (2, 2, 4)
        for t, x in enumerate(tasks):
            np.testing.assert_array_equal(calib.inputs[t], x)
            assert not np.shares_memory(x, calib.inputs)

    def test_tasks_of_other_row_counts_have_no_stack(self, rng):
        tasks = [rng.normal(size=(d, 4)) for d in (3, 5)]
        with pytest.raises(ShapeError, match="task inputs do not stack into one array"):
            CalibSet(tasks)

    def test_task_ids_must_cover_range(self):
        """Task t is position t - 1 of the stack, so an empty list of tasks is all
        that is left to refuse (an empty stack is a shape case above)."""
        with pytest.raises(ShapeError, match="K>=1"):
            CalibSet([])

    def test_ragged_batches_raise(self, rng):
        tasks = [rng.normal(size=(3, n)) for n in (4, 5)]
        with pytest.raises(ShapeError, match="task inputs do not stack into one array"):
            CalibSet(tasks)
        targets = [rng.normal(size=(2, n)) for n in (4, 5)]
        with pytest.raises(ShapeError, match="task targets do not stack into one array"):
            CalibSet(rng.normal(size=(2, 3, 4)), targets)

    def test_samples_per_task_is_the_batch_width(self, tmp_path, rng):
        calib = CalibSet(rng.normal(size=(1, 3, 5)))
        assert calib.samples_per_task == 5
        with pytest.raises(TypeError):
            CalibSet(calib.inputs, samples_per_task=7)
        save_calib_set(calib, tmp_path / "c")
        assert load_calib_set(tmp_path / "c").samples_per_task == 5

    def test_inputs_width_must_be_samples_per_task(self, tmp_path, rng):
        calib = CalibSet(rng.normal(size=(2, 2, 3)))
        save_calib_set(calib, tmp_path / "c")
        (tmp_path / "c" / "index.json").write_text('{"K": 2, "samples_per_task": 4}')
        path = tmp_path / "c" / "task1.safetensors"
        message = f"{path}: 3 samples, index.json has 4"
        with pytest.raises(MalformedHeaderError, match=re.escape(message)):
            load_calib_set(tmp_path / "c")

    def test_round_trip_files(self, tmp_path, rng):
        inputs, targets = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 2, 4))
        save_calib_set(CalibSet(inputs, targets, seed=9), tmp_path / "calib")
        loaded = load_calib_set(tmp_path / "calib")
        assert loaded.num_tasks == 2 and loaded.samples_per_task == 4 and loaded.seed == 9
        np.testing.assert_array_equal(loaded.inputs, inputs)
        np.testing.assert_array_equal(loaded.targets, targets)
        save_calib_set(CalibSet(inputs), tmp_path / "bare")
        assert load_calib_set(tmp_path / "bare").targets is None

    @pytest.mark.parametrize("with_targets", [False, True])
    def test_save_load_save_rewrites_the_same_bytes(self, tmp_path, with_targets):
        problem = small_problem(seed=11, num_tasks=3)
        calib = problem.heldout if with_targets else problem.calib
        save_calib_set(calib, tmp_path / "a")
        save_calib_set(load_calib_set(tmp_path / "a"), tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["index.json", "task1.safetensors", "task2.safetensors",
                         "task3.safetensors"]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_file_count_matches_tasks(self, tmp_path, rng):
        calib = CalibSet(rng.normal(size=(3, 2, 3)))
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
            ('{"K": 1, "samples_per_task": 3, "seed": "x"}', "seed must be integers"),
            ('{"K": Infinity, "samples_per_task": 3}', "K, samples_per_task"),
            ('{"K": 1.0, "samples_per_task": 3}', "must be integers"),
            ('{"K": 1, "samples_per_task": "3"}', "must be integers"),
            ('{"K": 1, "samples_per_task": 3, "seed": false}', "must be integers"),
        ],
    )
    def test_incomplete_index_is_malformed(self, tmp_path, rng, index, message):
        calib = CalibSet(rng.normal(size=(1, 2, 3)))
        save_calib_set(calib, tmp_path / "c")
        (tmp_path / "c" / "index.json").write_text(index)
        with pytest.raises(MalformedHeaderError, match=re.escape(message)):
            load_calib_set(tmp_path / "c")

    @pytest.mark.parametrize("k", [3, 10**12])
    def test_index_overstating_k_is_a_missing_file(self, tmp_path, rng, k):
        """K = 4104749 sized a 7.8 GiB stack before any task was read (MemoryError)."""
        save_calib_set(CalibSet(rng.normal(size=(2, 8, 32))), tmp_path / "c")
        (tmp_path / "c" / "index.json").write_text(f'{{"K": {k}, "samples_per_task": 32}}')
        with pytest.raises(FileNotFoundError, match=f"task{k}.safetensors: no such task file"):
            load_calib_set(tmp_path / "c")


class TestLayerStats:
    def test_layer_one_returns_raw_inputs_even_when_quantized(self):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        model.replace_layer(1, rtn_quantize(model.layers[0].weight, QuantConfig(solver="rtn")))
        hessians = layer_stats(model, problem.calib, 1)
        for x, h in zip(problem.calib.inputs, hessians, strict=True):
            np.testing.assert_array_equal(forward_to_layer(model, x, 1), x)
            np.testing.assert_array_equal(h, accumulate_stats(x))
            assert h.shape == (6, 6)

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
        from pmq.model import propagate_through_layer

        cache = propagate_through_layer(problem.calib.inputs, model.layers[0])
        cached = collect_layer_stats(model, 2, cache)
        fresh = layer_stats(model, problem.calib, 2)
        for hc, hf in zip(cached, fresh, strict=True):
            np.testing.assert_allclose(hc, hf, rtol=0, atol=1e-10)

    def test_trace_identity(self):
        # trace(H_i) is the activation energy ||X_i||_F^2
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        for ell in (1, 2):
            hessians = layer_stats(model, problem.calib, ell)
            for x, h in zip(problem.calib.inputs, hessians, strict=True):
                e = frobenius_sq(forward_to_layer(model, x, ell))
                assert abs(np.trace(h) - e) <= 1e-9 * max(1.0, abs(e))

    def test_psd_probe_vectors(self, rng):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        for h in layer_stats(model, problem.calib, 2):
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
        w = np.zeros((1, shape[0]))
        assert build_epmq_statistics([w], w, [h], 1.0)[2] == (1.0 / shape[0]) * (0.0 + e)
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
        bad_cache = np.zeros((2, 3, 4))
        with pytest.raises(ShapeError):
            collect_layer_stats(model, 1, bad_cache)


class TestAnchorLambda:
    def test_zero_alpha(self):
        problem = small_problem()
        model = Model.from_checkpoint(problem.base)
        ws = [lw.weight for lw in model.layers[:1]] * problem.calib.num_tasks
        hessians = layer_stats(model, problem.calib, 1)
        assert build_epmq_statistics(ws, ws[0], hessians, 0.0)[2] == 0.0

    def test_direct_arithmetic(self):
        # trace 8 per task: (0.1 / 4) * 16
        w = np.zeros((2, 4))
        lam = build_epmq_statistics([w, w], w, iter([2.0 * np.eye(4)] * 2), 0.1)[2]
        assert lam == pytest.approx(0.4, abs=1e-15)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            build_epmq_statistics([w, w], w, iter([2.0 * np.eye(4)] * 2), -0.1)

    def test_matches_trace_form(self):
        problem = small_problem(seed=3)
        model = Model.from_checkpoint(problem.base)
        hessians = layer_stats(model, problem.calib, 2)
        ws = [model.layers[1].weight] * len(hessians)
        lam = build_epmq_statistics(ws, ws[0], iter(hessians), 0.7)[2]
        trace_form = 0.7 / len(hessians[0]) * np.trace(sum(hessians))
        assert abs(lam - trace_form) <= 1e-9 * max(1.0, abs(trace_form))


class TestSyntheticTasks:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": 1e308}, "expert 1: layer1.weight is not finite"),
            ({"train_steps": 0, "teacher_scale": 1e300}, "held-out targets of task 1 are not"),
        ],
    )
    def test_non_finite_problem_raises(self, kwargs, message):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            small_problem(**kwargs)

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
        assert p1.calib.inputs.tobytes() == p2.calib.inputs.tobytes()
        assert p1.heldout.targets.tobytes() == p2.heldout.targets.tobytes()

    def test_calib_and_heldout_disjoint(self):
        problem = small_problem(seed=8)
        for x_cal, x_held in zip(problem.calib.inputs, problem.heldout.inputs, strict=True):
            assert x_cal.shape[1] == 24 and x_held.shape[1] == 24
            # disjoint draws: no shared columns
            shared = set(map(tuple, x_cal.T)) & set(map(tuple, x_held.T))
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

    @pytest.mark.parametrize("steps", [0, 5])
    @pytest.mark.parametrize("num_tasks", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_stacked_trainer_equals_per_task_oracle(self, rng, activation, num_tasks, steps):
        base = small_problem(seed=6, hidden_activation=activation, train_steps=0).base
        # at 64 samples a product against an uncopied transposed view changes bits
        inputs = rng.normal(size=(num_tasks, 6, 64))
        targets = rng.normal(size=(num_tasks, 5, 64))
        stacked = pmq.calib._train_experts(base, inputs, targets, steps, 0.1)
        assert len(stacked) == num_tasks
        for expert, x, y in zip(stacked, inputs, targets):
            want = train_expert_per_task(base, x, y, steps, 0.1)
            for got_layer, want_layer in zip(expert.layers, want.layers):
                assert got_layer.weight.tobytes() == want_layer.weight.tobytes()
                assert got_layer.bias.tobytes() == want_layer.bias.tobytes()

    def test_both_expert_modes_draw_the_same_data(self):
        """Training draws nothing, so the modes share one random stream and one data set."""
        perturb = small_problem(seed=4, expert_mode="perturb")
        train = small_problem(seed=4, expert_mode="train")
        for a, b in ((perturb.calib, train.calib), (perturb.heldout, train.heldout)):
            assert a.inputs.tobytes() == b.inputs.tobytes()
            if a.targets is not None:
                assert a.targets.tobytes() == b.targets.tobytes()
