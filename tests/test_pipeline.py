import dataclasses
import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmq.calib
import pmq.linalg
import pmq.pipeline
import pmq.solver
from pmq.calib import CalibSet, make_synthetic_tasks
from pmq.checkpoint import Checkpoint, Layer
from pmq.linalg import ShapeError
from pmq.merge import MergeSpec, apply_merge
from pmq.model import EMPTY_PREFIX, Model, chain_link, forward, forward_to_layer
from pmq.pipeline import (
    ConfigError,
    deviation_diagnostics,
    evaluate,
    quantize,
    run_epmq,
    run_to_json_dict,
)
from pmq.quant import QuantConfig, QuantizedLayer, rtn_quantize
from pmq.solver import epmq_objective, solve_layer

from oracles import (
    deviation_rows_from_scratch,
    mse_reference,
    quantize_from_scratch,
    traced_peak,
)
from test_calib import layer_stats, small_problem


def merged_problem(seed=0, **kwargs):
    problem = small_problem(seed=seed, **kwargs)
    merged = apply_merge(MergeSpec(), problem.base, problem.experts)
    return problem, merged


def run_method(problem, merged, method):
    """One run per route: epmq, gptq or rtn."""
    if method == "epmq":
        cfg = QuantConfig(bits=3, group_size=8, solver="epmq", alpha=0.01)
        return run_epmq(merged, problem.experts, problem.calib, cfg)
    return quantize(
        merged, problem.experts, problem.calib, QuantConfig(bits=3, group_size=8, solver=method)
    )


def scaled_heldout(heldout, factor):
    return CalibSet(heldout.inputs * factor, heldout.targets)


def prefix_chain(layers):
    return functools.reduce(chain_link, layers, EMPTY_PREFIX).hex()


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestRunEpmq:
    def test_single_layer_anchor_dominant_equals_rtn(self, rng):
        problem = small_problem(seed=2, dims=[6, 4], num_tasks=1, train_steps=0)
        merged = problem.base  # K=1, expert == base == merged
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=1e8)
        run = run_epmq(merged, problem.experts, problem.calib, cfg)
        rtn = rtn_quantize(merged.layers[0].weight, cfg)
        np.testing.assert_array_equal(run.model.layers[0].source.codes, rtn.codes)

    def test_layer2_inputs_follow_partially_quantized_trajectory(self):
        problem, merged = merged_problem(seed=3, dims=[6, 8, 5])
        cfg = QuantConfig(bits=3, group_size=8, solver="epmq", alpha=0.01)
        run = run_epmq(merged, problem.experts, problem.calib, cfg)
        # re-create the state right before layer 2 was replaced: only layer 1 quantized
        partial = Model.from_checkpoint(merged)
        partial.replace_layer(1, run.model.layers[0].source)
        stats = layer_stats(partial, problem.calib, 2)
        redo = solve_layer(
            [e.layers[1].weight for e in problem.experts],
            merged.layers[1].weight,
            stats,
            cfg,
        )
        np.testing.assert_array_equal(redo.quantized.codes, run.model.layers[1].source.codes)
        assert redo.objective == pytest.approx(run.layer_reports[1].objective, rel=1e-12)

    def test_objective_recomputation_from_emitted_model(self):
        problem, merged = merged_problem(seed=4, dims=[6, 8, 7, 5], num_tasks=2)
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.01)
        run = run_epmq(merged, problem.experts, problem.calib, cfg)
        total = 0.0
        for ell in range(1, run.model.num_layers + 1):
            stats_hessians = []
            q = run.model.layers[ell - 1].weight
            lam = run.layer_reports[ell - 1].lam
            obj = 0.0
            for inputs, expert in zip(problem.calib.inputs, problem.experts, strict=True):
                x = forward_to_layer(run.model, inputs, ell)
                w_i = expert.layers[ell - 1].weight
                diff = q @ x - w_i @ x
                obj += float(np.sum(diff * diff))
            obj += lam * float(np.sum((q - merged.layers[ell - 1].weight) ** 2))
            total += obj
            assert obj == pytest.approx(run.layer_reports[ell - 1].objective, rel=1e-8)
        assert total == pytest.approx(run.total_objective(), rel=1e-8)

    def test_determinism_byte_identical(self, tmp_path):
        from pmq.model import save_model

        paths = []
        for run_idx in (0, 1):
            problem, merged = merged_problem(seed=6)
            cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.01)
            run = run_epmq(merged, problem.experts, problem.calib, cfg)
            path = tmp_path / f"q{run_idx}.safetensors"
            save_model(run.model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_solver_must_be_epmq(self):
        problem, merged = merged_problem(seed=0)
        with pytest.raises(ValueError):
            run_epmq(merged, problem.experts, problem.calib, QuantConfig(solver="gptq"))

    def test_layer_failure_names_layer(self):
        problem, merged = merged_problem(seed=0)
        bad_calib = CalibSet(np.full_like(problem.calib.inputs, 1e200))
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.01)
        with np.errstate(all="ignore"), pytest.raises(Exception, match="layer"):
            run_epmq(merged, problem.experts, bad_calib, cfg)


class TestRealizedWeights:
    @pytest.mark.parametrize("method", ["epmq", "gptq", "rtn"])
    def test_installed_weight_is_the_solver_values(self, method):
        problem, merged = merged_problem(seed=5, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, method)
        for layer, rep in zip(run.model.layers, run.layer_reports):
            assert layer.weight is rep.quantized.weight
            assert layer.weight.tobytes() == layer.source.dequantize().tobytes()

    def test_epmq_run_scores_without_objective_gemms(self, monkeypatch):
        """Each epmq layer makes K products W_i H_i and no other (d_out, d) x (d, d)
        GEMM: no objective, and no residual while the probe does not refine."""
        problem, merged = merged_problem(seed=5, dims=[6, 8, 7, 5])
        quadratic = counting(monkeypatch, pmq.solver, "quadratic_objective")
        anchored = counting(monkeypatch, pmq.solver, "epmq_objective")
        products = counting(monkeypatch, pmq.solver, "matmul")
        run = run_method(problem, merged, "epmq")
        assert quadratic == [] and anchored == []
        experts = [e.layers[i].weight for i in range(run.model.num_layers) for e in problem.experts]
        assert len(products) == len(experts)
        assert all(a is w for (a, _), w in zip(products, experts))

    def test_epmq_run_never_dequantizes_nor_squares_activations(self, monkeypatch):
        """An epmq quantize (and the evaluation after it) reads every realized weight
        from its solver, and the anchor takes the energy from trace(H), not from a
        second pass of frobenius_sq over X."""
        problem, merged = merged_problem(seed=5, dims=[6, 8, 7, 5])
        dequantized = counting(monkeypatch, QuantizedLayer, "dequantize")
        in_stats = [0]
        squared = []  # per frobenius_sq call: was accumulate_stats running?
        real_stats = pmq.calib.accumulate_stats

        def stats_spy(x):
            in_stats[0] += 1
            try:
                return real_stats(x)
            finally:
                in_stats[0] -= 1

        monkeypatch.setattr(pmq.calib, "accumulate_stats", stats_spy)
        for module in (pmq.linalg, pmq.calib, pmq.solver):
            if hasattr(module, "frobenius_sq"):
                real = module.frobenius_sq

                def frobenius_spy(a, _real=real):
                    squared.append(in_stats[0] > 0)
                    return _real(a)

                monkeypatch.setattr(module, "frobenius_sq", frobenius_spy)
        stats_calls = counting(monkeypatch, pmq.calib, "accumulate_stats")
        run = run_method(problem, merged, "epmq")
        evaluate(run.model, problem.heldout)
        deviation_diagnostics(run, problem.heldout)
        assert len(stats_calls) == 3 * problem.calib.num_tasks
        assert squared and not any(squared)  # the solver's own calls were seen
        assert dequantized == []


class TestRunNaivePtq:
    def test_rtn_ignores_calibration(self):
        problem, merged = merged_problem(seed=7)
        cfg = QuantConfig(bits=4, group_size=8, solver="rtn")
        run_with = quantize(merged, [], problem.calib, cfg)
        run_without = quantize(merged, [], None, cfg)
        for la, lb in zip(run_with.model.layers, run_without.model.layers):
            np.testing.assert_array_equal(la.source.codes, lb.source.codes)
        assert run_with.layer_reports[0].objective is not None
        assert run_without.layer_reports[0].objective is None

    def test_gptq_huge_damping_matches_rtn_codes(self):
        # overwhelming diagonal damping: compensation terms vanish
        problem, merged = merged_problem(seed=8, dims=[6, 5])
        cfg = QuantConfig(bits=4, group_size=8, solver="gptq", percdamp=1e6)
        run_g = quantize(merged, [], problem.calib, cfg)
        rtn = rtn_quantize(merged.layers[0].weight, cfg)
        agreement = np.mean(run_g.model.layers[0].source.codes == rtn.codes)
        assert agreement >= 0.99

    def test_gptq_beats_rtn_reconstruction_per_layer(self):
        better, total = 0, 0
        for seed in range(20):
            problem, merged = merged_problem(
                seed=seed, dims=[8, 12, 10, 6], samples_per_task=32, train_steps=40
            )
            cfg_g = QuantConfig(bits=3, solver="gptq")
            cfg_r = QuantConfig(bits=3, solver="rtn")
            run_g = quantize(merged, [], problem.calib, cfg_g)
            run_r = quantize(merged, [], problem.calib, cfg_r)
            for rep_g, rep_r in zip(run_g.layer_reports, run_r.layer_reports):
                total += 1
                better += rep_g.objective <= rep_r.objective
        assert better >= 0.95 * total


class TestDeviationDiagnostics:
    def test_unquantized_model_zero_quant_deviation(self):
        problem, merged = merged_problem(seed=10, dims=[6, 5])
        # snap weights onto their own 8-bit grid so quantization is exact
        cfg = QuantConfig(bits=8, group_size=8, solver="rtn")
        snapped_layers = []
        for lw in merged.layers:
            snapped = rtn_quantize(lw.weight, cfg).dequantize()
            snapped_layers.append(Layer(lw.spec, snapped, lw.bias))
        snapped_ckpt = Checkpoint(layers=snapped_layers, manifest=merged.manifest)
        run = quantize(snapped_ckpt, problem.experts, problem.calib, cfg)
        report = deviation_diagnostics(run, problem.heldout)
        for row in report.rows:
            assert row.quant_norm == 0.0
            assert row.combined_norm == pytest.approx(row.merge_norm, rel=1e-12)

    def test_single_expert_equal_to_merged_zero_merge_deviation(self):
        problem = small_problem(seed=11, num_tasks=1, train_steps=0)
        merged = problem.base
        cfg = QuantConfig(bits=4, group_size=8, solver="rtn")
        run = quantize(merged, problem.experts, problem.calib, cfg)
        report = deviation_diagnostics(run, problem.heldout)
        for row in report.rows:
            assert row.merge_norm == 0.0
            assert row.combined_norm == pytest.approx(row.quant_norm, rel=1e-12)

    def test_triangle_inequality_and_identity(self):
        problem, merged = merged_problem(seed=12)
        cfg = QuantConfig(bits=3, group_size=8, solver="epmq", alpha=0.01)
        run = run_epmq(merged, problem.experts, problem.calib, cfg)
        report = deviation_diagnostics(run, problem.heldout)
        assert report.rows
        for row in report.rows:
            assert row.combined_norm <= row.quant_norm + row.merge_norm + 1e-12
        assert report.max_identity_error() <= 1e-9


    @pytest.mark.parametrize("method", ["epmq", "gptq", "rtn"])
    def test_one_pass_rows_equal_from_scratch_oracle(self, method):
        problem, merged = merged_problem(seed=17, dims=[6] * 10, num_tasks=3)
        run = run_method(problem, merged, method)
        report = deviation_diagnostics(run, problem.heldout)
        assert len(report.rows) == 9 * 3
        assert report.rows == deviation_rows_from_scratch(run, problem.heldout)

    @pytest.mark.parametrize("chunk", [1, 300])
    def test_task_panels_give_the_rows_of_one_panel(self, monkeypatch, chunk):
        """Panels of 1 and of 2 tasks (the last one short) for K=5 and 6 x 24 outputs."""
        problem, merged = merged_problem(seed=17, dims=[6] * 4, num_tasks=5)
        run = run_method(problem, merged, "epmq")
        whole = deviation_diagnostics(run, problem.heldout).rows
        monkeypatch.setattr(pmq.pipeline, "CHUNK_ELEMENTS", chunk)
        panels = counting(monkeypatch, np, "square")
        assert deviation_diagnostics(run, problem.heldout).rows == whole
        assert whole == deviation_rows_from_scratch(run, problem.heldout)
        # per layer, last to first, one square per panel of the combined deviations but the
        # first, then one over Q X, W_i X_i and the first panel, in one buffer
        per_layer = [1] * 4 + [11] if chunk == 1 else [1, 2, 12]
        assert [args[0].shape[0] for args in panels] == per_layer * run.model.num_layers

    def test_walks_one_task_stack(self, monkeypatch):
        """One (K, d, n) stack per layer; only W_i X_i is formed task by task."""
        problem, merged = merged_problem(seed=18, dims=[6] * 10, num_tasks=3)
        run = run_method(problem, merged, "epmq")
        propagations = counting(monkeypatch, pmq.pipeline, "propagate_through_layer")
        activations = counting(monkeypatch, pmq.pipeline, "apply_activation")
        products = counting(monkeypatch, np, "matmul")
        deviation_diagnostics(run, problem.heldout)
        layers = run.model.num_layers
        assert [x.shape for _, x in activations] == [(3, 6, 24)] * (layers - 1)
        # per layer: Q X and W_m X over the stack, then W_i X_i task by task
        per_layer = [(3, 6, 24)] * 2 + [(6, 24)] * 3
        assert [x.shape for _, x in products] == per_layer * layers
        assert propagations == []

    @pytest.mark.parametrize("num_tasks", [1, 4])
    def test_stacked_walks_equal_per_task_ones_at_one_sample(self, num_tasks):
        problem = small_problem(
            seed=25, num_tasks=num_tasks, heldout_samples=1, hidden_activation="gelu"
        )
        merged = apply_merge(MergeSpec(), problem.base, problem.experts)
        run = run_method(problem, merged, "epmq")
        result = evaluate(run.model, problem.heldout)
        assert result.per_task_mse == {
            t: float(np.mean((forward(run.model, x) - y) ** 2))
            for t, (x, y) in enumerate(zip(problem.heldout.inputs, problem.heldout.targets), 1)
        }
        report = deviation_diagnostics(run, problem.heldout)
        assert report.rows == deviation_rows_from_scratch(run, problem.heldout)

    def test_bias_free_identity_hidden_layer_keeps_its_inputs(self):
        # identity returns its argument, so the next layer's input must not be
        # the Q X buffer the deviations are formed in
        problem = small_problem(
            seed=26,
            num_tasks=3,
            dims=[6, 8, 7, 5],
            hidden_activation="identity",
            expert_mode="perturb",
        )
        manifest = dataclasses.replace(
            problem.base.manifest,
            layers=[dataclasses.replace(s, has_bias=False) for s in problem.base.manifest.layers],
        )

        def bias_free(ckpt):
            layers = [Layer(spec, lw.weight) for spec, lw in zip(manifest.layers, ckpt.layers)]
            return Checkpoint(layers=layers, manifest=manifest)

        experts = [bias_free(e) for e in problem.experts]
        merged = apply_merge(MergeSpec(), bias_free(problem.base), experts)
        problem = dataclasses.replace(problem, experts=experts)
        run = run_method(problem, merged, "epmq")
        assert all(layer.bias is None for layer in run.model.layers)
        report = deviation_diagnostics(run, problem.heldout)
        assert report.rows == deviation_rows_from_scratch(run, problem.heldout)

    def test_identity_violation_names_first_layer_major_row(self, monkeypatch):
        problem, merged = merged_problem(seed=19, dims=[6, 8, 5])
        run = run_method(problem, merged, "epmq")
        monkeypatch.setattr(pmq.pipeline, "IDENTITY_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="layer 'layer1' task 1: deviation decomposition"):
            deviation_diagnostics(run, problem.heldout)

    @pytest.mark.parametrize("factor", [1e7, 1e9])
    def test_identity_tolerance_follows_the_scale_of_the_outputs(self, factor):
        """Inputs 1e7 and 1e9 times the generator's: the gaps grow with the outputs
        (past the absolute 1e-9 at 1e9) and a correct decomposition still passes."""
        problem, merged = merged_problem(seed=19, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, "epmq")
        heldout = scaled_heldout(problem.heldout, factor)
        report = deviation_diagnostics(run, heldout)
        assert len(report.rows) == 3 * heldout.num_tasks
        assert report.max_identity_error() > (pmq.pipeline.IDENTITY_TOL if factor > 1e8 else 0)

    def test_corrupted_decomposition_at_scale_still_raises(self, monkeypatch):
        problem, merged = merged_problem(seed=19, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, "epmq")
        heldout = scaled_heldout(problem.heldout, 1e7)

        class Corrupting:
            """numpy, except that the quant deviation Q X - W_m X (formed in place
            over Q X) is off by 1e-6 of max|Q X| in one entry per task."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def subtract(a, b, out=None):
                peak = np.abs(a).max()
                result = np.subtract(a, b, out=out)
                if out is a:
                    result[:, 0, 0] += 1e-6 * peak
                return result

        monkeypatch.setattr(pmq.pipeline, "np", Corrupting())
        with pytest.raises(ArithmeticError, match="layer 'layer1' task 1: deviation decomposition"):
            deviation_diagnostics(run, heldout)

    def test_identity_check_after_the_walk_names_the_first_failing_layer(self, monkeypatch):
        problem, merged = merged_problem(seed=19, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, "epmq")
        quant_deviations = []

        class Corrupting:
            """numpy, except that the quant deviation Q X - W_m X (formed in place
            over Q X) is off by 1 in layer 2 task 2 and in layer 3 task 1."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def subtract(a, b, out=None):
                result = np.subtract(a, b, out=out)
                if out is a:
                    quant_deviations.append(result)
                    corrupt = {2: 1, 3: 0}.get(len(quant_deviations))
                    if corrupt is not None:
                        result[corrupt, 0, 0] += 1.0
                return result

        monkeypatch.setattr(pmq.pipeline, "np", Corrupting())
        with pytest.raises(ArithmeticError, match="layer 'layer2' task 2: deviation decomposition"):
            deviation_diagnostics(run, problem.heldout)
        assert len(quant_deviations) == 3  # the check ran after the whole walk

    @pytest.mark.parametrize("stale", ["merged", "expert"])
    def test_checkpoints_not_sharing_the_model_manifest_are_a_config_error(self, stale):
        problem, merged = merged_problem(seed=19, dims=[6, 8, 5])
        run = run_method(problem, merged, "epmq")
        other, other_merged = merged_problem(seed=19, dims=[6, 7, 5])
        if stale == "merged":
            run.merged, message = other_merged, "merged checkpoint"
        else:
            run.experts[1], message = other.experts[1], "expert 2"
        with pytest.raises(ConfigError, match=f"{message} does not share the quantized model"):
            deviation_diagnostics(run, problem.heldout)

    def test_inputs_not_fitting_layer_one_are_a_config_error(self):
        problem, merged = merged_problem(seed=19, dims=[6, 8, 5])
        run = run_method(problem, merged, "epmq")
        heldout = CalibSet(problem.heldout.inputs[:, :5], problem.heldout.targets)
        with pytest.raises(ConfigError, match="held-out inputs have 5 rows, layer 1 has d_in=6"):
            deviation_diagnostics(run, heldout)

    @pytest.mark.parametrize("name", ["calibration", "held-out"])
    def test_tasks_of_other_row_counts_have_no_stack(self, name):
        """A set of such tasks is refused when it is built, before quantize or
        evaluate could read it."""
        problem = small_problem(seed=19, dims=[6, 8, 5])
        data = problem.calib if name == "calibration" else problem.heldout
        first, second = data.inputs
        with pytest.raises(ShapeError, match="task inputs do not stack into one array"):
            CalibSet([first, second[:5]], data.targets)

    def test_no_stage_stacks_the_task_inputs(self, monkeypatch):
        """quantize, evaluate and the diagnostics read each set's stack in place."""
        problem, merged = merged_problem(seed=19, dims=[6, 8, 5])
        stacks = counting(monkeypatch, np, "stack")
        run = run_method(problem, merged, "epmq")
        evaluate(run.model, problem.heldout)
        deviation_diagnostics(run, problem.heldout)
        task_inputs = [problem.calib.inputs, problem.heldout.inputs]
        assert not [
            a
            for (arrays, *_) in stacks
            for a in arrays
            if any(np.shares_memory(a, x) for x in task_inputs)
        ]


class TestActivationCache:
    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dims=st.lists(st.integers(3, 9), min_size=2, max_size=5),
        method=st.sampled_from(["epmq", "gptq", "rtn"]),
    )
    def test_pipeline_equals_from_scratch_oracle(self, seed, dims, method):
        problem, merged = merged_problem(seed=seed, dims=dims)
        run = run_method(problem, merged, method)
        model, reports = quantize_from_scratch(merged, problem.experts, problem.calib, run.cfg)
        for got, want in zip(run.model.layers, model.layers):
            assert (got.source.codes == want.source.codes).all()
        assert [rep.to_json_dict() for rep in run.layer_reports] == [
            rep.to_json_dict() for rep in reports
        ]

    @pytest.mark.parametrize("num_tasks", [1, 3])
    def test_propagates_one_task_stack_per_layer(self, monkeypatch, num_tasks):
        """L - 1 propagations per run whatever K is; the first takes the calibration
        set's own (K, d, n) stack, so no copy of the task inputs is made before it."""
        problem, merged = merged_problem(seed=26, dims=[6, 8, 7, 5], num_tasks=num_tasks)
        propagations = counting(monkeypatch, pmq.pipeline, "propagate_through_layer")
        run_method(problem, merged, "epmq")
        assert [np.shape(x) for x, _ in propagations] == [(num_tasks, 6, 24), (num_tasks, 8, 24)]
        assert propagations[0][0] is problem.calib.inputs


class TestStreamedCurvatures:
    @pytest.mark.parametrize("method", ["epmq", "gptq", "rtn"])
    def test_each_curvature_is_dead_before_the_next_is_formed(self, monkeypatch, method):
        problem, merged = merged_problem(seed=27, dims=[6, 8, 7, 5], num_tasks=3)
        formed, alive = [], []
        real = pmq.calib.accumulate_stats

        def spy(x):
            alive.append(sum(ref() is not None for ref in formed))
            h = real(x)
            formed.append(weakref.ref(h))
            return h

        monkeypatch.setattr(pmq.calib, "accumulate_stats", spy)
        run_method(problem, merged, method)
        assert len(formed) == 3 * 3
        assert alive == [0] * 9
        assert all(ref() is None for ref in formed)

    def test_working_set_has_no_k_fold_term(self):
        """A 256-wide epmq quantize of K = 4 tasks stays within d^2-sized arrays
        (H_E, R, W*, the factors, the rounding buffers, the quantized layer) and
        the task stack. Holding the K curvatures H_i at once, as a list, read 13.35
        d^2 units here; streaming them reads 6.37."""
        d, k, n = 256, 4, 64
        problem = make_synthetic_tasks(
            0, k, [d, d, d], n, heldout_samples=16, expert_mode="perturb"
        )
        merged = apply_merge(MergeSpec(), problem.base, problem.experts)
        cfg = QuantConfig(bits=4, group_size=128, solver="epmq")
        peak = traced_peak(lambda: quantize(merged, problem.experts, problem.calib, cfg))
        stack = k * n / d  # the (K, d, n) activation stack, in d^2 units
        assert peak / (8 * d * d) < 9 + stack


class TestTrajectoryChecksum:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 5),
        method=st.sampled_from(["epmq", "gptq", "rtn"]),
    )
    def test_checksum_is_chain_over_layers_before(self, seed, depth, method):
        problem, merged = merged_problem(seed=seed, dims=[5] * (depth + 1))
        run = run_method(problem, merged, method)
        layers = run_to_json_dict(run)["layers"]
        for ell, rep in enumerate(layers, start=1):
            assert rep["trajectory_checksum"] == prefix_chain(run.model.layers[: ell - 1])
        assert layers[0]["trajectory_checksum"] == EMPTY_PREFIX.hex()

    def test_state_checksum_is_the_chain_over_every_layer(self):
        problem, merged = merged_problem(seed=20, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, "epmq")
        assert run.model.state_checksum() == prefix_chain(run.model.layers)

    def test_last_layer_enters_no_checksum(self):
        problem, merged = merged_problem(seed=21, dims=[6, 8, 7, 5])
        layers = list(merged.layers)
        last = layers[-1]
        layers[-1] = Layer(last.spec, last.weight + 0.5, last.bias)
        other = Checkpoint(layers=layers, manifest=merged.manifest)
        run_a = run_method(problem, merged, "epmq")
        run_b = run_method(problem, other, "epmq")
        assert [r["trajectory_checksum"] for r in run_to_json_dict(run_a)["layers"]] == [
            r["trajectory_checksum"] for r in run_to_json_dict(run_b)["layers"]
        ]

    def test_hashes_each_layer_a_bounded_number_of_times(self, monkeypatch):
        problem, merged = merged_problem(seed=22, dims=[6] * 10)
        calls = counting(monkeypatch, pmq.pipeline, "chain_link")
        run = run_method(problem, merged, "epmq")
        run_to_json_dict(run)
        # one link per layer but the last extends the trajectory checksum; nothing is re-hashed
        assert len(calls) == run.model.num_layers - 1


class TestStateGuard:
    """The arrays a layer step can reach are read-only: a write fails where it is made."""

    @pytest.mark.parametrize("method", ["epmq", "gptq"])
    def test_solver_writing_merged_weight_raises(self, monkeypatch, method):
        problem, merged = merged_problem(seed=23, dims=[6, 8, 7, 5])
        original = pmq.pipeline.solve_layer
        seen = []

        def corrupting(*args):
            report = original(*args)
            seen.append(None)
            if len(seen) == 2:
                # every route receives the merged weight itself
                args[1][0, 0] += 1.0
            return report

        monkeypatch.setattr(pmq.pipeline, "solve_layer", corrupting)
        with pytest.raises(ValueError, match="layer 'layer2'.*read-only"):
            run_method(problem, merged, method)

    def test_solver_writing_previous_layer_raises(self, monkeypatch):
        problem, merged = merged_problem(seed=24, dims=[6, 8, 7, 5])
        models = []
        collect = pmq.pipeline.collect_layer_stats

        def recording(model, *args, **kwargs):
            models.append(model)
            return collect(model, *args, **kwargs)

        original = pmq.pipeline.solve_layer

        def corrupting(*args):
            report = original(*args)
            if len(models) == 2:
                models[-1].layers[0].weight[0, 0] += 1.0
            return report

        monkeypatch.setattr(pmq.pipeline, "collect_layer_stats", recording)
        monkeypatch.setattr(pmq.pipeline, "solve_layer", corrupting)
        with pytest.raises(ValueError, match="layer 'layer2'.*read-only"):
            run_method(problem, merged, "epmq")

    def test_caller_arrays_stay_writable(self):
        problem, merged = merged_problem(seed=25, dims=[6, 8, 5])
        weight = np.array(merged.layers[0].weight)
        inputs = np.array(problem.calib.inputs)
        layers = [Layer(merged.layers[0].spec, weight, merged.layers[0].bias)]
        ckpt = Checkpoint(layers=layers + merged.layers[1:], manifest=merged.manifest)
        calib = CalibSet(inputs)
        assert ckpt.layers[0].weight.base is weight and calib.inputs.base is inputs
        assert not ckpt.layers[0].weight.flags.writeable and not calib.inputs.flags.writeable
        weight[0, 0] += 1.0  # the caller's own arrays keep their flags
        inputs[0, 0] += 1.0


class TestEvaluate:
    def test_forwards_one_task_stack(self, monkeypatch):
        problem, merged = merged_problem(seed=18, dims=[6, 7, 5], num_tasks=3)
        forwards = counting(monkeypatch, pmq.pipeline, "forward")
        evaluate(Model.from_checkpoint(merged), problem.heldout)
        assert [x.shape for _, x in forwards] == [(3, 6, 24)]

    def test_perfect_model_zero_mse(self):
        problem = small_problem(seed=13, num_tasks=1)
        model = Model.from_checkpoint(problem.base)
        heldout = CalibSet(problem.heldout.inputs, forward(model, problem.heldout.inputs))
        result = evaluate(model, heldout)
        assert result.macro_mse == 0.0

    def test_constant_zero_model(self, rng):
        from pmq.checkpoint import LayerSpec, ModelManifest

        manifest = ModelManifest(layers=(LayerSpec("layer1", 3, 2, "identity", False),))
        ckpt = Checkpoint(
            layers=[Layer(manifest.layers[0], np.zeros((2, 3)), None)], manifest=manifest
        )
        model = Model.from_checkpoint(ckpt)
        x = rng.normal(size=(3, 5))
        zero_targets = CalibSet([x], np.zeros((1, 2, 5)))
        unit_targets = CalibSet([x], np.ones((1, 2, 5)))
        assert evaluate(model, zero_targets).macro_mse == 0.0
        assert evaluate(model, unit_targets).macro_mse == 1.0

    def test_matches_independent_script(self):
        problem, merged = merged_problem(seed=14)
        model = Model.from_checkpoint(merged)
        result = evaluate(model, problem.heldout)
        for t, (x, y) in enumerate(zip(problem.heldout.inputs, problem.heldout.targets), 1):
            expected = mse_reference(forward(model, x), y)
            assert result.per_task_mse[t] == pytest.approx(expected, rel=1e-12)

    def test_missing_targets_rejected(self):
        problem = small_problem(seed=15)
        model = Model.from_checkpoint(problem.base)
        with pytest.raises(ValueError, match="targets"):
            evaluate(model, problem.calib)


class TestRunJson:
    def test_schema_and_checksums(self):
        problem, merged = merged_problem(seed=16)
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.01)
        run = run_epmq(merged, problem.experts, problem.calib, cfg)
        blob = run_to_json_dict(run, config={"seed": 16})
        import jsonschema

        from pmq.pipeline import RUN_JSON_SCHEMA

        jsonschema.validate(blob, RUN_JSON_SCHEMA)
        checksums = [rep["trajectory_checksum"] for rep in blob["layers"]]
        assert len(set(checksums)) == len(checksums)  # state changes at every layer

    @pytest.mark.parametrize(
        "method, calibrated", [("rtn", False), ("rtn", True), ("gptq", True), ("epmq", True)]
    )
    def test_layer_entries_carry_exactly_the_schema_keys(self, method, calibrated):
        """Each layer entry is the layer id, the checksum and the solver report,
        and its keys are the ones the schema declares, in that order."""
        import jsonschema

        from pmq.pipeline import RUN_JSON_SCHEMA

        problem, merged = merged_problem(seed=17, dims=[6, 8, 7, 5])
        calib = problem.calib if calibrated else None
        cfg = QuantConfig(bits=3, group_size=4, solver=method)
        run = quantize(merged, problem.experts, calib, cfg)
        blob = run_to_json_dict(run)
        jsonschema.validate(blob, RUN_JSON_SCHEMA)
        required = RUN_JSON_SCHEMA["properties"]["layers"]["items"]["required"]
        assert [list(entry) for entry in blob["layers"]] == [required] * run.model.num_layers
        assert [entry["layer_id"] for entry in blob["layers"]] == ["layer1", "layer2", "layer3"]
        assert {entry["solver"] for entry in blob["layers"]} == {method}


def test_public_names_resolve_once():
    """Every name in pmq.__all__ is an attribute of pmq, and none is listed twice."""
    assert len(set(pmq.__all__)) == len(pmq.__all__)
    missing = [name for name in pmq.__all__ if not hasattr(pmq, name)]
    assert missing == []
