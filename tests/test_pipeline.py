import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmq.calib
import pmq.linalg
import pmq.pipeline
import pmq.solver
from pmq.calib import CalibSet, make_synthetic_tasks
from pmq.checkpoint import Checkpoint, LayerWeights
from pmq.merge import MergeSpec, apply_merge
from pmq.model import EMPTY_PREFIX, Batch, Model, chain_link, forward, forward_to_layer
from pmq.pipeline import (
    deviation_diagnostics,
    evaluate,
    quantize,
    run_epmq,
    run_to_json_dict,
)
from pmq.quant import QuantConfig, QuantizedLayer, rtn_quantize
from pmq.solver import epmq_objective, solve_layer

from oracles import deviation_rows_from_scratch, mse_reference, quantize_from_scratch
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
        assert redo.objective == pytest.approx(run.layer_reports[1].solve.objective, rel=1e-12)

    def test_objective_recomputation_from_emitted_model(self):
        problem, merged = merged_problem(seed=4, dims=[6, 8, 7, 5], num_tasks=2)
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.01)
        run = run_epmq(merged, problem.experts, problem.calib, cfg)
        total = 0.0
        for ell in range(1, run.model.num_layers + 1):
            stats_hessians = []
            q = run.model.layers[ell - 1].weight
            lam = run.layer_reports[ell - 1].solve.lam
            obj = 0.0
            for batch in problem.calib.batches:
                x = forward_to_layer(run.model, batch.inputs, ell)
                w_i = problem.experts[batch.task_id - 1].layers[ell - 1].weight
                diff = q @ x - w_i @ x
                obj += float(np.sum(diff * diff))
            obj += lam * float(np.sum((q - merged.layers[ell - 1].weight) ** 2))
            total += obj
            assert obj == pytest.approx(run.layer_reports[ell - 1].solve.objective, rel=1e-8)
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
        bad_calib = CalibSet(
            batches=[
                Batch(np.full_like(b.inputs, 1e200), task_id=b.task_id)
                for b in problem.calib.batches
            ],
            samples_per_task=problem.calib.samples_per_task,
        )
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.01)
        with np.errstate(all="ignore"), pytest.raises(Exception, match="layer"):
            run_epmq(merged, problem.experts, bad_calib, cfg)


class TestRealizedWeights:
    @pytest.mark.parametrize("method", ["epmq", "gptq", "rtn"])
    def test_installed_weight_is_the_solver_values(self, method):
        problem, merged = merged_problem(seed=5, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, method)
        for layer, rep in zip(run.model.layers, run.layer_reports):
            assert layer.weight is rep.solve.quantized.weight
            assert layer.weight.tobytes() == layer.source.dequantize().tobytes()

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
        assert run_with.layer_reports[0].solve.objective is not None
        assert run_without.layer_reports[0].solve.objective is None

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
                better += rep_g.solve.objective <= rep_r.solve.objective
        assert better >= 0.95 * total


class TestDeviationDiagnostics:
    def test_unquantized_model_zero_quant_deviation(self):
        problem, merged = merged_problem(seed=10, dims=[6, 5])
        # snap weights onto their own 8-bit grid so quantization is exact
        cfg = QuantConfig(bits=8, group_size=8, solver="rtn")
        snapped_layers = []
        for lw in merged.layers:
            snapped = rtn_quantize(lw.weight, cfg).dequantize()
            snapped_layers.append(LayerWeights(lw.id, snapped, lw.bias))
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

    def test_forwards_each_task_once(self, monkeypatch):
        problem, merged = merged_problem(seed=18, dims=[6] * 10, num_tasks=3)
        run = run_method(problem, merged, "epmq")
        propagations = counting(monkeypatch, pmq.pipeline, "propagate_through_layer")
        products = counting(monkeypatch, pmq.pipeline, "matmul")
        deviation_diagnostics(run, problem.heldout)
        # Q X, W_m X and W_i X per layer and task; the walk advances from Q X
        assert len(products) == 3 * run.model.num_layers * 3
        assert propagations == []

    def test_identity_violation_names_first_layer_major_row(self, monkeypatch):
        problem, merged = merged_problem(seed=19, dims=[6, 8, 5])
        run = run_method(problem, merged, "epmq")
        monkeypatch.setattr(pmq.pipeline, "IDENTITY_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="layer 'layer1' task 1: deviation decomposition"):
            deviation_diagnostics(run, problem.heldout)


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
        assert [rep.solve.to_json_dict() for rep in run.layer_reports] == [
            rep.to_json_dict() for rep in reports
        ]


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
        for ell, rep in enumerate(run.layer_reports, start=1):
            assert rep.trajectory_checksum == prefix_chain(run.model.layers[: ell - 1])
        assert run.layer_reports[0].trajectory_checksum == EMPTY_PREFIX.hex()

    def test_state_checksum_is_the_chain_over_every_layer(self):
        problem, merged = merged_problem(seed=20, dims=[6, 8, 7, 5])
        run = run_method(problem, merged, "epmq")
        assert run.model.state_checksum() == prefix_chain(run.model.layers)

    def test_last_layer_enters_no_checksum(self):
        problem, merged = merged_problem(seed=21, dims=[6, 8, 7, 5])
        layers = list(merged.layers)
        last = layers[-1]
        layers[-1] = LayerWeights(last.id, last.weight + 0.5, last.bias)
        other = Checkpoint(layers=layers, manifest=merged.manifest)
        run_a = run_method(problem, merged, "epmq")
        run_b = run_method(problem, other, "epmq")
        assert [r.trajectory_checksum for r in run_a.layer_reports] == [
            r.trajectory_checksum for r in run_b.layer_reports
        ]

    def test_hashes_each_layer_a_bounded_number_of_times(self, monkeypatch):
        problem, merged = merged_problem(seed=22, dims=[6] * 10)
        calls = counting(monkeypatch, pmq.pipeline, "chain_link")
        run = run_method(problem, merged, "epmq")
        # before and after the solve: layer l's source and layer l-1, whose
        # digest at collection is the chain link itself
        assert len(calls) <= 4 * run.model.num_layers


class TestStateGuard:
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
        with pytest.raises(RuntimeError, match="layer 'layer2'.*changed between collection"):
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
        with pytest.raises(RuntimeError, match="layer 'layer2'.*changed between collection"):
            run_method(problem, merged, "epmq")


class TestEvaluate:
    def test_perfect_model_zero_mse(self):
        problem = small_problem(seed=13, num_tasks=1)
        model = Model.from_checkpoint(problem.base)
        outputs = forward(model, problem.heldout.task(1).inputs)
        heldout = CalibSet(
            batches=[Batch(problem.heldout.task(1).inputs, task_id=1, targets=outputs)],
            samples_per_task=problem.heldout.samples_per_task,
        )
        result = evaluate(model, heldout)
        assert result.macro_mse == 0.0

    def test_constant_zero_model(self, rng):
        from pmq.checkpoint import LayerSpec, ModelManifest

        manifest = ModelManifest(layers=(LayerSpec("layer1", 3, 2, "identity", False),))
        ckpt = Checkpoint(
            layers=[LayerWeights("layer1", np.zeros((2, 3)), None)], manifest=manifest
        )
        model = Model.from_checkpoint(ckpt)
        x = rng.normal(size=(3, 5))
        zero_targets = CalibSet(
            batches=[Batch(x, task_id=1, targets=np.zeros((2, 5)))], samples_per_task=5
        )
        unit_targets = CalibSet(
            batches=[Batch(x, task_id=1, targets=np.ones((2, 5)))], samples_per_task=5
        )
        assert evaluate(model, zero_targets).macro_mse == 0.0
        assert evaluate(model, unit_targets).macro_mse == 1.0

    def test_matches_independent_script(self):
        problem, merged = merged_problem(seed=14)
        model = Model.from_checkpoint(merged)
        result = evaluate(model, problem.heldout)
        for batch in problem.heldout.batches:
            expected = mse_reference(forward(model, batch.inputs), batch.targets)
            assert result.per_task_mse[batch.task_id] == pytest.approx(expected, rel=1e-12)

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
