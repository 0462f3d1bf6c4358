"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with `pytest tests/test_acceptance.py -v -s`). Tolerances and rates are
pinned here, not configurable.
"""

import time

import numpy as np

from pmq.calib import LayerCalibStats, make_synthetic_tasks
from pmq.checkpoint import load_checkpoint, save_checkpoint
from pmq.linalg import frobenius_sq
from pmq.merge import MergeSpec, apply_merge
from pmq.model import Model, forward_to_layer, load_model, save_model
from pmq.pipeline import deviation_diagnostics, evaluate, quantize, run_epmq
from pmq.quant import QuantConfig, QuantizedLayer, pack_codes, rtn_quantize, unpack_codes
from pmq.solver import (
    SolverProblem,
    build_epmq_statistics,
    continuous_solution,
    epmq_objective,
    gptq_solve,
    quadratic_objective,
    solve_layer,
)

from oracles import brute_force_optimum
from test_calib import layer_stats

# widths at which the block factor splits (its leaves are 64 columns wide)
WIDE_DIMS = (65, 300, 1024)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_instance(rng, d, k, rows=2, samples=None):
    samples = samples or d + 3
    xs = [rng.normal(size=(d, samples)) for _ in range(k)]
    ws = [rng.normal(size=(rows, d)) for _ in range(k)]
    wm = rng.normal(size=(rows, d))
    stats = LayerCalibStats(
        hessians=[x @ x.T for x in xs],
        d=d,
    )
    return xs, ws, wm, stats


def _expanded_objective(q, xs, ws, wm, lam):
    total = 0.0
    for x, w in zip(xs, ws):
        diff = q @ x - w @ x
        total += float(np.sum(diff * diff))
    return total + lam * float(np.sum((q - wm) ** 2))


def _stationarity_ratio(rng, d, k):
    """Stationary residual ||W* H_E - R||_F over its bound 1e-8*(1+||R||_F)."""
    _, ws, wm, stats = _random_instance(rng, d, k)
    alpha = float(rng.uniform(0.01, 1.0))
    h_e, r, _ = build_epmq_statistics(ws, wm, stats, alpha)
    q = continuous_solution(h_e, r)
    return np.sqrt(frobenius_sq(q @ h_e - r)) / (1e-8 * (1.0 + np.sqrt(frobenius_sq(r))))


def test_criterion_1_closed_form_stationarity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        k = int(rng.integers(1, 5))
        worst = max(worst, _stationarity_ratio(rng, d, k))
        if worst > 1.0:
            break
    for d in WIDE_DIMS:
        worst = max(worst, _stationarity_ratio(rng, d, 2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 10.0
    _report(
        1,
        ok,
        f"stationary residual <= 1e-8*(1+||R||_F) on 1000 instances and d={WIDE_DIMS} "
        f"(worst ratio {worst:.3g}), {elapsed:.1f}s < 10s",
    )


def _reduction_gap(rng, d, k):
    """Relative gap between the expanded objective and ||(Q - W*) L||_F^2 plus a constant."""
    xs, ws, wm, stats = _random_instance(rng, d, k)
    alpha = float(rng.uniform(0.01, 1.0))
    h_e, r, lam = build_epmq_statistics(ws, wm, stats, alpha)
    w_star = continuous_solution(h_e, r)
    constant = _expanded_objective(w_star, xs, ws, wm, lam)
    q = rng.normal(size=wm.shape)
    expanded = _expanded_objective(q, xs, ws, wm, lam)
    reduced = float(np.sum(((q - w_star) @ np.linalg.cholesky(h_e)) ** 2))
    return abs(expanded - (reduced + constant)) / max(1.0, abs(expanded))


def test_criterion_2_objective_reduction_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        worst = max(worst, _reduction_gap(rng, d, k))
    for d in WIDE_DIMS:
        worst = max(worst, _reduction_gap(rng, d, 2))
    ok = worst <= 1e-6
    _report(
        2,
        ok,
        f"expanded objective == reduced + constant within 1e-6 on 200 instances and "
        f"d={WIDE_DIMS} (worst {worst:.3g})",
    )


def test_criterion_3_oracle_optimality_gap():
    start = time.perf_counter()
    cfg_g = QuantConfig(bits=2, group_size=4, solver="gptq")
    gptq_ok = 0
    never_below = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(1, 4))
        x = rng.normal(size=(4, 12))
        h = x @ x.T
        prob = SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg_g)
        rep = gptq_solve(prob)
        codes_opt, _ = brute_force_optimum(prob)
        opt = QuantizedLayer(
            codes=codes_opt, scales=rep.quantized.scales, zeros=rep.quantized.zeros,
            bits=2, group_size=4,
        )
        obj_s = quadratic_objective(rep.quantized.dequantize(), w, h)
        obj_o = quadratic_objective(opt.dequantize(), w, h)
        never_below &= obj_s >= obj_o - 1e-12 * max(1.0, obj_o)
        gptq_ok += obj_s <= 1.25 * obj_o + 1e-12

    cfg_e = QuantConfig(bits=2, group_size=4, solver="epmq", alpha=0.01)
    epmq_ok = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        d = 4
        wm = rng.normal(size=(1, d))
        ws = [wm + 0.3 * rng.normal(size=(1, d)) for _ in range(2)]
        xs = [rng.normal(size=(d, 10)) for _ in range(2)]
        stats = LayerCalibStats(
            hessians=[x @ x.T for x in xs],
            d=d,
        )
        rep = solve_layer(ws, wm, stats, cfg_e)
        h_e, r, lam = build_epmq_statistics(ws, wm, stats, cfg_e.alpha)
        w_star = continuous_solution(h_e, r)
        prob = SolverProblem(target=w_star, curvature=h_e, grid_source_weight=w_star, cfg=cfg_e)
        codes_opt, _ = brute_force_optimum(prob)
        opt = QuantizedLayer(
            codes=codes_opt, scales=rep.quantized.scales, zeros=rep.quantized.zeros,
            bits=2, group_size=4,
        )
        obj_s = epmq_objective(rep.quantized.dequantize(), ws, wm, stats, lam)
        obj_o = epmq_objective(opt.dequantize(), ws, wm, stats, lam)
        never_below &= obj_s >= obj_o - 1e-12 * max(1.0, obj_o)
        epmq_ok += obj_s <= 1.25 * obj_o + 1e-12
    elapsed = time.perf_counter() - start
    ok = gptq_ok >= 80 and epmq_ok >= 80 and never_below and elapsed < 30.0
    _report(
        3,
        ok,
        f"within 1.25x of the 256-assignment optimum: gptq {gptq_ok}/100, "
        f"epmq {epmq_ok}/100, never below optimum: {never_below}, {elapsed:.1f}s < 30s",
    )


def test_criterion_4_anchor_dominant_degeneration():
    alphas = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
    found_at = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = 6
        wm = rng.normal(size=(2, d))
        ws = [wm + 0.3 * rng.normal(size=(2, d)) for _ in range(2)]
        xs = [rng.normal(size=(d, 10)) for _ in range(2)]
        stats = LayerCalibStats(
            hessians=[x @ x.T for x in xs],
            d=d,
        )
        hit = None
        for alpha in alphas:
            cfg = QuantConfig(bits=4, group_size=4, solver="epmq", alpha=alpha)
            rep = solve_layer(ws, wm, stats, cfg)
            rtn = rtn_quantize(wm, cfg)
            if np.array_equal(rep.quantized.codes, rtn.codes):
                hit = alpha
                break
        found_at.append(hit)
    ok = all(a is not None for a in found_at)
    _report(
        4,
        ok,
        f"epmq codes == rtn(W_m) codes at some alpha <= 1e8 for 20/20 layers "
        f"(median alpha {sorted(a for a in found_at if a)[10]:g})"
        if ok
        else f"layers without a matching alpha: {[i for i, a in enumerate(found_at) if a is None]}",
    )


def test_criterion_5_anchor_necessity_rank_deficient():
    worse = 0
    for seed in range(20):
        problem = make_synthetic_tasks(
            seed,
            num_tasks=2,
            dims=[16, 20, 8],
            samples_per_task=6,  # < d at every layer: rank-deficient pooled curvature
            heldout_samples=128,
            train_samples=128,
            train_steps=100,
        )
        merged = apply_merge(MergeSpec(), problem.base, problem.experts)
        mse = {}
        for alpha in (0.0, 0.1):
            cfg = QuantConfig(bits=4, solver="epmq", alpha=alpha)
            run = run_epmq(merged, problem.experts, problem.calib, cfg)
            mse[alpha] = evaluate(run.model, problem.heldout).macro_mse
        worse += mse[0.0] > mse[0.1]
    ok = worse >= 18
    _report(5, ok, f"alpha=0 held-out MSE exceeds alpha=0.1 in {worse}/20 problems (need >= 18)")


def test_criterion_6_epmq_vs_naive_gptq():
    start = time.perf_counter()
    obj_wins, mse_wins = 0, 0
    for seed in range(50):
        problem = make_synthetic_tasks(
            seed,
            num_tasks=2,
            dims=[10, 14, 12, 8],
            samples_per_task=32,
            heldout_samples=128,
            train_samples=128,
            train_steps=100,
        )
        merged = apply_merge(MergeSpec(), problem.base, problem.experts)
        run_e = run_epmq(
            merged, problem.experts, problem.calib, QuantConfig(bits=4, solver="epmq", alpha=0.01)
        )
        run_g = quantize(merged, [], problem.calib, QuantConfig(bits=4, solver="gptq"))
        stats = layer_stats(Model.from_checkpoint(merged), problem.calib, 1)
        lam = run_e.layer_reports[0].solve.lam
        experts_w = [e.layers[0].weight for e in problem.experts]
        obj_e = epmq_objective(
            run_e.model.layers[0].weight, experts_w, merged.layers[0].weight, stats, lam
        )
        obj_g = epmq_objective(
            run_g.model.layers[0].weight, experts_w, merged.layers[0].weight, stats, lam
        )
        obj_wins += obj_e < obj_g
        mse_wins += (
            evaluate(run_e.model, problem.heldout).macro_mse
            < evaluate(run_g.model, problem.heldout).macro_mse
        )
    elapsed = time.perf_counter() - start
    ok = obj_wins >= 45 and mse_wins >= 35 and elapsed < 300.0
    _report(
        6,
        ok,
        f"layer-1 anchored objective wins {obj_wins}/50 (need >= 45), held-out MSE wins "
        f"{mse_wins}/50 (need >= 35), {elapsed:.0f}s < 300s",
    )


def test_criterion_7_bit_width_trend():
    # Small per-task calibration budgets are where the low-bit gap shows up at
    # desk scale: the naive solver's compensation overfits the sampled
    # curvature while the anchor regularizes the expert-guided solver.
    bits_axis = [3, 4, 5, 6, 7, 8]
    sums = {"epmq": np.zeros(len(bits_axis)), "gptq": np.zeros(len(bits_axis))}
    for seed in range(20):
        problem = make_synthetic_tasks(
            seed,
            num_tasks=3,
            dims=[32, 64, 48, 32],
            samples_per_task=12,
            heldout_samples=256,
            train_samples=128,
            train_steps=100,
            input_mean_scale=1.5,
            input_spread=(0.5, 1.0),
        )
        merged = apply_merge(MergeSpec(), problem.base, problem.experts)
        for bi, bits in enumerate(bits_axis):
            run_e = run_epmq(
                merged, problem.experts, problem.calib,
                QuantConfig(bits=bits, solver="epmq", alpha=0.3),
            )
            sums["epmq"][bi] += evaluate(run_e.model, problem.heldout).macro_mse
            run_g = quantize(merged, [], problem.calib, QuantConfig(bits=bits, solver="gptq"))
            sums["gptq"][bi] += evaluate(run_g.model, problem.heldout).macro_mse
    means = {m: sums[m] / 20 for m in sums}
    mono = {
        m: all(means[m][i] >= means[m][i + 1] for i in range(len(bits_axis) - 1)) for m in means
    }
    gap = means["gptq"] - means["epmq"]
    gap_at_lowest = int(np.argmax(gap)) == 0
    ok = mono["epmq"] and mono["gptq"] and gap_at_lowest
    _report(
        7,
        ok,
        f"mean macro MSE non-increasing in bits: epmq={mono['epmq']} gptq={mono['gptq']}; "
        f"gap largest at {bits_axis[int(np.argmax(gap))]}-bit "
        f"(gap per bit: {[round(v, 5) for v in gap]})",
    )


def test_criterion_8_deviation_identity():
    problem = make_synthetic_tasks(
        8, num_tasks=2, dims=[8, 12, 10, 6], samples_per_task=32,
        heldout_samples=64, train_samples=128, train_steps=100,
    )
    merged = apply_merge(MergeSpec(), problem.base, problem.experts)
    run = run_epmq(
        merged, problem.experts, problem.calib, QuantConfig(bits=4, solver="epmq", alpha=0.01)
    )
    report = deviation_diagnostics(run, problem.heldout)
    worst = report.max_identity_error()
    rows = len(report.rows)
    ok = worst <= 1e-9 and rows == run.model.num_layers * 2
    _report(8, ok, f"decomposition identity holds on all {rows} layer/task pairs (max {worst:.3g})")


def test_criterion_9_determinism_and_io(tmp_path):
    # byte-identical quantized checkpoints from repeated runs with one seed
    paths = []
    for idx in (0, 1):
        problem = make_synthetic_tasks(
            9, num_tasks=2, dims=[8, 12, 6], samples_per_task=16,
            heldout_samples=16, train_samples=64, train_steps=50,
        )
        merged = apply_merge(MergeSpec(), problem.base, problem.experts)
        run = run_epmq(
            merged, problem.experts, problem.calib, QuantConfig(bits=4, solver="epmq", alpha=0.01)
        )
        path = tmp_path / f"run{idx}.safetensors"
        save_model(run.model, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    # checkpoint round trip is byte-exact on a save/load/save cycle
    problem = make_synthetic_tasks(
        19, num_tasks=1, dims=[5, 4], samples_per_task=8,
        heldout_samples=8, train_samples=32, train_steps=10,
    )
    p1, p2 = tmp_path / "c1.safetensors", tmp_path / "c2.safetensors"
    save_checkpoint(problem.base, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    ckpt_exact = p1.read_bytes() == p2.read_bytes()

    # packed-code round trips for every required bit width, in memory and on disk
    rng = np.random.default_rng(99)
    codes_ok = True
    for bits in (2, 3, 4, 8):
        codes = rng.integers(0, 2**bits, size=(7, 13)).astype(np.uint8)
        codes_ok &= np.array_equal(unpack_codes(pack_codes(codes, bits), bits, 7, 13), codes)
        w = rng.normal(size=(6, 10))
        q = rtn_quantize(w, QuantConfig(bits=bits, group_size=4, solver="rtn"))
        model = Model.from_checkpoint(
            make_synthetic_tasks(
                5, num_tasks=1, dims=[10, 6], samples_per_task=4,
                heldout_samples=4, train_samples=16, train_steps=0,
            ).base
        )
        model.replace_layer(1, q)
        fpath = tmp_path / f"b{bits}.safetensors"
        save_model(model, fpath)
        loaded = load_model(fpath)
        codes_ok &= np.array_equal(loaded.layers[0].source.codes, q.codes)
        codes_ok &= loaded.layers[0].source.scales.tobytes() == q.scales.tobytes()
        # a second save must reproduce the file byte-for-byte
        f2 = tmp_path / f"b{bits}_again.safetensors"
        save_model(loaded, f2)
        codes_ok &= fpath.read_bytes() == f2.read_bytes()

    ok = identical and ckpt_exact and codes_ok
    _report(
        9,
        ok,
        f"repeated-run checkpoints identical: {identical}, checkpoint bytes exact: {ckpt_exact}, "
        f"packed codes round trip (b=2,3,4,8): {codes_ok}",
    )


def test_criterion_10_gptq_beats_rtn():
    # single-output-row layers, d in [4, 8], well-conditioned curvature
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 9))
        w = rng.normal(size=(1, d))
        x = rng.normal(size=(d, 8 * d))
        h = x @ x.T
        cfg = QuantConfig(bits=3, group_size=8, solver="gptq")
        rep = gptq_solve(SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg))
        rtn = rtn_quantize(w, cfg)
        obj_g = quadratic_objective(rep.quantized.dequantize(), w, h)
        obj_r = quadratic_objective(rtn.dequantize(), w, h)
        wins += obj_g <= obj_r
    ok = wins >= 95
    _report(10, ok, f"gptq beats rtn on the layer objective in {wins}/100 random layers (need >= 95)")
