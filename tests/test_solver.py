import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmq.solver
from pmq.linalg import SingularMatrixError, cholesky_inverse_upper, cholesky_solve, frobenius_sq
from pmq.quant import QuantConfig, QuantizedLayer, rtn_quantize
from pmq.solver import (
    SolverProblem,
    build_epmq_statistics,
    continuous_solution,
    epmq_objective,
    gptq_solve,
    quadratic_objective,
    solve_layer,
)

from conftest import ill_conditioned_gram, random_spd, subprocess_env
from oracles import (
    brute_force_optimum,
    gptq_columnwise,
    gptq_columnwise_longdouble,
    gradient_descent_anchored,
    matmul_triple_loop,
)
from test_pipeline import counting


def random_hessians(rng, d, k, n=10, energy_scale=1.0):
    xs = [energy_scale * rng.normal(size=(d, n)) for _ in range(k)]
    return [x @ x.T for x in xs], xs


def tilted_instance(rng, d, k, n, decades, d_out=3):
    """Experts and statistics whose curvature spans `decades` decades of
    eigenvalues in a random basis, with weights large where it is small, so
    that ||W*|| ||H_E|| / ||R|| grows with the conditioning."""
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spread = np.logspace(0, -decades, d)
    xs = [(basis * spread) @ rng.normal(size=(d, n)) for _ in range(k)]
    tilt = (basis / spread) @ basis.T
    wm = rng.normal(size=(d_out, d)) @ tilt
    experts = [wm + 0.3 * rng.normal(size=(d_out, d)) @ tilt for _ in range(k)]
    return [x @ x.T for x in xs], xs, experts, wm


def row_scaled_instance(n, d=23, k=2, d_out=4, seed=0):
    """Experts, no anchor, and task inputs whose rows span six decades:
    with k * n < d the pooled curvature has rank k * n."""
    rng = np.random.default_rng(seed)
    scale = np.logspace(0, -6, d)[:, None]
    xs = [scale * rng.normal(size=(d, n)) for _ in range(k)]
    wm = 0.1 * rng.normal(size=(d_out, d))
    experts = [wm + 0.1 * rng.normal(size=(d_out, d)) for _ in range(k)]
    return [x @ x.T for x in xs], experts, wm


def expanded_objective(q, xs, ws, wm, lam):
    """Direct activation-space evaluation of the anchored objective."""
    total = 0.0
    for x, w in zip(xs, ws):
        diff = q @ x - w @ x
        total += float(np.sum(diff * diff))
    total += lam * float(np.sum((q - wm) ** 2))
    return total


class TestBuildStatistics:
    def test_identity_case_recovers_merged(self, rng):
        d = 5
        hessians, _ = random_hessians(rng, d, 1)
        wm = rng.normal(size=(3, d))
        h_e, r, lam, _ = build_epmq_statistics([wm], wm, hessians, alpha=0.5)
        assert lam > 0
        np.testing.assert_allclose(continuous_solution(h_e, r), wm, rtol=1e-9, atol=1e-10)

    def test_alpha_zero_single_expert(self, rng):
        d = 4
        hessians, _ = random_hessians(rng, d, 1)
        w1 = rng.normal(size=(2, d))
        wm = rng.normal(size=(2, d))
        h_e, r, lam, _ = build_epmq_statistics([w1], wm, hessians, alpha=0.0)
        assert lam == 0.0
        np.testing.assert_allclose(h_e, hessians[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(r, w1 @ hessians[0], rtol=1e-12, atol=1e-12)

    def test_rhs_matches_scalar_loop(self, rng):
        d = 4
        hessians, _ = random_hessians(rng, d, 2)
        ws = [rng.normal(size=(3, d)) for _ in range(2)]
        wm = rng.normal(size=(3, d))
        h_e, r, lam, c = build_epmq_statistics(ws, wm, hessians, alpha=0.2)
        products = [matmul_triple_loop(w, h) for w, h in zip(ws, hessians)]
        expected = products[0] + products[1] + lam * wm
        np.testing.assert_allclose(r, expected, rtol=1e-10, atol=1e-10)
        # the constant of F(Q) = tr(Q H_E Q^T) - 2<Q, R> + c
        constant = sum(float(np.sum(p * w)) for p, w in zip(products, ws))
        assert c == pytest.approx(constant + lam * float(np.sum(wm * wm)), rel=1e-12)


class TestStreamedCurvatures:
    """The curvatures are an iterable consumed once, in task order."""

    @pytest.mark.parametrize("solver", ["rtn", "gptq", "epmq"])
    def test_iterator_equals_list_bit_for_bit(self, rng, solver):
        hessians, _ = random_hessians(rng, 20, 3, n=24)
        wm = rng.normal(size=(5, 20))
        experts = [wm + 0.1 * rng.normal(size=wm.shape) for _ in range(3)]
        cfg = QuantConfig(bits=3, group_size=8, solver=solver)
        listed = solve_layer(experts, wm, hessians, cfg)
        streamed = solve_layer(experts, wm, iter(hessians), cfg)
        np.testing.assert_array_equal(streamed.quantized.codes, listed.quantized.codes)
        np.testing.assert_array_equal(streamed.quantized.weight, listed.quantized.weight)
        assert streamed.objective == listed.objective and streamed.lam == listed.lam
        np.testing.assert_array_equal(
            streamed.per_column_comp_norms, listed.per_column_comp_norms
        )

    def test_count_mismatch_raises(self, rng):
        hessians, _ = random_hessians(rng, 4, 3)
        wm = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match="2 expert weights for more than 2 curvatures"):
            build_epmq_statistics([wm, wm], wm, iter(hessians), 0.1)
        with pytest.raises(ValueError, match="3 expert weights for 2 curvatures"):
            build_epmq_statistics([wm] * 3, wm, iter(hessians[:2]), 0.1)
        with pytest.raises(ValueError, match="0 expert weights for 0 curvatures"):
            build_epmq_statistics([], wm, iter([]), 0.1)

    @pytest.mark.parametrize("solver", ["gptq", "epmq"])
    def test_no_curvatures_is_an_error_naming_the_solver(self, rng, solver):
        wm = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match=f"solver '{solver}' needs the layer's curvatures"):
            solve_layer([wm], wm, None, QuantConfig(group_size=4, solver=solver))

    @pytest.mark.parametrize("solver", ["gptq", "epmq"])
    def test_factors_are_dead_before_the_layer_is_built(self, rng, monkeypatch, solver):
        """No inverse factor (continuous solve's or rounding's) outlives the
        rounding: the layer's copies are made after U is let go."""
        factors, alive = [], []
        original = pmq.solver.cholesky_inverse_upper

        def tracked(*args, **kwargs):
            u = original(*args, **kwargs)
            factors.append(weakref.ref(u))
            return u

        def layer(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in factors))
            return QuantizedLayer(*args, **kwargs)

        monkeypatch.setattr(pmq.solver, "cholesky_inverse_upper", tracked)
        monkeypatch.setattr(pmq.solver, "QuantizedLayer", layer)
        hessians, _ = random_hessians(rng, 20, 3, n=24)
        wm = rng.normal(size=(5, 20))
        experts = [wm + 0.1 * rng.normal(size=wm.shape) for _ in range(3)]
        solve_layer(experts, wm, iter(hessians), QuantConfig(bits=3, group_size=8, solver=solver))
        assert factors and alive == [0]

    def test_reference_scorer_refuses_a_spent_iterator(self, rng):
        hessians, _ = random_hessians(rng, 4, 2)
        wm = rng.normal(size=(2, 4))
        spent = iter(hessians)
        build_epmq_statistics([wm, wm], wm, spent, 0.1)
        with pytest.raises(ValueError, match="zip"):
            epmq_objective(wm, [wm, wm], wm, spent, 0.1)


class TestContinuousSolution:
    def test_identity_curvature(self, rng):
        r = rng.normal(size=(3, 6))
        np.testing.assert_allclose(continuous_solution(np.eye(6), r), r, rtol=0, atol=1e-13)

    def test_large_anchor_limit_recovers_merged(self, rng):
        d = 5
        hessians, _ = random_hessians(rng, d, 2)
        ws = [rng.normal(size=(2, d)) for _ in range(2)]
        wm = rng.normal(size=(2, d))
        trace_scale = np.trace(sum(hessians))
        lam = 1e6 * trace_scale
        h_e = sum(hessians) + lam * np.eye(d)
        r = ws[0] @ hessians[0] + ws[1] @ hessians[1] + lam * wm
        q = continuous_solution(h_e, r)
        np.testing.assert_allclose(q, wm, rtol=1e-3, atol=1e-6)

    def test_matches_gradient_descent_oracle(self, rng):
        d = 6
        xs = [rng.normal(size=(d, 9)) for _ in range(2)]
        ws = [rng.normal(size=(2, d)) for _ in range(2)]
        wm = rng.normal(size=(2, d))
        lam = 0.8
        h_e = xs[0] @ xs[0].T + xs[1] @ xs[1].T + lam * np.eye(d)
        r = ws[0] @ (xs[0] @ xs[0].T) + ws[1] @ (xs[1] @ xs[1].T) + lam * wm
        q = continuous_solution(h_e, r)
        q_gd = gradient_descent_anchored(xs, ws, wm, lam)
        np.testing.assert_allclose(q, q_gd, rtol=1e-6, atol=1e-6)

    def test_stationarity_residual_bound(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 17))
            h = random_spd(rng, d)
            r = rng.normal(size=(int(rng.integers(1, 4)), d))
            q = continuous_solution(h, r)
            res = np.sqrt(frobenius_sq(q @ h - r))
            assert res <= 1e-8 * (1.0 + np.sqrt(frobenius_sq(r)))

    def test_singular_raises(self):
        h = np.zeros((3, 3))
        with pytest.raises(SingularMatrixError):
            continuous_solution(h, np.ones((1, 3)))

    def test_singular_to_working_precision_raises(self):
        """Rank 22 of 23: every pivot is positive, the smallest is rounding."""
        hessians, experts, wm = row_scaled_instance(n=11)
        h_e, r, _, _ = build_epmq_statistics(experts, wm, hessians, alpha=0.0)
        with pytest.raises(SingularMatrixError, match="singular to working precision"):
            continuous_solution(h_e, r)

    def test_refinement_reuses_the_inverted_factor(self, rng, monkeypatch):
        d = 200
        q_basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        h = (q_basis * np.logspace(0, -12, d)) @ q_basis.T  # condition number 1e12
        h = (h + h.T) / 2
        r = rng.normal(size=(4, d))
        factors = []
        factor = pmq.solver.cholesky_inverse_upper
        monkeypatch.setattr(
            pmq.solver,
            "cholesky_inverse_upper",
            lambda *a, **k: factors.append(None) or factor(*a, **k),
        )
        q = continuous_solution(h, r)
        assert len(factors) == 1
        monkeypatch.undo()
        # the same arithmetic as two independent solves against h
        q0 = cholesky_solve(h, r)
        assert not np.array_equal(q, q0)  # the refinement step fired
        np.testing.assert_array_equal(q, q0 + cholesky_solve(h, r - q0 @ h))


class TestObjectiveReduction:
    def test_expanded_equals_reduced_plus_constant(self, rng):
        # the algebraic identity behind quantizing toward W* under H_E
        for _ in range(50):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, 4))
            xs = [rng.normal(size=(d, int(rng.integers(d, d + 6)))) for _ in range(k)]
            ws = [rng.normal(size=(2, d)) for _ in range(k)]
            wm = rng.normal(size=(2, d))
            hessians = [x @ x.T for x in xs]
            alpha = float(rng.uniform(0.01, 1.0))
            h_e, r, lam, _ = build_epmq_statistics(ws, wm, hessians, alpha)
            w_star = continuous_solution(h_e, r)
            constant = expanded_objective(w_star, xs, ws, wm, lam)
            q = rng.normal(size=(2, d))
            expanded = expanded_objective(q, xs, ws, wm, lam)
            ell = np.linalg.cholesky(h_e)
            reduced = float(np.sum(((q - w_star) @ ell) ** 2))
            assert abs(expanded - (reduced + constant)) <= 1e-6 * max(1.0, abs(expanded))


class TestGptqSolve:
    def test_identity_curvature_degenerates_to_rtn(self, rng):
        cfg = QuantConfig(bits=3, group_size=8, solver="gptq")
        for seed in range(20):
            w = np.random.default_rng(seed).normal(size=(4, 8))
            prob = SolverProblem(target=w, curvature=np.eye(8), grid_source_weight=w, cfg=cfg)
            rep = gptq_solve(prob)
            rtn = rtn_quantize(w, cfg)
            agreement = np.mean(rep.quantized.codes == rtn.codes)
            assert agreement >= 0.99

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_beats_rtn_on_objective(self, bits):
        cfg = QuantConfig(bits=bits, group_size=4, solver="gptq")
        wins = 0
        for seed in range(100):
            r = np.random.default_rng(seed)
            w = r.normal(size=(1, 4))
            x = r.normal(size=(4, 12))
            h = x @ x.T
            prob = SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg)
            rep = gptq_solve(prob)
            rtn = rtn_quantize(w, cfg)
            obj_g = quadratic_objective(rep.quantized.dequantize(), w, h)
            obj_r = quadratic_objective(rtn.dequantize(), w, h)
            wins += obj_g <= obj_r
        assert wins >= 95

    def test_within_factor_of_enumeration_and_never_below(self):
        cfg = QuantConfig(bits=2, group_size=4, solver="gptq")
        ratio_ok = 0
        for seed in range(100):
            r = np.random.default_rng(seed)
            w = r.normal(size=(1, 4))
            x = r.normal(size=(4, 12))
            h = x @ x.T
            prob = SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg)
            rep = gptq_solve(prob)
            codes_opt, _ = brute_force_optimum(prob)
            opt = QuantizedLayer(
                codes=codes_opt,
                scales=rep.quantized.scales,
                zeros=rep.quantized.zeros,
                bits=2,
                group_size=4,
            )
            obj_g = quadratic_objective(rep.quantized.dequantize(), w, h)
            obj_o = quadratic_objective(opt.dequantize(), w, h)
            assert obj_g >= obj_o - 1e-12 * max(1.0, obj_o)
            ratio_ok += obj_g <= 1.25 * obj_o + 1e-12
        assert ratio_ok >= 80

    @pytest.mark.parametrize(
        "d_out, d",
        [(12, 127), (12, 128), (12, 129), (12, 300), (12, 385), (200, 129), (64, 300)],
        ids=["127", "128", "129", "300", "385", "200x129", "64x300"],
    )
    def test_blocked_rounding_matches_columnwise_oracle(self, d_out, d):
        # compensation norms are checked against the long double reference:
        # the float64 oracle's own rounding reaches ~1.2e-12 on [385]
        r = np.random.default_rng(d if d_out == 12 else d_out * d)
        h = ill_conditioned_gram(r, d)
        w = r.normal(size=(d_out, d)) / np.sqrt(d)
        for bits in (2, 3, 4, 8):
            # 48 and 100 divide none of the widths: the last group is short
            for group_size in (32, 64, 128, 48 if d < 200 else 100):
                cfg = QuantConfig(bits=bits, group_size=group_size, solver="gptq")
                prob = SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg)
                rep = gptq_solve(prob)
                codes, _, objective = gptq_columnwise(prob)
                ref_codes, ref_comp_norms = gptq_columnwise_longdouble(prob)
                np.testing.assert_array_equal(rep.quantized.codes, codes)
                np.testing.assert_array_equal(rep.quantized.codes, ref_codes)
                np.testing.assert_allclose(rep.per_column_comp_norms, ref_comp_norms, rtol=1e-12)
                assert rep.objective == pytest.approx(objective, rel=1e-12)

    def test_reference_checks_at_one_blas_thread(self):
        """The [300] and [385] checks, and the factor checks at 512 wide (three levels
        of the block recursion above its 64-column leaves), again in a fresh
        interpreter on one BLAS thread, where the summation order of every BLAS
        call differs from the threaded one."""
        name = f"{__file__}::TestGptqSolve::test_blocked_rounding_matches_columnwise_oracle"
        factor = f"{Path(__file__).with_name('test_linalg.py')}::TestBlockCholesky"
        factor += "::test_factor_and_inverse_match_oracles[512]"
        tests = [f"{name}[300]", f"{name}[385]", factor]
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(
            [sys.executable, *args],
            cwd=Path(__file__).resolve().parents[1],
            env=subprocess_env(1),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "3 passed" in done.stdout

    @pytest.mark.parametrize("bits, group_size", [(2, 5), (4, 8), (8, 3)])
    def test_objective_scores_the_dequantized_codes(self, rng, bits, group_size):
        w = rng.normal(size=(5, 12))
        h = random_spd(rng, 12)
        cfg = QuantConfig(bits=bits, group_size=group_size, solver="gptq")
        rep = gptq_solve(SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg))
        # read from the compensation norms, so equal to rounding
        expected = quadratic_objective(rep.quantized.dequantize(), w, h)
        assert rep.objective == pytest.approx(expected, rel=1e-10)

    def test_epmq_merged_grids_match_columnwise_oracle(self):
        r = np.random.default_rng(7)
        d_out, d = 40, 200
        hessians, _ = random_hessians(r, d, 2, n=d + 16)
        wm = r.normal(size=(d_out, d)) / np.sqrt(d)
        experts = [wm + 0.1 * r.normal(size=(d_out, d)) / np.sqrt(d) for _ in range(2)]
        cfg = QuantConfig(bits=3, group_size=48, solver="epmq", grid_source="merged")
        rep = solve_layer(experts, wm, hessians, cfg)
        h_e, rhs, _, _ = build_epmq_statistics(experts, wm, hessians, cfg.alpha)
        w_star = continuous_solution(h_e, rhs)
        prob = SolverProblem(target=w_star, curvature=h_e, grid_source_weight=wm, cfg=cfg)
        codes, comp_norms, _ = gptq_columnwise(prob)
        np.testing.assert_array_equal(rep.quantized.codes, codes)
        np.testing.assert_allclose(rep.per_column_comp_norms, comp_norms, rtol=1e-12)

    def test_singular_curvature_error_mentions_percdamp(self):
        cfg = QuantConfig(bits=4, group_size=4, solver="gptq")
        w = np.ones((1, 4))
        h = np.diag([1.0, 1.0, -1.0, 1.0])  # stays non-PD after mild damping
        with pytest.raises(SingularMatrixError, match="percdamp"):
            gptq_solve(SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg))

    def test_singular_curvature_error_names_original_column(self):
        cfg = QuantConfig(bits=4, group_size=4, solver="gptq")
        w = np.ones((1, 5))
        h = np.diag([1.0, -1.0, 1.0, 1.0, 1.0])  # the pivot is named by its column of h
        with pytest.raises(SingularMatrixError, match=r"\(pivot 2\); increase percdamp") as err:
            gptq_solve(SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg))
        assert err.value.pivot == 2

    def test_report_fields(self, rng):
        cfg = QuantConfig(bits=4, group_size=8, solver="gptq")
        w = rng.normal(size=(3, 8))
        h = random_spd(rng, 8)
        rep = gptq_solve(SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg))
        assert rep.objective >= 0
        assert rep.damping > 0
        assert rep.per_column_comp_norms.shape == (8,)
        blob = rep.to_json_dict()
        assert set(blob) == {
            "objective",
            "lambda",
            "damping",
            "damped",
            "per_column_comp_norms",
            "bits",
            "group_size",
            "solver",
        }

    def test_reports_gptq_whatever_the_config_solver(self, rng):
        """gptq_solve returns the rounding's own report: an epmq config does not
        make it an epmq solve, and it carries no anchor."""
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.5)
        w = rng.normal(size=(3, 8))
        h = random_spd(rng, 8)
        rep = gptq_solve(SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg))
        assert (rep.solver, rep.lam, rep.damped_fallback) == ("gptq", 0.0, False)


class TestEpmqSolve:
    def test_anchor_dominant_limit_equals_rtn_of_merged(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            d = 6
            wm = r.normal(size=(2, d))
            experts = [wm + 0.3 * r.normal(size=(2, d)) for _ in range(2)]
            hessians, _ = random_hessians(np.random.default_rng(seed + 500), d, 2)
            found = None
            for alpha in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
                cfg = QuantConfig(bits=4, group_size=4, solver="epmq", alpha=alpha)
                rep = solve_layer(experts, wm, hessians, cfg)
                rtn = rtn_quantize(wm, cfg)
                if np.array_equal(rep.quantized.codes, rtn.codes):
                    found = alpha
                    break
            assert found is not None, f"seed {seed}: no alpha <= 1e8 matched rtn codes"

    def test_scores_codes_once_with_the_anchored_objective(self, rng, monkeypatch):
        d, k = 6, 3
        hessians, _ = random_hessians(rng, d, k)
        wm = rng.normal(size=(3, d))
        experts = [wm + 0.3 * rng.normal(size=(3, d)) for _ in range(k)]
        cfg = QuantConfig(bits=3, group_size=4, solver="epmq", alpha=0.1)
        quadratic = counting(monkeypatch, pmq.solver, "quadratic_objective")
        anchored = counting(monkeypatch, pmq.solver, "epmq_objective")
        products = counting(monkeypatch, pmq.solver, "matmul")
        rep = solve_layer(experts, wm, hessians, cfg)
        # scored in closed form: the K products W_i H_i, no score, no residual GEMM
        assert quadratic == [] and anchored == []
        assert len(products) == k and all(a is w for (a, _), w in zip(products, experts))
        monkeypatch.undo()
        expected = epmq_objective(rep.quantized.dequantize(), experts, wm, hessians, rep.lam)
        assert rep.objective == pytest.approx(expected, rel=1e-10)

    def test_single_expert_equal_to_merged_matches_gptq(self, rng):
        d = 5
        hessians, _ = random_hessians(rng, d, 1)
        wm = rng.normal(size=(3, d))
        cfg = QuantConfig(bits=3, group_size=8, solver="epmq", alpha=0.1)
        rep_e = solve_layer([wm], wm, hessians, cfg)
        lam = rep_e.lam
        h = hessians[0] + lam * np.eye(d)
        rep_g = gptq_solve(
            SolverProblem(target=wm, curvature=h, grid_source_weight=wm, cfg=cfg)
        )
        np.testing.assert_array_equal(rep_e.quantized.codes, rep_g.quantized.codes)

    def test_within_factor_of_enumeration_k2(self):
        ratio_ok = 0
        for seed in range(100):
            r = np.random.default_rng(1000 + seed)
            d = 4
            wm = r.normal(size=(1, d))
            experts = [wm + 0.3 * r.normal(size=(1, d)) for _ in range(2)]
            xs = [r.normal(size=(d, 10)) for _ in range(2)]
            hessians = [x @ x.T for x in xs]
            cfg = QuantConfig(bits=2, group_size=4, solver="epmq", alpha=0.01)
            rep = solve_layer(experts, wm, hessians, cfg)
            h_e, r_mat, lam, _ = build_epmq_statistics(experts, wm, hessians, 0.01)
            w_star = continuous_solution(h_e, r_mat)
            prob = SolverProblem(target=w_star, curvature=h_e, grid_source_weight=w_star, cfg=cfg)
            codes_opt, _ = brute_force_optimum(prob)
            opt = QuantizedLayer(
                codes=codes_opt,
                scales=rep.quantized.scales,
                zeros=rep.quantized.zeros,
                bits=2,
                group_size=4,
            )
            obj_e = epmq_objective(rep.quantized.dequantize(), experts, wm, hessians, lam)
            obj_o = epmq_objective(opt.dequantize(), experts, wm, hessians, lam)
            assert obj_e >= obj_o - 1e-12 * max(1.0, obj_o)
            ratio_ok += obj_e <= 1.25 * obj_o + 1e-12
        assert ratio_ok >= 80

    def test_zero_alpha_rank_deficient_uses_damped_fallback(self, rng):
        d = 8
        x = rng.normal(size=(d, 3))  # rank 3 < d
        hessians = [x @ x.T]
        wm = rng.normal(size=(2, d))
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.0)
        rep = solve_layer([wm + 0.1], wm, hessians, cfg)
        assert rep.damped_fallback
        assert rep.lam == 0.0

    def test_rank_deficient_above_the_factor_leaf_uses_damped_fallback(self):
        # 150 columns take the block recursion; its Schur complement of rank 0 fails
        r = np.random.default_rng(9)
        d = 150
        x = r.normal(size=(d, 100))
        hessians = [x @ x.T]
        wm = r.normal(size=(4, d)) / np.sqrt(d)
        cfg = QuantConfig(bits=4, group_size=64, solver="epmq", alpha=0.0)
        rep = solve_layer([wm + 0.01], wm, hessians, cfg)
        assert rep.damped_fallback
        assert rep.lam == 0.0

    @pytest.mark.parametrize("n, damped", [(11, True), (40, False)])
    def test_near_singular_curvature_uses_damped_fallback(self, n, damped):
        """Rank 22 of 23 solved exactly gave weights of ~1e5 against experts
        below 1; full rank at the same scaling keeps the exact solve."""
        hessians, experts, wm = row_scaled_instance(n)
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.0)
        rep = solve_layer(experts, wm, hessians, cfg)
        assert rep.damped_fallback is damped
        if damped:
            assert np.abs(rep.quantized.weight).max() < 2 * max(np.abs(w).max() for w in experts)

    def test_asymmetric_curvature_rejected(self, rng):
        d = 6
        hessians, _ = random_hessians(rng, d, 2)
        hessians[1][0, 3] += 1.0
        wm = rng.normal(size=(2, d))
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq")
        with pytest.raises(ValueError, match="symmetric"):
            solve_layer([wm, wm + 0.1], wm, hessians, cfg)
        with pytest.raises(ValueError, match="symmetric"):
            SolverProblem(target=wm, curvature=hessians[1], grid_source_weight=wm, cfg=cfg)

    def test_grid_source_merged_switch(self, rng):
        d = 5
        hessians, _ = random_hessians(rng, d, 2)
        wm = rng.normal(size=(2, d))
        experts = [wm + rng.normal(size=(2, d)) for _ in range(2)]
        rep_t = solve_layer(experts, wm, hessians, QuantConfig(solver="epmq", grid_source="target", group_size=8))
        rep_m = solve_layer(experts, wm, hessians, QuantConfig(solver="epmq", grid_source="merged", group_size=8))
        # merged-sourced grids must equal the rtn grids on the merged weight
        rtn = rtn_quantize(wm, QuantConfig(solver="rtn", group_size=8))
        np.testing.assert_array_equal(rep_m.quantized.scales, rtn.scales)
        np.testing.assert_array_equal(rep_m.quantized.zeros, rtn.zeros)
        assert rep_t.quantized.scales.shape == rep_m.quantized.scales.shape


def closed_form_check(rep, xs, experts, wm, hessians, cfg):
    """|F_closed - F| and its bound, with F the objective in activation space.

    Three sizes S limit the agreement, each by rounding, not by F itself:
    the closed form gap + c - <R, W*> cancels terms of size c; W* is
    stationary only to 1e-12 (1 + ||R||) (the probe's refinement bound),
    which moves the score by up to ||R|| (||W*|| + 2 ||Q - W*||) times that;
    and any score from the H_i carries their rounding, of relative size eps,
    times ||Q - W_i||^2. The bound is rel 1e-10 of F plus 1e-11 of S; where
    F is far below S (one expert and no anchor, with few samples or fine
    grids; or curvature and weights tilted against each other) the relative
    error is larger."""
    h_e, r, _, c = build_epmq_statistics(experts, wm, hessians, cfg.alpha)
    if rep.damped_fallback:
        h_e.flat[:: len(h_e) + 1] += pmq.solver._damping_for(h_e, cfg.percdamp)
    w_star = continuous_solution(h_e, r)
    q = rep.quantized.weight
    exact = expanded_objective(q, xs, experts, wm, rep.lam)
    norm = np.linalg.norm
    scale = c + norm(r) * (norm(w_star) + 2.0 * norm(q - w_star))
    scale += sum(norm(h) * norm(q - w) ** 2 for h, w in zip(hessians, experts))
    return abs(rep.objective - exact), 1e-10 * exact + 1e-11 * scale


class TestClosedFormObjective:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        d=st.integers(2, 24),
        n=st.integers(1, 40),
        alpha=st.sampled_from([0.0, 0.01, 1.0]),
        bits=st.integers(2, 8),
        decades=st.sampled_from([0.0, 4.0]),
    )
    def test_equals_the_activation_space_objective(self, seed, k, d, n, alpha, bits, decades):
        """alpha = 0 with n < d takes the damped fallback; four decades of tilt
        make the probe refine on some draws."""
        rng = np.random.default_rng(seed)
        hessians, xs, experts, wm = tilted_instance(rng, d, k, n, decades)
        cfg = QuantConfig(bits=bits, group_size=max(1, d // 2), solver="epmq", alpha=alpha)
        rep = solve_layer(experts, wm, hessians, cfg)
        err, bound = closed_form_check(rep, xs, experts, wm, hessians, cfg)
        assert err <= bound

    def test_damped_fallback_keeps_its_correction_terms(self):
        rng = np.random.default_rng(5)
        hessians, xs, experts, wm = tilted_instance(rng, d=12, k=2, n=4, decades=0.0)
        cfg = QuantConfig(bits=4, group_size=6, solver="epmq", alpha=0.0)
        rep = solve_layer(experts, wm, hessians, cfg)
        assert rep.damped_fallback
        exact = expanded_objective(rep.quantized.weight, xs, experts, wm, rep.lam)
        assert rep.objective == pytest.approx(exact, rel=1e-10)

    def test_refinement_adds_one_residual_gemm(self, monkeypatch):
        rng = np.random.default_rng(3)
        d, k = 24, 2
        hessians, xs, experts, wm = tilted_instance(rng, d, k, n=d + 8, decades=6.0)
        cfg = QuantConfig(bits=4, group_size=8, solver="epmq", alpha=0.0)
        products = counting(monkeypatch, pmq.solver, "matmul")
        rep = solve_layer(experts, wm, hessians, cfg)
        monkeypatch.undo()
        # the K products W_i H_i, then Q H_E for the full residual
        assert [(a.shape, b.shape) for a, b in products] == [((3, d), (d, d))] * (k + 1)
        assert products[-1][1] is not hessians[-1]
        err, bound = closed_form_check(rep, xs, experts, wm, hessians, cfg)
        assert err <= bound


class TestCompensationNorms:
    @pytest.mark.parametrize("d", [65, 300])
    @pytest.mark.parametrize("solver", ["epmq", "gptq"])
    def test_squared_norms_sum_to_the_damped_rounding_loss(self, solver, d):
        """sum_j comp_j^2 = tr((Q - T)(H + delta*I)(Q - T)^T): GPTQ's per-column loss,
        a check of the rounding loop that holds at any width, with T = W* and
        H = H_E for epmq, T = W_m and H = sum_i H_i for gptq."""
        rng = np.random.default_rng(d)
        hessians, _ = random_hessians(rng, d, k=2, n=d + 16)
        wm = rng.normal(size=(16, d)) / np.sqrt(d)
        experts = [wm + 0.1 * rng.normal(size=wm.shape) / np.sqrt(d) for _ in range(2)]
        cfg = QuantConfig(bits=4, group_size=32, solver=solver)
        rep = solve_layer(experts, wm, hessians, cfg)
        if solver == "epmq":
            h, r, _, _ = build_epmq_statistics(experts, wm, hessians, cfg.alpha)
            target = continuous_solution(h, r)
        else:
            h, target = sum(hessians), wm
        e = rep.quantized.dequantize() - target
        loss = float(np.sum((e @ (h + rep.damping * np.eye(d))) * e))
        assert abs(float(np.sum(rep.per_column_comp_norms**2)) - loss) <= 1e-12 * loss


    @pytest.mark.parametrize(
        "d, bits, group_size", [(127, 3, 32), (129, 2, 64), (300, 4, 128), (385, 8, 128)]
    )
    @pytest.mark.parametrize("solver", ["epmq", "gptq"])
    def test_unclipped_columns_meet_the_nearest_plane_bound(self, solver, d, bits, group_size):
        """Sequential rounding is Babai's nearest-plane algorithm (Chen et al. 2025,
        "GPTQ as Babai's Nearest Plane Algorithm"): a column whose codes all avoid
        0 and 2^bits - 1 is rounded to within half a step s_ij per entry, so
        comp_j^2 <= sum_i (s_ij / 2)^2 / U_jj^2, U the upper factor of
        inv(H + delta*I), H = H_E for epmq and sum_i H_i for gptq."""
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hessians, _ = random_hessians(rng, d, k=2, n=d + 16)
            wm = rng.normal(size=(16, d)) / np.sqrt(d)
            experts = [wm + 0.1 * rng.normal(size=wm.shape) / np.sqrt(d) for _ in range(2)]
            cfg = QuantConfig(bits=bits, group_size=group_size, solver=solver)
            rep = solve_layer(experts, wm, hessians, cfg)
            if solver == "epmq":
                h = build_epmq_statistics(experts, wm, hessians, cfg.alpha)[0]
            else:
                h = sum(hessians)
            pivots = np.diag(cholesky_inverse_upper(h, shift=rep.damping))
            q = rep.quantized
            steps = q.scales.astype(np.float64)[:, np.arange(d) // group_size]
            unclipped = ((q.codes > 0) & (q.codes < (1 << bits) - 1)).all(axis=0)
            bound = np.sum((steps / 2) ** 2, axis=0) / pivots**2
            norms_sq = rep.per_column_comp_norms[unclipped] ** 2
            assert (norms_sq <= bound[unclipped] * (1 + 1e-12)).all()
            checked += int(unclipped.sum())
        assert checked > 0


class TestRealizedWeight:
    @pytest.mark.parametrize("solver", ["epmq", "gptq", "rtn"])
    @pytest.mark.parametrize(
        "d_out, d_in, group_size",
        [(512, 512, 128), (24, 300, 128), (24, 65, 8)],
        ids=["512x512-g128", "300-wide-g128", "65-wide-g8"],
    )
    def test_weight_is_the_bytes_of_dequantize(self, solver, d_out, d_in, group_size):
        """The values a solver scores are the layer's realized weight: the bytes of
        dequantize(), +0.0 where a code sits on its zero-point included."""
        rng = np.random.default_rng(d_in)
        hessians, _ = random_hessians(rng, d_in, k=2, n=d_in + 8)
        wm = rng.normal(size=(d_out, d_in)) / np.sqrt(d_in)
        experts = [wm + 0.1 * rng.normal(size=wm.shape) / np.sqrt(d_in) for _ in range(2)]
        cfg = QuantConfig(bits=4, group_size=group_size, solver=solver)
        rep = solve_layer(experts, wm, hessians, cfg)
        weight = rep.quantized.weight
        assert weight.shape == (d_out, d_in) and weight.dtype == np.float64
        assert weight.flags["C_CONTIGUOUS"]
        assert (weight == 0.0).any()
        assert weight.tobytes() == rep.quantized.dequantize().tobytes()
        if solver == "epmq":
            assert rep.objective == pytest.approx(
                epmq_objective(rep.quantized.dequantize(), experts, wm, hessians, rep.lam), rel=1e-10
            )


class TestBruteForce:
    def test_single_column_is_nearest_grid_point(self, rng):
        cfg = QuantConfig(bits=2, group_size=1, solver="gptq")
        w = np.array([[4.3]])
        grid_src = np.array([[3.0]])  # degenerate group: scale 1, zero -3, grid {3,4,5,6}
        prob = SolverProblem(target=w, curvature=np.eye(1), grid_source_weight=grid_src, cfg=cfg)
        codes, obj = brute_force_optimum(prob)
        assert codes[0, 0] == 1  # dequantizes to 4.0, the nearest grid point
        assert obj == pytest.approx(0.3**2, abs=1e-12)

    def test_never_above_rtn_or_gptq(self, rng):
        cfg = QuantConfig(bits=2, group_size=4, solver="gptq")
        for seed in range(25):
            r = np.random.default_rng(seed)
            w = r.normal(size=(2, 4))
            h = random_spd(r, 4)
            prob = SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg)
            codes, obj = brute_force_optimum(prob)
            rep = gptq_solve(prob)
            rtn = rtn_quantize(w, cfg)
            assert obj <= quadratic_objective(rep.quantized.dequantize(), w, h) + 1e-10
            assert obj <= quadratic_objective(rtn.dequantize(), w, h) + 1e-10

    def test_hand_enumerated_diagonal_case(self):
        # scale 1, zero 0 grid {0,1,2,3}; identity curvature separates columns:
        # nearest points for (0.2, 1.4, 2.6) are (0, 1, 3), objective
        # 0.2^2 + 0.4^2 + 0.4^2 = 0.36
        cfg = QuantConfig(bits=2, group_size=4, solver="gptq")
        target = np.array([[0.2, 1.4, 2.6]])
        grid_src = np.array([[0.0, 1.5, 3.0]])
        prob = SolverProblem(target=target, curvature=np.eye(3), grid_source_weight=grid_src, cfg=cfg)
        codes, obj = brute_force_optimum(prob)
        np.testing.assert_array_equal(codes, [[0, 1, 3]])
        assert obj == pytest.approx(0.36, abs=1e-12)

    def test_hand_enumerated_coupled_case(self):
        # H = [[2,1],[1,2]], target (0.4, 0.6), grid {0,1,2,3}:
        # objective(q0,q1) = 2 e0^2 + 2 e1^2 + 2 e0 e1 with e = q - t;
        # (0,0) -> 1.52, (0,1) -> 0.32, (1,0) -> 0.72, (1,1) -> 1.52,
        # larger codes only grow the error; optimum is (0, 1) at 0.32
        cfg = QuantConfig(bits=2, group_size=2, solver="gptq")
        target = np.array([[0.4, 0.6]])
        grid_src = np.array([[0.0, 3.0]])
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        prob = SolverProblem(target=target, curvature=h, grid_source_weight=grid_src, cfg=cfg)
        codes, obj = brute_force_optimum(prob)
        np.testing.assert_array_equal(codes, [[0, 1]])
        assert obj == pytest.approx(0.32, abs=1e-12)

    def test_search_space_guard(self, rng):
        cfg = QuantConfig(bits=8, group_size=16, solver="gptq")
        w = rng.normal(size=(1, 16))
        with pytest.raises(ValueError, match="search space"):
            brute_force_optimum(
                SolverProblem(target=w, curvature=np.eye(16), grid_source_weight=w, cfg=cfg)
            )

    def test_row_separability(self, rng):
        # solving rows independently equals the row-summed joint objective
        cfg = QuantConfig(bits=2, group_size=3, solver="gptq")
        w = rng.normal(size=(3, 3))
        h = random_spd(rng, 3)
        prob = SolverProblem(target=w, curvature=h, grid_source_weight=w, cfg=cfg)
        codes, obj = brute_force_optimum(prob)
        per_row = 0.0
        for row in range(3):
            prob_row = SolverProblem(
                target=w[row : row + 1],
                curvature=h,
                grid_source_weight=w[row : row + 1],
                cfg=cfg,
            )
            codes_row, obj_row = brute_force_optimum(prob_row)
            np.testing.assert_array_equal(codes_row[0], codes[row])
            per_row += obj_row
        assert obj == pytest.approx(per_row, rel=1e-12)
