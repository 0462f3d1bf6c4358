import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from pmq.linalg import (
    CHUNK_ELEMENTS,
    ShapeError,
    SingularMatrixError,
    cholesky_inverse_upper,
    cholesky_solve,
    check_symmetric,
    frobenius_sq,
    matmul,
)

from conftest import ill_conditioned_gram, random_spd, subprocess_env
from oracles import (
    cholesky_inverse_upper_longdouble,
    cholesky_inverse_upper_via_inverse,
    frobenius_scalar,
    matmul_triple_loop,
    solve_right_via_inverse,
    symmetric_by_full_difference,
)


def assert_within_forward_error(product, a, b):
    """|AB - oracle| <= 2 k eps (|A| |B|) elementwise, in any summation order."""
    k = a.shape[1]
    bound = 2 * k * np.finfo(np.float64).eps * matmul_triple_loop(np.abs(a), np.abs(b))
    assert np.all(np.abs(product - matmul_triple_loop(a, b)) <= bound)


class TestMatmul:
    def test_identity_times_any(self, rng):
        a = rng.normal(size=(2, 2))
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)
        np.testing.assert_array_equal(matmul(a, np.eye(2)), a)

    def test_hand_arithmetic(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_matches_triple_loop_within_forward_error_bound(self, rng):
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        assert_within_forward_error(matmul(a, b), a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 24),
        k=st.integers(1, 24),
        n=st.integers(1, 24),
        seed=st.integers(0, 2**31),
    )
    def test_triple_loop_forward_error_property(self, m, k, n, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=(m, k))
        b = r.normal(size=(k, n))
        assert_within_forward_error(matmul(a, b), a, b)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            matmul(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_identity_sandwich_property(self, rng):
        for _ in range(20):
            a = rng.normal(size=rng.integers(1, 8, size=2))
            np.testing.assert_array_equal(matmul(np.eye(a.shape[0]), a), a)
            np.testing.assert_array_equal(matmul(a, np.eye(a.shape[1])), a)


class TestFrobenius:
    def test_zero_matrix(self):
        assert frobenius_sq(np.zeros((3, 4))) == 0.0

    def test_hand_arithmetic(self):
        assert frobenius_sq([[3.0, 4.0]]) == 25.0

    def test_matches_scalar_loop_exactly(self, rng):
        # small integers: every square and partial sum is exact in any order
        a = rng.integers(-50, 51, size=(4, 4)).astype(np.float64)
        assert frobenius_sq(a) == frobenius_scalar(a)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 64), seed=st.integers(0, 2**31))
    def test_scalar_loop_property(self, rows, cols, seed):
        # n rounded squares summed in any order land within n*eps of the exact sum
        # (relative), so two orders agree to 2*n*eps
        a = np.random.default_rng(seed).normal(size=(rows, cols))
        expected = frobenius_scalar(a)
        bound = 2 * a.size * np.finfo(np.float64).eps * expected
        assert abs(frobenius_sq(a) - expected) <= bound

    def test_repeats_bit_for_bit(self, rng):
        a = rng.normal(size=(181, 400))
        assert len({frobenius_sq(a) for _ in range(5)}) == 1


class TestCholeskySolve:
    def test_identity_hessian(self, rng):
        r = rng.normal(size=(3, 3))
        np.testing.assert_allclose(cholesky_solve(np.eye(3), r), r, rtol=0, atol=1e-14)

    def test_scalar_scaling(self):
        out = cholesky_solve(2.0 * np.eye(3), [[2.0, 4.0, 6.0]])
        np.testing.assert_allclose(out, [[1.0, 2.0, 3.0]], rtol=0, atol=1e-14)

    def test_matches_explicit_inverse(self, rng):
        h = random_spd(rng, 6)
        r = rng.normal(size=(4, 6))
        expected = solve_right_via_inverse(h, r)
        got = cholesky_solve(h, r)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_residual_bound_1000_random_spd(self, rng):
        for _ in range(1000):
            d = int(rng.integers(1, 33))
            h = random_spd(rng, d)
            r = rng.normal(size=(int(rng.integers(1, 5)), d))
            s = cholesky_solve(h, r)
            residual = np.sqrt(frobenius_sq(s @ h - r))
            assert residual <= 1e-8 * (1.0 + np.sqrt(frobenius_sq(r)))

    def test_non_positive_pivot_names_index(self):
        h = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(SingularMatrixError) as err:
            cholesky_solve(h, np.ones((1, 3)))
        assert err.value.pivot == 2
        assert "2" in str(err.value)

    def test_rejects_asymmetric(self, rng):
        h = random_spd(rng, 4)
        h[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_solve(h, np.ones((1, 4)))


def check_symmetric_accepts(h):
    try:
        with np.errstate(invalid="ignore"):
            check_symmetric(h)
    except ValueError as exc:
        assert "not symmetric" in str(exc)
        return False
    return True


class TestCheckSymmetric:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 5, 64, 181, 200, 300]),
        seed=st.integers(0, 2**31),
        gap=st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0, 1e6]),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    def test_accepts_and_rejects_as_the_full_difference(self, d, seed, gap, special):
        rng = np.random.default_rng(seed)
        h = random_spd(rng, d)
        scale = float(np.abs(h).max())
        i, j = sorted(rng.integers(0, d, size=2))
        h[i, j] += gap * 1e-9 * scale * rng.choice([-1.0, 1.0])
        if special is not None:
            k, m = rng.integers(0, d, size=2)
            h[k, m] = special
            if rng.integers(2):
                h[m, k] = special
        assert check_symmetric_accepts(h) == symmetric_by_full_difference(h)

    @pytest.mark.parametrize("d", [3, CHUNK_ELEMENTS // 100 + 7])
    def test_panels_cover_every_row(self, d):
        # one panel, or several with a short last one: each row's first and
        # last entries right of the diagonal are checked
        for i in range(d - 1):
            for j in {i + 1, d - 1}:
                g = np.eye(d)
                g[i, j] = 1e-3
                assert not check_symmetric_accepts(g)
                assert not check_symmetric_accepts(g.T)

    def test_forms_no_square_temporary(self):
        tracemalloc = pytest.importorskip("tracemalloc")
        d = 1024
        h = random_spd(np.random.default_rng(0), d)
        tracemalloc.start()
        try:
            check_symmetric(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes // 8

    def test_not_square_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            check_symmetric(np.zeros((2, 3)))


class TestCholeskyInverseUpper:
    @pytest.mark.parametrize("d", [63, 64, 65, 300])
    def test_exactly_zero_below_the_diagonal(self, d):
        # leaves and off-diagonal blocks alike: +0.0 below the diagonal, never -0.0
        u = cholesky_inverse_upper(random_spd(np.random.default_rng(d), d, extra=d + 4))
        below = u[np.tril_indices(d, -1)]
        assert not below.any() and not np.signbit(below).any()

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 64), seed=st.integers(0, 2**31))
    def test_factor_of_the_inverse_matches_oracle(self, d, seed):
        h = random_spd(np.random.default_rng(seed), d, extra=d + 4)
        before = h.copy()
        u = cholesky_inverse_upper(h)
        np.testing.assert_array_equal(h, before)
        np.testing.assert_array_equal(u, np.triu(u))
        assert np.all(np.diag(u) > 0)
        np.testing.assert_allclose(u.T @ u @ h, np.eye(d), rtol=0, atol=1e-10)
        oracle = cholesky_inverse_upper_via_inverse(h)
        assert np.abs(u - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("d", [129, 200, 300])
    def test_block_recursive_inverse_matches_oracles(self, d):
        # widths above 64 take the 2x2 block recursion of the factor and its inverse
        rng = np.random.default_rng(d)
        h = random_spd(rng, d, extra=d + 4)
        u = cholesky_inverse_upper(h)
        np.testing.assert_array_equal(u, np.triu(u))
        oracle = cholesky_inverse_upper_via_inverse(h)
        assert np.abs(u - oracle).max() <= 1e-12 * np.abs(oracle).max()
        r = rng.normal(size=(3, d))
        expected = solve_right_via_inverse(h, r)
        np.testing.assert_allclose(cholesky_solve(h, r), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("d", [129, 300, 385, 512])
    def test_ill_conditioned_matches_longdouble_reference(self, d):
        # the damped curvature of the blocked-rounding checks in test_solver
        h = ill_conditioned_gram(np.random.default_rng(d), d)
        h = h + 0.01 * float(np.mean(np.diag(h))) * np.eye(d)
        u = cholesky_inverse_upper(h)
        ref = cholesky_inverse_upper_longdouble(h)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_positive_pivot_names_original_column(self):
        with pytest.raises(SingularMatrixError) as err:
            cholesky_inverse_upper(np.diag([1.0, -1.0, 1.0, 1.0, 1.0]))
        assert err.value.pivot == 2
        assert "index 2" in str(err.value)


def non_pd_inside_the_schur_complement(d=200, pivot=151):
    """An SPD matrix whose leading minor of order `pivot` is made negative, so
    that, eliminating columns in natural order, `pivot` is the first
    non-positive pivot (1-based)."""
    h = random_spd(np.random.default_rng(pivot), d, extra=d + 4)
    j = pivot - 1
    schur_pivot = 1.0 / np.linalg.inv(h[:pivot, :pivot])[j, j]
    h[j, j] -= 2.0 * schur_pivot
    return h


class TestBlockCholesky:
    """cholesky_inverse_upper runs one 2x2 block recursion whose blocks of at most
    64 columns go to numpy.linalg; on J h J (J the reversal) the recursion factors
    h itself in natural column order."""

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 127, 129, 300, 385, 512])
    def test_factor_and_inverse_match_oracles(self, d):
        h = ill_conditioned_gram(np.random.default_rng(d), d)
        h = h + 0.01 * float(np.mean(np.diag(h))) * np.eye(d)
        before = h.copy()
        u = cholesky_inverse_upper(h)
        u_rev = cholesky_inverse_upper(h[::-1, ::-1])
        np.testing.assert_array_equal(h, before)
        for m in (u, u_rev):
            assert not np.tril(m, -1).any()
        # inv(U) for h = U^T U is (J u_rev J)^T, the recursion's own output on h
        refs = [
            (u_rev, cholesky_inverse_upper_longdouble(h[::-1, ::-1])),
            (u, cholesky_inverse_upper_via_inverse(h)),
            (u, cholesky_inverse_upper_longdouble(h)),
        ]
        for got, ref in refs:
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_pd_pivot_inside_the_schur_complement_is_named(self):
        # reversed, the recursion factors the matrix in natural order: d=200 splits as
        # [0:100] and [100:200], and pivot 151 is the first column of the leaf [150:200],
        # factored from the Schur complement of the first 150 columns; it is column
        # 200 + 1 - 151 of the reversed matrix
        h = non_pd_inside_the_schur_complement()[::-1, ::-1]
        with pytest.raises(SingularMatrixError, match="at index 50$") as err:
            cholesky_inverse_upper(h)
        assert err.value.pivot == 50
        with pytest.raises(SingularMatrixError) as err:
            cholesky_solve(h, np.ones((1, 200)))
        assert err.value.pivot == 50

    def test_pivot_comes_from_the_failing_block(self, monkeypatch):
        """The pivot is named even where dpotrf of the whole matrix succeeds, as it
        can when rounding puts a pivot near zero on different sides of zero."""
        h = non_pd_inside_the_schur_complement()[::-1, ::-1]
        real = lapack.dpotrf

        def whole_matrix_succeeds(a, *args, **kwargs):
            out = real(a, *args, **kwargs)
            return (out[0], 0) if len(a) == len(h) else out

        monkeypatch.setattr(lapack, "dpotrf", whole_matrix_succeeds)
        with pytest.raises(SingularMatrixError) as err:
            cholesky_inverse_upper(h)
        assert err.value.pivot == 50

    def test_reversed_factor_names_the_column_of_h(self):
        # unreversed, elimination runs from the last column: the named pivot is the
        # first k, counting down, whose trailing minor h[k-1:, k-1:] is not positive
        # definite
        h = non_pd_inside_the_schur_complement()
        trailing = next(
            k for k in range(len(h), 0, -1) if np.linalg.eigvalsh(h[k - 1 :, k - 1 :])[0] <= 0
        )
        with pytest.raises(SingularMatrixError) as err:
            cholesky_inverse_upper(h)
        assert err.value.pivot == trailing == 151

    @pytest.mark.parametrize(
        "factor",
        [cholesky_inverse_upper, lambda h: cholesky_solve(h, np.ones((1, len(h))))],
        ids=["cholesky_inverse_upper", "cholesky_solve"],
    )
    def test_rank_deficient_gram_raises(self, factor):
        x = np.random.default_rng(3).normal(size=(200, 150))  # rank 150 < 200
        with pytest.raises(SingularMatrixError):
            factor(x @ x.T)


def run_python(script: str) -> str:
    """stdout of `script` in a fresh interpreter that imports pmq from this checkout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return done.stdout


class TestOneBlasPool:
    """Factorizations share numpy's BLAS: scipy.linalg (which loads its own
    BLAS and thread pool) is imported only to name a failing pivot."""

    def test_import_pmq_leaves_scipy_linalg_unloaded(self):
        out = run_python(
            """
            import sys
            import pmq
            print("scipy.linalg" in sys.modules)
            """
        )
        assert out.split() == ["False"]

    def test_layer_solve_leaves_scipy_linalg_unloaded(self):
        out = run_python(
            """
            import sys
            import numpy as np
            from pmq.calib import LayerCalibStats
            from pmq.linalg import SingularMatrixError, cholesky_inverse_upper
            from pmq.quant import QuantConfig
            from pmq.solver import solve_layer

            rng = np.random.default_rng(0)
            d, d_out = 300, 16
            xs = [rng.normal(size=(d, d + 16)) for _ in range(2)]
            stats = LayerCalibStats(hessians=[x @ x.T for x in xs], d=d)
            wm = rng.normal(size=(d_out, d)) / np.sqrt(d)
            experts = [wm + 0.1 * rng.normal(size=(d_out, d)) / np.sqrt(d) for _ in range(2)]
            solve_layer(experts, wm, stats, QuantConfig(bits=4, group_size=128, solver="epmq"))
            print("scipy.linalg" in sys.modules)
            try:
                cholesky_inverse_upper(np.diag([1.0, -1.0, 1.0]))
            except SingularMatrixError as exc:
                print(exc.pivot)
            """
        )
        assert out.split() == ["False", "2"]
