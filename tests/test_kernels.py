import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import krrlab.kernels as kernels

from krrlab import (Dataset, KernelSpec, KernelEvaluationError, QuerySample,
                    SingularKernelError, cross_kernel_matrix, excess_risk_mc, kernel_matrix,
                    krr_fit, krr_predict, make_covariance, sample_dataset, solve_regularized,
                    TargetSpec)


def _synth(n, d, seed=0, kind="harmonic", sigma=1.0):
    cov = make_covariance(d, kind)
    return sample_dataset(cov, n, TargetSpec(noise_sigma=sigma), seed)


class TestDataset:
    @pytest.mark.parametrize("X", [np.zeros(3), np.zeros((0, 2)), np.zeros((3, 0)),
                                   np.zeros((3, 2, 1))], ids=["1-d", "no-rows", "no-columns", "3-d"])
    def test_features_must_be_a_nonempty_matrix(self, X):
        with pytest.raises(ValueError, match="features must be a nonempty 2-d matrix"):
            Dataset(X, np.zeros(X.shape[0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(3), np.zeros(2))

    def test_nonfinite_rejected(self):
        X = np.eye(2)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(X, np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("cls", [Dataset, QuerySample])
    def test_stored_arrays_are_read_only_views(self, cls):
        # checked once, when built: no write through the dataset gets past
        # the check, and the caller's arrays, shared where no copy is needed,
        # stay writable
        X, y = np.arange(6.0).reshape(3, 2), np.ones(3)
        data = cls(X, y)
        assert np.shares_memory(data.features, X) and np.shares_memory(data.responses, y)
        for array in (data.features, data.responses):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.nan
        X[0, 0], y[0] = -1.0, 2.0
        assert X.flags.writeable and y.flags.writeable


class TestKernelMatrix:
    def test_linear_orthogonal_unit_rows(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        K = kernel_matrix(KernelSpec.linear(), data)
        assert np.allclose(K, [[0.5, 0.0], [0.0, 0.5]])

    def test_gaussian_unit_diagonal(self):
        data, _ = _synth(12, 30)
        K = kernel_matrix(KernelSpec.gaussian(), data)
        assert np.allclose(np.diag(K), 1.0)

    def test_polynomial_identical_points(self):
        # two copies of x with ||x||^2/d = 1 -> off-diagonal (1+1)^3 = 8
        d = 4
        x = np.ones(d)
        data = Dataset(np.vstack([x, x]), np.zeros(2))
        K = kernel_matrix(KernelSpec.polynomial(3), data)
        assert K[0, 1] == pytest.approx(8.0)

    def test_exact_symmetry_and_near_psd(self):
        for variant in (KernelSpec.linear(), KernelSpec.polynomial(3),
                        KernelSpec.exponential_inner(), KernelSpec.gaussian()):
            data, _ = _synth(40, 80, seed=3)
            K = kernel_matrix(variant, data)
            assert np.array_equal(K, K.T)
            w = np.linalg.eigvalsh(K)
            assert w[0] >= -1e-8 * np.abs(w).max()

    def test_nonfinite_value_names_entry(self):
        def h(t):
            with np.errstate(divide="ignore"):
                return np.asarray(1.0 / t)

        bad = KernelSpec.custom("inner_product", h=h, h1=lambda t: 0.0,
                                h2=lambda t: 0.0)
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(KernelEvaluationError) as exc:
            kernel_matrix(bad, data)     # off-diagonal argument is 0 -> inf
        assert exc.value.i != exc.value.j


    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(), KernelSpec.polynomial(3)])
    def test_upper_triangle_mirrored_to_the_bit(self, spec):
        data, _ = _synth(37, 20, seed=6)
        want = np.asarray(spec.h(_full_argument(spec, data.features)), dtype=float)
        iu = np.triu_indices_from(want, k=1)
        want[(iu[1], iu[0])] = want[iu]
        K = kernel_matrix(spec, data)
        assert K.tobytes() == want.tobytes()
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    @pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.polynomial(3),
                                      KernelSpec.exponential_inner(), KernelSpec.gaussian()],
                             ids=["linear", "polynomial", "exponential_inner", "gaussian"])
    def test_gram_symmetric_to_the_bit_without_mirroring(self, spec, n):
        data, _ = _synth(n, 50, seed=n)
        K = kernel_matrix(spec, data)
        assert np.array_equal(K, K.T)


class TestCrossKernel:
    def test_consistent_with_gram(self):
        data, _ = _synth(10, 25, seed=1)
        spec = KernelSpec.gaussian()
        K = kernel_matrix(spec, data)
        v = cross_kernel_matrix(spec, data, data.features[0][None])[0]
        assert v[0] == pytest.approx(K[0, 0], rel=1e-12)

    def test_linear_zero_query(self):
        data, _ = _synth(8, 16, seed=2)
        v = cross_kernel_matrix(KernelSpec.linear(), data, np.zeros(16)[None])[0]
        assert np.allclose(v, 0.0)

    def test_gaussian_far_query(self):
        data = Dataset(np.zeros((3, 1)), np.zeros(3))
        v = cross_kernel_matrix(KernelSpec.gaussian(), data, np.array([10.0])[None])[0]
        assert np.allclose(v, np.exp(-100.0))

    def test_dimension_mismatch(self):
        data, _ = _synth(5, 10)
        with pytest.raises(ValueError):
            cross_kernel_matrix(KernelSpec.gaussian(), data, np.zeros(9)[None])


class TestKrr:
    def test_huge_lambda_shrinks_to_zero(self):
        data, _ = _synth(20, 40, seed=4)
        model = krr_fit(KernelSpec.gaussian(), data, 1e12)
        pred = krr_predict(model, data.features)
        assert np.max(np.abs(pred)) <= 1e-9

    def test_ridgeless_interpolates(self):
        data, _ = _synth(30, 60, seed=5)
        spec = KernelSpec.gaussian()
        model = krr_fit(spec, data, 0.0)
        pred = krr_predict(model, data.features)
        assert np.max(np.abs(pred - data.responses)) <= 1e-6 * np.max(np.abs(data.responses))

    def test_single_point_closed_form(self):
        # n=1 linear kernel: f(x) = (<x, x1>/d) * y1 / (s + lambda)
        d, lam = 3, 0.7
        x1 = np.array([1.0, 2.0, -1.0])
        s = x1 @ x1 / d
        y1 = 2.5
        data = Dataset(x1[None, :], [y1])
        spec = KernelSpec.linear()
        model = krr_fit(spec, data, lam)
        x = np.array([0.5, -1.0, 2.0])
        expect = (x @ x1 / d) * y1 / (s + lam)
        assert krr_predict(model, x[None, :])[0] == pytest.approx(expect, rel=1e-12)

    def test_linear_in_responses(self):
        data, _ = _synth(15, 30, seed=6)
        spec = KernelSpec.polynomial(2)
        q = _synth(5, 30, seed=7)[0].features
        p1 = krr_predict(krr_fit(spec, data, 1e-3), q)
        doubled = Dataset(data.features, 2.0 * data.responses)
        p2 = krr_predict(krr_fit(spec, doubled, 1e-3), q)
        assert np.allclose(p2, 2.0 * p1, rtol=1e-10)
        other = Dataset(data.features, np.sin(np.arange(15.0)))
        p3 = krr_predict(krr_fit(spec, other, 1e-3), q)
        both = Dataset(data.features, 2.0 * data.responses + other.responses)
        p4 = krr_predict(krr_fit(spec, both, 1e-3), q)
        assert np.allclose(p4, 2.0 * p1 + p3, rtol=1e-10)

    def test_predict_uses_the_fitted_spec(self):
        data, _ = _synth(12, 20, seed=9)
        q = _synth(4, 20, seed=10)[0].features
        for spec in (KernelSpec.gaussian(), KernelSpec.polynomial(2)):
            model = krr_fit(spec, data, 1e-2)
            want = cross_kernel_matrix(spec, data, q) @ model.dual_coef
            assert np.array_equal(krr_predict(model, q), want)
        with pytest.raises(ValueError, match="width"):
            krr_predict(model, np.zeros((2, 19)))

    def test_fit_leaves_the_responses_untouched(self):
        # the in-place solve writes its solution over its right-hand side,
        # which must be a copy of the dataset's responses
        data, _ = _synth(30, 20, seed=11)
        before = data.responses.copy()
        model = krr_fit(KernelSpec.gaussian(), data, 1e-3)
        assert np.array_equal(data.responses, before)
        assert not np.shares_memory(model.dual_coef, data.responses)

    def test_diagonal_two_point_toy(self):
        # K = I, n*lambda = 1, y = (2, 0), k(x, X) = (1, 0) -> prediction 1
        c = solve_regularized(np.eye(2), 1.0, np.array([2.0, 0.0]))
        assert np.array([1.0, 0.0]) @ c == pytest.approx(1.0)

    def test_negative_lambda_rejected(self):
        data, _ = _synth(5, 10)
        with pytest.raises(ValueError):
            krr_fit(KernelSpec.gaussian(), data, -1e-3)


class TestSolver:
    def test_matches_iterative_solver(self):
        data, _ = _synth(50, 100, seed=8)
        spec = KernelSpec.gaussian()
        K = kernel_matrix(spec, data)
        lam = 1e-3
        A = K + data.n * lam * np.eye(data.n)
        c = solve_regularized(K, data.n * lam, data.responses.copy())
        c_it, info = scipy.sparse.linalg.cg(A, data.responses, rtol=1e-12, maxiter=10_000)
        assert info == 0
        assert np.linalg.norm(c - c_it) <= 1e-6 * np.linalg.norm(c_it)

    def test_equals_factor_of_explicit_system(self):
        # the shift goes onto K's own diagonal; the result is that of
        # factoring K + ridge*I built with an identity matrix, bit for bit
        data, _ = _synth(40, 30, seed=9)
        K = kernel_matrix(KernelSpec.gaussian(), data)
        rhs = np.column_stack([data.responses, np.arange(40.0)])
        want = _explicit_solve(K, 0.37, rhs)
        assert solve_regularized(K, 0.37, rhs).tobytes() == want.tobytes()

    def test_singular_system_reports_eigenvalue(self):
        K = -np.ones((4, 4))        # not a kernel; forces factorization failure
        with pytest.raises(SingularKernelError) as exc:
            solve_regularized(K, 0.0, np.ones(4))
        assert exc.value.smallest_eigenvalue < 0


def _record_factored(monkeypatch):
    """Copies of every matrix handed to scipy's cho_factor, in call order."""
    seen = []
    factor = scipy.linalg.cho_factor

    def record(A, **kwargs):
        seen.append(np.array(A))
        return factor(A, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", record)
    return seen


def _shifted_reference(K, shift):
    A = K.copy()
    A[np.diag_indices(K.shape[0])] += shift
    return A


def _explicit_solve(K, shift, rhs):
    """scipy's cho_factor and cho_solve of K + shift*I, on copies."""
    cf = scipy.linalg.cho_factor(_shifted_reference(K, shift), lower=True, check_finite=False)
    return scipy.linalg.cho_solve(cf, rhs, check_finite=False)


class TestOverwriteSolve:
    """`solve_regularized` factors K in place and solves over rhs; its bytes
    must equal an explicit cho_factor/cho_solve of K + ridge*I.  n=300 spans
    two column blocks of the lower-triangle restore."""

    N = 300

    def _gram(self, seed=12):
        data, _ = _synth(self.N, 40, seed=seed)
        return kernel_matrix(KernelSpec.gaussian(), data), data.responses

    def test_plain_solve_equals_explicit_cholesky(self):
        K, y = self._gram()
        rhs = np.asfortranarray(np.column_stack([y, np.arange(self.N, dtype=float)]))
        want = _explicit_solve(K, 0.37, rhs)
        got = solve_regularized(K.copy(), 0.37, rhs.copy(order="F"))
        assert got.tobytes() == want.tobytes()
        got = solve_regularized(K.copy(), 0.37, y.copy())
        assert got.tobytes() == _explicit_solve(K, 0.37, y).tobytes()

    def test_solution_overwrites_rhs_and_factor_overwrites_k(self):
        K, y = self._gram()
        work, rhs = K.copy(), np.asfortranarray(np.column_stack([y, y ** 2]))
        sol = solve_regularized(work, 1.0, rhs)
        assert np.shares_memory(sol, rhs)
        assert not np.array_equal(work, K)

    def test_solve_factored_reuses_the_factor_k_holds(self):
        K, y = self._gram()
        work = K.copy()
        solve_regularized(work, 0.37, y.copy())
        rhs = np.asfortranarray(np.column_stack([y ** 2, np.arange(self.N, dtype=float)]))
        want = _explicit_solve(K, 0.37, rhs)
        got = kernels.solve_factored(work, rhs)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, rhs)

    def test_needs_c_contiguous_float64(self):
        K, y = self._gram()
        for bad in (np.asfortranarray(K), K.astype(np.float32), K.tolist()):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                solve_regularized(bad, 1.0, y.copy())

    def test_one_attempt_sees_the_shifted_matrix(self, monkeypatch):
        # K - 5 I + 0.25 I is indefinite: the one factorization must see
        # exactly K + ridge*I, the failure must leave K as it was, and the
        # report is the smallest eigenvalue of K + ridge*I
        K, y = self._gram()
        K[np.diag_indices(self.N)] -= 5.0
        K_before = K.copy()
        seen = _record_factored(monkeypatch)
        with pytest.raises(SingularKernelError) as exc:
            solve_regularized(K, 0.25, y.copy())
        assert len(seen) == 1
        assert seen[0].tobytes() == _shifted_reference(K_before, 0.25).tobytes()
        assert np.array_equal(K, K_before)
        monkeypatch.undo()
        want = np.linalg.eigvalsh(_shifted_reference(K_before, 0.25))[0]
        assert exc.value.smallest_eigenvalue == want

    def test_rank_one_matrix_at_zero_ridge_raises(self):
        # the all-ones matrix has rank 1: its second pivot is exactly 0, and
        # no shift is tried in its place
        K = np.ones((self.N, self.N))
        with pytest.raises(SingularKernelError, match="not positive definite") as exc:
            solve_regularized(K, 0.0, np.arange(self.N, dtype=float))
        assert np.array_equal(K, np.ones((self.N, self.N)))
        assert abs(exc.value.smallest_eigenvalue) < 1e-10


@pytest.mark.parametrize("call", [
    lambda: krr_fit(KernelSpec.gaussian(), _synth(10, 5)[0], np.nan),
    lambda: solve_regularized(np.eye(3), np.nan, np.ones(3)),
    lambda: krr_fit(KernelSpec.gaussian(), _synth(10, 5)[0], np.inf),
    lambda: solve_regularized(np.eye(3), np.inf, np.ones(3)),
], ids=["krr_fit", "solve_regularized", "krr_fit-inf", "solve_regularized-inf"])
def test_nan_ridge_rejected(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call()


def _full_argument(spec, X, Q=None):
    """The kernel argument as one full-matrix expression, the reference for
    the in-place, row-blocked pass of `kernels._kernel_values`, from the same
    scipy products the route forms."""
    d = X.shape[1]
    if Q is None:
        G = kernels.scipy_gram(X) / d
        Q = X
    else:
        G = kernels.scipy_product(X, Q.T).T / d
    if spec.family == "inner_product":
        return G
    sq_x = np.einsum("ij,ij->i", X, X) / d
    sq_q = np.einsum("ij,ij->i", Q, Q) / d
    D = sq_q[:, None] + sq_x[None, :] - 2.0 * G
    np.maximum(D, 0.0, out=D)
    return D


_ALL_SPECS = [KernelSpec.linear(), KernelSpec.polynomial(3), KernelSpec.exponential_inner(),
              KernelSpec.gaussian()]
_SPEC_IDS = ["linear", "polynomial", "exponential_inner", "gaussian"]


class TestInPlaceRowBlocks:
    """Row blocks of 256: n and m on both sides of each block edge."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_SPEC_IDS)
    def test_gram_equals_full_matrix_formula(self, spec, n):
        data, _ = _synth(n, 40, seed=n)
        want = np.asarray(spec.h(_full_argument(spec, data.features)), dtype=float)
        assert kernel_matrix(spec, data).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 300])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_SPEC_IDS)
    def test_cross_kernel_equals_full_matrix_formula(self, spec, n, m):
        data, _ = _synth(n, 40, seed=n)
        Q = _synth(m, 40, seed=n + m)[0].features
        want = np.asarray(spec.h(_full_argument(spec, data.features, Q)), dtype=float)
        assert cross_kernel_matrix(spec, data, Q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_SPEC_IDS)
    def test_gram_symmetric_across_blocks(self, spec):
        data, _ = _synth(600, 40, seed=11)
        K = kernel_matrix(spec, data)
        assert np.array_equal(K, K.T)

    def test_non_finite_entry_reported_past_the_first_block(self):
        X = np.ones((300, 2))
        X[270] = (1e200, 1e200)       # <x_270, x_270>/d overflows to inf
        with pytest.raises(KernelEvaluationError) as exc, np.errstate(over="ignore"):
            kernel_matrix(KernelSpec.linear(), Dataset(X, np.zeros(300)))
        assert (exc.value.i, exc.value.j) == (270, 270)


class TestBlockEdges:
    """Blocks hold `_BLOCK_ENTRIES // n` whole rows: m and n on both sides
    of a block edge, and a Gram matrix of one row per block."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_SPEC_IDS)
    def test_cross_kernel_rows_around_one_block(self, spec, extra):
        n = 400
        m = kernels._BLOCK_ENTRIES // n + extra
        data, _ = _synth(n, 30, seed=21)
        Q = _synth(m, 30, seed=22)[0].features
        want = np.asarray(spec.h(_full_argument(spec, data.features, Q)), dtype=float)
        assert cross_kernel_matrix(spec, data, Q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", _ALL_SPECS, ids=_SPEC_IDS)
    def test_gram_with_one_row_per_block(self, spec, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 70)
        data, _ = _synth(70, 30, seed=23)
        want = np.asarray(spec.h(_full_argument(spec, data.features)), dtype=float)
        K = kernel_matrix(spec, data)
        assert K.tobytes() == want.tobytes()
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("block", [1, 70 * 3, 70 * 70])
    def test_restore_lower_copies_the_upper_triangle(self, block, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block)
        A = np.asfortranarray(np.random.default_rng(block).standard_normal((70, 70)))
        upper = np.triu(A, 1)
        kernels._restore_lower(A)
        assert np.array_equal(np.triu(A, 1), upper)
        assert np.array_equal(np.tril(A, -1), upper.T)


class TestExactCellMemory:
    """Peak traced allocation, in units of n^2 doubles, of the exact cell's
    steps (gaussian, n=1200, d=100, m=300), after scipy.linalg is loaded.
    Holding K and two n x n temporaries, or K and two copies of it in the
    solve, reads 3.0 and 2.0 or more."""

    N, D, M = 1200, 100, 300

    def _peak(self, call):
        solve_regularized(np.eye(3), 1.0, np.ones(3))      # imports scipy.linalg
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (8.0 * self.N ** 2), result

    def _problem(self):
        data, _ = _synth(self.N, self.D, seed=3)
        Q = _synth(self.M, self.D, seed=4)[0].features
        return KernelSpec.gaussian(), data, Q

    def test_kernel_matrix(self):
        spec, data, _ = self._problem()
        peak, _ = self._peak(lambda: kernel_matrix(spec, data))
        assert peak < 1.6

    def test_solve_regularized(self):
        # in place: no n x n copy of K, the factor left in K's upper triangle
        # (the lower one of K.T) and the solution written over rhs
        spec, data, Q = self._problem()
        K = kernel_matrix(spec, data)
        rhs = cross_kernel_matrix(spec, data, Q).T
        cf = scipy.linalg.cho_factor(_shifted_reference(K, 1.0), lower=True)
        peak, sol = self._peak(lambda: solve_regularized(K, 1.0, rhs))
        assert peak < 0.01          # measured 0.0022: two copies of the diagonal
        assert np.shares_memory(sol, rhs)
        assert np.array_equal(np.tril(K.T), np.tril(cf[0]))

    def test_excess_risk_mc(self):
        spec, data, Q = self._problem()
        test = QuerySample(Q, np.sin(Q[:, 0]))
        data = Dataset(data.features, np.sin(data.features[:, 0]))
        peak, est = self._peak(lambda: excess_risk_mc(data, spec, 1.0, 0.5, test, 50, 0))
        assert peak < 2.7
        assert est.variance > 0

    def test_kernel_matrix_one_block_of_scratch(self):
        spec, data, _ = self._problem()
        peak, _ = self._peak(lambda: kernel_matrix(spec, data))
        assert peak < 1.2

    def test_excess_risk_mc_holds_k_and_cross_only(self):
        spec, data, Q = self._problem()
        test = QuerySample(Q, np.sin(Q[:, 0]))
        data = Dataset(data.features, np.sin(data.features[:, 0]))
        peak, _ = self._peak(lambda: excess_risk_mc(data, spec, 1.0, 0.5, test, 50, 0))
        assert peak < 1.5

    def test_excess_risk_mc_streams_a_large_test_sample(self):
        # m = 2n: K, one block of test points (its cross-kernel rows and their
        # scratch) and the m x 51 predictions read 1.33; K with the whole
        # m x n cross kernel and its products read 4.2
        spec, data, _ = self._problem()
        Q = _synth(2 * self.N, self.D, seed=4)[0].features
        test = QuerySample(Q, np.sin(Q[:, 0]))
        data = Dataset(data.features, np.sin(data.features[:, 0]))
        peak, _ = self._peak(lambda: excess_risk_mc(data, spec, 1.0, 0.5, test, 50, 0))
        assert peak < 1.4

    def test_krr_fit_factors_its_own_k(self):
        spec, data, _ = self._problem()
        peak, model = self._peak(lambda: krr_fit(spec, data, 1e-3))
        assert peak < 1.15
        assert model.dual_coef.shape == (self.N,)


def test_unknown_kernel_family_rejected():
    with pytest.raises(ValueError, match="unknown kernel family 'spherical'"):
        KernelSpec("spherical", "custom")
