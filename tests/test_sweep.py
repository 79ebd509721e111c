import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from krrlab import (ConfigError, CurveShape, Dataset, ExperimentConfig,
                    QuerySample, SingularKernelError, TargetSpec, bound_v1,
                    classify_curve, eig_compare, estimate_trace_ratio, evaluate_target,
                    excess_risk_mc, kernel_by_name, kernel_matrix, linearize_params,
                    make_covariance, parse_libsvm, run_sweep, sample_dataset,
                    sample_features)
from krrlab import kernels, sweep
from krrlab.sweep import CSV_HEADER, DataSource, parse_grid

from conftest import dense_lin_with_t, dense_v1_spectrum

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample200.libsvm")


class TestClassifyCurve:
    def test_monotone_decreasing(self):
        assert classify_curve([5, 4, 3, 2, 1]) is CurveShape.MONOTONE_DECREASING

    def test_monotone_increasing(self):
        assert classify_curve([1, 2, 3, 4, 5]) is CurveShape.MONOTONE_INCREASING

    def test_bell(self):
        assert classify_curve([1, 2, 3, 2, 1]) is CurveShape.BELL

    def test_double_descent(self):
        assert classify_curve([3, 1.5, 2.5, 4, 2, 1, 0.5]) is CurveShape.DOUBLE_DESCENT

    def test_flat(self):
        assert classify_curve([1.0, 1.001, 0.999, 1.0, 1.0]) is CurveShape.FLAT

    def test_scale_invariance(self):
        vals = [3, 1.5, 2.5, 4, 2, 1, 0.5]
        for c in (1e-6, 1.0, 1e6):
            assert classify_curve([c * v for v in vals]) is CurveShape.DOUBLE_DESCENT
        bell = [0.276, 0.303, 0.317, 0.327, 0.335, 0.273, 0.259, 0.245, 0.233, 0.221]
        for c in (1e-3, 40.0):
            assert classify_curve([c * v for v in bell]) is CurveShape.BELL

    def test_too_short(self):
        with pytest.raises(ValueError):
            classify_curve([1, 2, 3, 2])
        with pytest.raises(ValueError, match="finite"):      # long enough, but NaN
            classify_curve([1, 2, np.nan, 2, 1, 0.5])


class TestConfig:
    def test_grid_parsing(self):
        assert parse_grid("100:300:100") == [100, 200, 300]
        assert parse_grid([5, 10, 20]) == [5, 10, 20]
        with pytest.raises(ConfigError):
            parse_grid("100:50:10")
        with pytest.raises(ConfigError):
            parse_grid([10, 10])

    def test_unknown_json_keys_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"mode": "synth", "frobnicate": 1}))
        with pytest.raises(ConfigError, match="frobnicate"):
            ExperimentConfig.from_json(str(p))

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"mode": "synth", "kernel": "polynomial",
                                 "n_grid": [50, 100], "d": 120, "trials": 2}))
        cfg = ExperimentConfig.from_json(str(p))
        assert cfg.kernel == "polynomial" and cfg.grid == [50, 100]

    def test_real_mode_needs_input(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="real")

    @pytest.mark.parametrize("field,value", [
        ("noise_draws", 1), ("test_points", 99), ("trials", "2"), ("trials", 2.0),
        ("d", True), ("seed", -1), ("sigma", float("nan")), ("cbar", float("inf")),
        ("theta", "0.5"), ("fixed_lambda", float("nan")),
        ("gamma_override", float("-inf")), ("gamma_override", -0.1),
        ("use_linearized", "false"), ("source_r", 0.0), ("n_grid", [10, True]),
        ("input_path", 3), ("mode", "batch"), ("trials", 0), ("theta", 1.5), ("cbar", -0.5),
        ("n_grid", "10:x:5"), ("kernel", "spline"), ("sigma", 1e160),
        ("fixed_lambda", 1e155), ("gamma_override", 1e200)])
    def test_bad_values_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_scales_at_the_limit_accepted(self):
        assert sweep.SCALE_LIMIT == 1e150
        for field in ("sigma", "fixed_lambda", "gamma_override"):
            assert getattr(ExperimentConfig(**{field: 1e150}), field) == 1e150
        with pytest.raises(ConfigError,
                           match=r"^sigma must lie in \[0, 1e\+150\], got 1.0000001e\+150$"):
            ExperimentConfig(sigma=1.0000001e150)

    def test_every_field_annotation_selects_a_type_check(self):
        # the type checks are keyed by annotation string; the str fields and
        # n_grid are checked by value (kernel_by_name, mode, make_covariance,
        # parse_grid), so a field with any other annotation would go unchecked
        annotations = {f.type for f in dataclasses.fields(ExperimentConfig)}
        assert annotations <= set(sweep._TYPE_CHECKS) | {"str", "object"}

    @pytest.mark.parametrize("kw,field", [
        (dict(standardize=True), "standardize"), (dict(input_path=FIXTURE), "input_path"),
        (dict(input_path=""), "input_path")], ids=["standardize", "input", "empty-input"])
    def test_real_mode_fields_rejected_in_synth_mode(self, kw, field):
        # both were accepted and silently ignored by a synthetic sweep
        with pytest.raises(ConfigError, match=f"{field} applies to real mode only"):
            ExperimentConfig(**kw)

    def test_real_mode_test_points_checked(self):
        with pytest.raises(ConfigError, match="test_points"):
            ExperimentConfig(mode="real", input_path=FIXTURE, test_points=50)

    @pytest.mark.parametrize("kw,match", [
        (dict(decay="exponential", a=-1.0), "a=-1.0"), (dict(decay="cubic"), "unknown decay")],
        ids=["decay-bad-a", "decay-kind"])
    def test_inputs_that_failed_downstream_are_rejected_here(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(kernel="linear", cbar=0.0, gamma_override=0.5),
        dict(cbar=0.0, gamma_override=None), dict(use_linearized=False, cbar=0.0),
        dict(mode="real", input_path=FIXTURE, decay="cubic", d=24),
        # a ridgeless cell is the min-norm interpolant, with or without noise:
        # V1 takes the same filter and V2 is inf
        dict(kernel="linear", cbar=0.0), dict(kernel="polynomial", degree=1, cbar=0.0),
        dict(cbar=0.0, gamma_override=0.0, sigma=1.0),
        dict(cbar=0.0, gamma_override=0.0, sigma=0.0)],
        ids=["linear-override", "implicit-gamma", "exact-gaussian", "real-ignores-decay",
             "linear-linearized", "affine", "spectral-noisy", "spectral-noiseless"])
    def test_ridgeless_and_real_configs_that_run_are_accepted(self, kw):
        ExperimentConfig(**kw)

    @pytest.mark.parametrize("kw", [dict(gamma_override=0.0), dict(gamma_override=0.5)],
                             ids=["gamma-zero", "gamma-positive"])
    def test_linearized_fields_rejected_for_the_exact_kernel(self, kw):
        # exact cells and exact eig_compare read no gamma override
        with pytest.raises(ConfigError, match="gamma_override applies to linearized fits only"):
            ExperimentConfig(use_linearized=False, **kw)

    def test_curvature_is_not_a_field(self):
        # every linearized cell fits the core without T; eig_compare's
        # linearized spectrum always includes it
        assert len(dataclasses.fields(ExperimentConfig)) == 21
        with pytest.raises(TypeError, match="lin_curvature"):
            ExperimentConfig(lin_curvature=True)

    def test_json_string_count_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"trials": "2"}))
        with pytest.raises(ConfigError, match="trials must be an integer"):
            ExperimentConfig.from_json(str(p))


def _small_config(**kw):
    base = dict(mode="synth", kernel="gaussian", d=60, n_grid=[30, 60, 90],
                cbar=0.01, theta=2 / 3, gamma_override=0.0, sigma=1.0, trials=2,
                seed=5, test_points=150, noise_draws=8)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunSweep:
    def test_deterministic_csv(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        _, text1 = run_sweep(_small_config(output_path=out1))
        _, text2 = run_sweep(_small_config(output_path=out2))
        assert text1 == text2
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert text1.splitlines()[0] == CSV_HEADER

    def test_zero_noise_kills_variance_column(self):
        points, _ = run_sweep(_small_config(sigma=0.0))
        assert all(p.var_emp == 0.0 and p.v1_bound == 0.0 for p in points)

    @pytest.mark.parametrize("kw", [dict(kernel="linear", use_linearized=False),
                                    dict(kernel="gaussian"),
                                    dict(kernel="gaussian", use_linearized=False)],
                             ids=["exact-linear", "linearized-gaussian", "exact-gaussian"])
    def test_zero_noise_has_zero_stderr(self, kw):
        # every noise draw gives the same risk, so the stderr is 0, not the
        # roundoff np.std reads against their mean (2e-18 to 6e-18 here)
        cfg = ExperimentConfig(d=20, n_grid=[10, 30, 50], trials=9, seed=4, sigma=0.0,
                               test_points=100, noise_draws=50, **kw)
        points, text = run_sweep(cfg)
        assert [p.mc_stderr for p in points] == [0.0] * 3
        assert [row.split(",")[-1] for row in text.splitlines()[1:]] == ["0"] * 3

    def test_schedule_column(self):
        points, _ = run_sweep(_small_config())
        for p in points:
            assert p.lam == pytest.approx(0.01 * p.n ** (-2 / 3))
            assert np.isfinite([p.bias_emp, p.var_emp, p.risk_emp, p.v1_bound,
                                p.v2_bound, p.bias_ref, p.mc_stderr]).all()

    def test_fixed_lambda_mode(self):
        points, _ = run_sweep(_small_config(fixed_lambda=1e-2))
        assert all(p.lam == 1e-2 for p in points)
        assert all(p.bias_ref == 1.0 for p in points)

    def test_identity_within_stderr(self):
        points, _ = run_sweep(_small_config(noise_draws=40, trials=3))
        for p in points:
            assert abs(p.risk_emp - p.bias_emp - p.var_emp) <= 4 * p.mc_stderr

    def test_lin_params_once_per_synth_sweep(self, monkeypatch):
        calls = []
        monkeypatch.setattr("krrlab.sweep.linearize_params",
                            lambda *a: calls.append(a) or linearize_params(*a))
        run_sweep(_small_config())
        assert len(calls) == 1

    def test_real_mode_needs_held_out_rows(self):
        cfg = ExperimentConfig(mode="real", input_path=FIXTURE, d=24, n_grid=[50, 150],
                               trials=1, test_points=100, noise_draws=2)
        with pytest.raises(ConfigError, match="needs 250 rows for n = 150"):
            run_sweep(cfg)
        assert eig_compare(cfg, n=200, k=5).eig_true.size == 5

    def test_real_mode_on_fixture(self, tmp_path):
        cfg = ExperimentConfig(mode="real", input_path=FIXTURE, d=24,
                               n_grid=[40, 70, 100], kernel="gaussian",
                               trials=2, test_points=100, noise_draws=5,
                               sigma=1.0, seed=0, standardize=True)
        points, text = run_sweep(cfg)
        assert len(points) == 3
        for p in points:
            assert np.isfinite([p.bias_emp, p.var_emp, p.risk_emp, p.v1_bound]).all()
        assert text.startswith(CSV_HEADER)


def _direct_points(cfg):
    """bias, variance, risk, stderr and V1 per grid row, recomputed cell by
    cell through the Cholesky route excess_risk_mc (the LinParams' dense Gram
    matrix and cross kernel when linearized) and the n x n V1 spectrum, on
    the same per-cell streams as run_sweep.  Synth mode draws from the
    covariance; real mode takes DataSource's training sets and test samples
    and plugs each cell's LinParams in from its rows.  A gamma_override
    replaces the LinParams' gamma."""
    spec = kernel_by_name(cfg.kernel, cfg.degree)
    if cfg.mode == "synth":
        cov = make_covariance(cfg.d, cfg.decay, cfg.a)
        target = TargetSpec(noise_sigma=cfg.sigma)
        synth_params = linearize_params(spec, cov.tau, cov.trace_ratio)
        test_X = sample_features(cov, cfg.test_points, np.random.default_rng([cfg.seed, 7, 1]))
        test = QuerySample(test_X, evaluate_target(target, test_X))
    else:
        source = DataSource(cfg, cfg.grid[-1])
    rows = []
    for n in cfg.grid:
        ridge = (cfg.fixed_lambda if cfg.fixed_lambda is not None
                 else n * (cfg.cbar * n ** -cfg.theta))
        cells = []
        for t in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, n, t])
            if cfg.mode == "synth":
                data, clean = sample_dataset(cov, n, target, rng)
                data, params = Dataset(data.features, clean), synth_params
            else:
                data, test = source.train(n, t, rng), source.test(t)
                X = data.features
                tau = float(np.mean(np.sum(X * X, axis=1))) / cfg.d
                params = linearize_params(spec, tau, estimate_trace_ratio(X))
            if cfg.gamma_override is not None:
                params = dataclasses.replace(params, gamma=cfg.gamma_override)
            est = excess_risk_mc(data, params if cfg.use_linearized else spec, ridge,
                                 cfg.sigma, test, cfg.noise_draws, rng)
            v1 = bound_v1(dense_v1_spectrum(params, data), params.beta, cfg.d,
                          ridge + params.gamma, cfg.sigma)
            cells.append((est.bias, est.variance, est.risk, est.mc_stderr ** 2, v1))
        b, v, r, se2, v1 = np.mean(cells, axis=0)
        rows.append((b, v, r, np.sqrt(se2 / cfg.trials), v1))
    return rows


# real-mode sweeps on the fixture, whose grid straddles n = d+1
REAL = dict(mode="real", input_path=FIXTURE, d=24, n_grid=[20, 60, 90], test_points=100)


def _sweep_rows(points):
    return [(p.bias_emp, p.var_emp, p.risk_emp, p.mc_stderr, p.v1_bound) for p in points]


class TestSweepRoutes:
    @pytest.mark.parametrize("kw", [
        dict(use_linearized=False, gamma_override=None),
        dict(kernel="linear", use_linearized=False, gamma_override=None),
        dict(kernel="polynomial", degree=1, use_linearized=False, gamma_override=None),
        dict(REAL, use_linearized=False, gamma_override=None)],
        ids=["exact", "exact-linear", "exact-polynomial-1", "exact-real"])
    def test_cholesky_routes_equal_direct_computation(self, kw):
        # the exact affine sweeps take the spectral route; their worst gap
        # to the dense Cholesky cells here is 1.5e-14
        cfg = _small_config(**kw)
        points, _ = run_sweep(cfg)
        for got, want in zip(_sweep_rows(points), _direct_points(cfg)):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kw", [dict(), dict(kernel="polynomial", fixed_lambda=1e-2),
                                    dict(kernel="linear", gamma_override=None),
                                    dict(REAL), dict(REAL, gamma_override=None)],
                             ids=["gaussian-schedule", "polynomial-fixed", "linear",
                                  "real-gamma-0", "real-implicit-gamma"])
    def test_spectral_route_matches_cholesky_route(self, kw):
        # grid 30, 60, 90 at d=60 straddles n = d+1, so both sides are swept
        cfg = _small_config(**kw)
        points, _ = run_sweep(cfg)
        for got, want in zip(_sweep_rows(points), _direct_points(cfg)):
            assert got == pytest.approx(want, rel=1e-9)


class TestCholeskyV1Spectrum:
    """Exact cells read V1 off the (d+1) x (d+1) F^T F, not an n x n
    eigensolve, once n > d+1, and no eigensolve is larger."""

    @pytest.mark.parametrize("kw", [dict(use_linearized=False, gamma_override=None)],
                             ids=["exact"])
    def test_spectrum_comes_from_the_small_side(self, kw, monkeypatch):
        cfg = _small_config(**kw)           # grid 30, 60, 90 at d=60 crosses n = d+1
        p = cfg.d + 1
        shapes, draws, spectra = [], [], []

        def spy(fn, record):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                record(args, out)
                return out
            return wrapper

        for module in (np.linalg, scipy.linalg):     # exact cells decompose on scipy's
            for name in ("eigvalsh", "eigh"):
                monkeypatch.setattr(module, name, spy(getattr(module, name),
                                                      lambda a, out: shapes.append(a[0].shape)))
        monkeypatch.setattr("krrlab.sweep.sample_dataset",
                            spy(sample_dataset, lambda a, out: draws.append(out[0])))
        monkeypatch.setattr("krrlab.sweep.bound_v1",
                            spy(bound_v1, lambda a, out: spectra.append(np.asarray(a[0]))))
        run_sweep(cfg)

        assert max(max(s) for s in shapes) <= p
        assert shapes.count((p, p)) >= cfg.trials
        cov = make_covariance(cfg.d, cfg.decay, cfg.a)
        params = linearize_params(kernel_by_name(cfg.kernel, cfg.degree), cov.tau,
                                  cov.trace_ratio)
        wide = [(data, spec) for data, spec in zip(draws, spectra) if data.n > p]
        assert len(wide) == cfg.trials
        for data, spectrum in wide:
            n = data.n
            assert spectrum.shape == (n,)
            assert np.count_nonzero(spectrum == 0.0) >= n - p
            F = np.column_stack([np.full(n, np.sqrt(params.alpha)),
                                 np.sqrt(params.beta / cfg.d) * data.features])
            want = scipy.linalg.svdvals(F) ** 2
            assert spectrum[:p] == pytest.approx(want, rel=1e-12)
            assert not spectrum[p:].any()


def test_exact_real_sweep_runs_without_numpy_linalg(monkeypatch):
    # every decomposition of an exact cell, V1's at n <= d+1 and n > d+1
    # included, runs on scipy's LAPACK, so none may reach numpy.linalg
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called in an exact cell")

    for name in ("eigh", "eigvalsh", "qr", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cfg = _small_config(mode="real", input_path=FIXTURE, d=24, standardize=True,
                        use_linearized=False, gamma_override=None, n_grid=[20, 60],
                        test_points=100)
    points, _ = run_sweep(cfg)
    assert [p.n for p in points] == [20, 60]
    assert all(np.isfinite(p.risk_emp) and p.v1_bound > 0 for p in points)


def _d_by_d_gram_calls(monkeypatch, d):
    """Patch kernels.scipy_gram where the package reads it; the returned list
    grows by one per d x d product (A A^T of a d-row A) it forms."""
    calls, gram = [], kernels.scipy_gram

    def spy(A):
        if A.shape[0] == d:
            calls.append(A.shape)
        return gram(A)

    for module in (kernels, sweep):
        monkeypatch.setattr(module, "scipy_gram", spy)
    return calls


@pytest.mark.parametrize("kw,on_scipy", [
    (dict(use_linearized=False, gamma_override=None), True),
    (dict(), False),
    (dict(kernel="linear", use_linearized=False, gamma_override=None), False),
    (dict(kernel="polynomial", degree=1, use_linearized=False, gamma_override=None), False),
], ids=["exact-cholesky", "linearized", "exact-linear", "exact-polynomial-1"])
def test_real_mode_plug_in_product_runs_on_the_cells_blas(kw, on_scipy, monkeypatch):
    # grid 20, 60 at d = 24: no training set is d rows, so only the plug-in's
    # scatter X^T X is a d x d product, once per sweep cell and once in
    # eig_compare
    cfg = _small_config(mode="real", input_path=FIXTURE, d=24, n_grid=[20, 60],
                        test_points=100, **kw)
    calls = _d_by_d_gram_calls(monkeypatch, cfg.d)
    run_sweep(cfg)
    eig_compare(cfg, n=60, k=5)
    assert len(calls) == (len(cfg.grid) * cfg.trials + 1 if on_scipy else 0)
    assert DataSource(cfg, 60).spectral is not on_scipy


def test_real_mode_plug_in_same_bits_on_either_blas():
    cfg = _small_config(mode="real", input_path=FIXTURE, d=24, test_points=100)
    source = DataSource(cfg, 60)
    for n in (20, 60, 90):
        X = source.train(n, 1, None).features
        assert estimate_trace_ratio(X, kernels.scipy_gram) == estimate_trace_ratio(X)


@pytest.mark.parametrize("kw", [dict(), dict(use_linearized=False, gamma_override=None)],
                         ids=["spectral", "cholesky"])
def test_read_only_datasets_leave_sweeps_unchanged(kw, monkeypatch):
    # the same sweeps with the datasets' arrays stored as writable copies
    cfg = _small_config(mode="real", input_path=FIXTURE, d=24, n_grid=[20, 60],
                        test_points=100, **kw)
    want = run_sweep(cfg)
    checked = Dataset.__post_init__

    def writable(self):
        checked(self)
        for name in ("features", "responses"):
            object.__setattr__(self, name, np.array(getattr(self, name)))

    monkeypatch.setattr(Dataset, "__post_init__", writable)
    assert QuerySample(np.eye(2), np.ones(2)).features.flags.writeable
    assert run_sweep(cfg) == want


class TestEigCompare:
    def test_linear_kernel_columns_coincide(self):
        cfg = _small_config(kernel="linear", gamma_override=None, use_linearized=False)
        res = eig_compare(cfg, n=40, k=20)
        assert np.allclose(res.eig_true, res.eig_lin, atol=1e-10)
        assert np.allclose(res.eig_true, res.eig_scaled_gram, atol=1e-10)
        assert res.interlacing_violations == 0

    def test_polynomial_interlacing_holds(self):
        cfg = _small_config(kernel="polynomial", d=150, use_linearized=False,
                            gamma_override=None)
        res = eig_compare(cfg, n=80, k=60)
        assert res.interlacing_violations == 0

    def test_csv_flags_top_eigenvalue(self, tmp_path):
        out = str(tmp_path / "eig.csv")
        cfg = _small_config(kernel="gaussian", use_linearized=False,
                            gamma_override=None)
        res = eig_compare(cfg, n=30, k=10, output_path=out)
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "i,eig_true,eig_lin,eig_scaled_gram,is_top1"
        assert lines[1].endswith(",1")
        assert all(l.endswith(",0") for l in lines[2:])
        assert res.eig_true.size == 10


def _dense_eig_columns(cfg, n, k):
    """eig_true, eig_lin and the scaled Gram column of eig_compare, recomputed
    from n x n matrices on the same draw: [seed, n, 0] from the covariance
    (synth) or a [seed, n, 0] permutation of the raw file (real)."""
    spec = kernel_by_name(cfg.kernel, cfg.degree)
    rng = np.random.default_rng([cfg.seed, n, 0])
    if cfg.mode == "synth":
        cov = make_covariance(cfg.d, cfg.decay, cfg.a)
        data, _ = sample_dataset(cov, n, TargetSpec(noise_sigma=cfg.sigma), rng)
        params = linearize_params(spec, cov.tau, cov.trace_ratio)
    else:
        raw = parse_libsvm(cfg.input_path, cfg.d)
        rows = rng.permutation(raw.n)[:n]
        data = Dataset(raw.features[rows], raw.responses[rows])
        X = data.features
        tau = float(np.mean(np.sum(X * X, axis=1))) / cfg.d
        params = linearize_params(spec, tau, estimate_trace_ratio(X))
    if cfg.gamma_override is not None:
        params = dataclasses.replace(params, gamma=cfg.gamma_override)
    X = data.features
    eig_true = np.linalg.eigvalsh(kernel_matrix(spec, data))[::-1]
    eig_lin = np.linalg.eigvalsh(dense_lin_with_t(params, data))[::-1]
    eig_g = np.linalg.eigvalsh(X @ X.T / cfg.d)[::-1]
    return [eig_true[:k], eig_lin[:k], params.beta * eig_g[:k] + params.gamma]


class TestEigCompareSmallSide:
    @pytest.mark.parametrize("kw,n", [
        (dict(kernel="gaussian", use_linearized=False, gamma_override=None), 40),
        (dict(kernel="gaussian"), 90),
        (dict(kernel="polynomial", use_linearized=False, gamma_override=None), 61),
        (dict(kernel="polynomial"), 90),
        (dict(kernel="linear", gamma_override=None, use_linearized=False), 90),
        (dict(mode="real", input_path=FIXTURE, d=24, kernel="gaussian",
              use_linearized=False, gamma_override=None), 150),
    ])
    def test_csv_values_equal_dense_recomputation(self, kw, n):
        cfg = _small_config(**kw)
        k = min(n, 30)
        res = eig_compare(cfg, n=n, k=k)
        rows = [line.split(",") for line in res.csv_text.splitlines()[1:]]
        assert len(rows) == k
        for col, want in enumerate(_dense_eig_columns(cfg, n, k), start=1):
            got = np.array([float(r[col]) for r in rows])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
        assert res.interlacing_violations == 0


class TestEigCompareTopK:
    @pytest.mark.parametrize("k", [1, 60, 90])
    def test_top_k_equals_full_spectrum_head(self, k):
        # eig_compare asks LAPACK for the top k only; they must be the head
        # of the full n x n eigvalsh of the same K
        cfg = _small_config(kernel="gaussian", use_linearized=False, gamma_override=None)
        res = eig_compare(cfg, n=90, k=k)
        want = _dense_eig_columns(cfg, 90, k)[0]
        assert res.eig_true.shape == (k,)
        assert np.max(np.abs(res.eig_true - want) / np.abs(want)) <= 1e-12


def test_singular_cell_reports_the_dense_smallest_eigenvalue():
    # a ridgeless degree-2 polynomial K at d=3 has rank <= 10, so the
    # Cholesky route fails at n=15 and must report the smallest eigenvalue
    # of the cell's dense K, a roundoff 0, with the cell named
    cfg = ExperimentConfig(kernel="polynomial", degree=2, use_linearized=False, cbar=0.0,
                           d=3, n_grid="5:25:5", trials=1, test_points=100, noise_draws=4,
                           seed=1)
    with pytest.raises(SingularKernelError, match=r"cell n=15, trial 0, ridge 0: ") as exc:
        run_sweep(cfg)
    source = DataSource(cfg, 25)
    data = source.train(15, 0, np.random.default_rng([cfg.seed, 15, 0]))
    K = kernel_matrix(source.spec, data)
    tol = 15 * np.finfo(float).eps * np.linalg.norm(K, 2)
    dense = np.linalg.eigvalsh(K)[0]
    assert abs(dense) <= tol
    assert exc.value.smallest_eigenvalue == pytest.approx(dense, abs=tol)


@pytest.mark.parametrize("kw", [dict(), dict(use_linearized=False, gamma_override=None)],
                         ids=["linearized", "exact"])
def test_each_row_is_the_per_column_mean_of_its_cells(kw):
    # every field is a 1-D mean over trials 0..9 in order; a mean over axis 0
    # of the cells' array sums in another order, which these rows would show
    cfg = _small_config(trials=10, **kw)
    points, _ = run_sweep(cfg)
    source = DataSource(cfg, cfg.grid[-1])
    other_order = False
    for p in points:
        lam = cfg.cbar * float(p.n) ** (-cfg.theta)
        cells = [sweep._cell(source, p.n, t, p.n * lam) for t in range(cfg.trials)]
        bias, var, risk, v1, v2, stderr_sq = (float(np.mean(col)) for col in zip(*cells))
        assert (p.lam, p.bias_emp, p.var_emp, p.risk_emp, p.v1_bound, p.v2_bound,
                p.mc_stderr) == (lam, bias, var, risk, v1, v2,
                                 float(np.sqrt(stderr_sq / cfg.trials)))
        other_order |= tuple(np.mean(cells, axis=0)[:5]) != (bias, var, risk, v1, v2)
    assert other_order
