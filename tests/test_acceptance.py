"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavyweight risk-curve sweeps (criteria 6-8) are shared through
session-scoped fixtures.  Every tolerance is pinned here, not tuned at
runtime.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse.linalg

from krrlab import (Dataset, DecaySpec, ExperimentConfig, KernelSpec, LinModel,
                    QuerySample, TargetSpec, bound_N, classify_curve, CurveShape,
                    excess_risk_mc, emit_plot, evaluate_target, exp_monotone_condition,
                    generate_decay_spectrum, interlacing_check, kernel_matrix,
                    krr_fit, krr_predict, linearize_params, make_covariance,
                    moment_diagnostics, numeric_peak, parse_libsvm,
                    perturbation_inertia, quantity_N,
                    run_sweep, sample_dataset, sample_features, export_libsvm,
                    approx_error)

from conftest import dense_lin_with_t

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample200.libsvm")

D = 500
GRID = list(range(100, 1001, 100))
CBAR = 0.01
SIGMA = 1.0


def _report(num: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    from conftest import CRITERION_LINES
    CRITERION_LINES.append(line)


def _sweep(kernel: str, theta: float, fixed_lambda=None, trials=10):
    cfg = ExperimentConfig(
        mode="synth", kernel=kernel, degree=3, use_linearized=True,
        gamma_override=0.0, decay="harmonic", d=D, n_grid=GRID, cbar=CBAR,
        theta=theta, fixed_lambda=fixed_lambda, sigma=SIGMA, trials=trials,
        seed=0, test_points=2000, noise_draws=50)
    points, _ = run_sweep(cfg)
    return points


@pytest.fixture(scope="session")
def sweep_gauss_23():
    return _sweep("gaussian", 2 / 3)


@pytest.fixture(scope="session")
def sweep_poly_23():
    return _sweep("polynomial", 2 / 3)


@pytest.fixture(scope="session")
def sweep_gauss_13():
    return _sweep("gaussian", 1 / 3)


@pytest.fixture(scope="session")
def sweep_poly_13():
    return _sweep("polynomial", 1 / 3)


def _argmax_n(points, field="var_emp"):
    vals = [getattr(p, field) for p in points]
    return points[int(np.argmax(vals))].n


def test_c01_quantity_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((20, 20))
        M = A @ A.T
        w = np.maximum(np.sort(np.linalg.eigvalsh(M))[::-1], 0.0)
        for b in 10 ** rng.uniform(-3, 1, size=10):
            inv = np.linalg.inv(M + b * np.eye(20))
            oracle = float(np.trace(inv @ inv @ M))
            worst = max(worst, abs(quantity_N(w, b) - oracle) / abs(oracle))
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _report("1", ok, f"N^b eigenvalue sum vs matrix inverse, worst rel err "
                     f"{worst:.2e}, {dt:.1f}s")
    assert worst <= 1e-10
    assert dt < 5.0


def test_c02_interpolation_and_solver_oracle():
    t0 = time.time()
    cov = make_covariance(D, "harmonic")
    data, _ = sample_dataset(cov, 200, TargetSpec(noise_sigma=1.0), 2)
    spec = KernelSpec.gaussian()
    model = krr_fit(spec, data, 0.0)
    resid = np.max(np.abs(krr_predict(model, data.features) - data.responses))
    cap = 1e-6 * np.max(np.abs(data.responses))

    lam = 1e-3
    model2 = krr_fit(spec, data, lam)
    K = kernel_matrix(spec, data)
    A = K + data.n * lam * np.eye(data.n)
    c_it, info = scipy.sparse.linalg.cg(A, data.responses, rtol=1e-12, maxiter=20_000)
    rel = np.linalg.norm(model2.dual_coef - c_it) / np.linalg.norm(c_it)
    dt = time.time() - t0
    ok = resid <= cap and info == 0 and rel <= 1e-6 and dt < 10.0
    _report("2", ok, f"interpolation residual {resid:.2e} (cap {cap:.2e}), "
                     f"CG agreement {rel:.2e}, {dt:.1f}s")
    assert resid <= cap
    assert info == 0 and rel <= 1e-6
    assert dt < 10.0


_DOMINATION_SEEDS = {"harmonic": 101, "polynomial": 202, "exponential": 303}


def _domination_run(kind: str, a_range):
    rng = np.random.default_rng(_DOMINATION_SEEDS[kind])
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 2001))
        b = 10 ** rng.uniform(-3, 1)
        r = int(rng.integers(1, n + 1))
        a = rng.uniform(*a_range) if a_range else 1.0
        decay = DecaySpec(kind, a=a, r_star=r)
        exact = quantity_N(generate_decay_spectrum(decay, n), b)
        worst = max(worst, exact - bound_N(decay, n, b))
    return worst


def test_c03_domination_harmonic():
    t0 = time.time()
    worst = _domination_run("harmonic", None)
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _report("3a", ok, f"harmonic bound domination, worst shortfall {worst:.2e}, {dt:.1f}s")
    assert worst <= 1e-9
    assert dt < 10.0


def test_c03_domination_polynomial():
    worst = _domination_run("polynomial", (0.55, 3.0))
    ok = worst <= 1e-9
    _report("3b", ok, f"polynomial bound domination, worst shortfall {worst:.2e}")
    assert worst <= 1e-9


def test_c03_domination_exponential():
    worst = _domination_run("exponential", (0.05, 3.0))
    ok = worst <= 1e-9
    _report("3c", ok, f"exponential bound domination, worst shortfall {worst:.2e}")
    assert worst <= 1e-9


def test_c04_decomposition_identity():
    t0 = time.time()
    cov = make_covariance(D, "harmonic")
    target = TargetSpec(noise_sigma=SIGMA)
    test_X = sample_features(cov, 2000, 909)
    test = QuerySample(test_X, evaluate_target(target, test_X))
    configs = [("gaussian", 100), ("gaussian", 300), ("gaussian", 600),
               ("polynomial", 100), ("polynomial", 300)]
    gaps = []
    for kernel, n in configs:
        spec = KernelSpec.gaussian() if kernel == "gaussian" else KernelSpec.polynomial(3)
        data, clean = sample_dataset(cov, n, target, [4, n])
        params = linearize_params(spec, cov.tau, cov.trace_ratio)
        model = LinModel(params, gamma_override=0.0)
        lam = CBAR * n ** (-2 / 3)
        est = excess_risk_mc(Dataset(data.features, clean), model, n * lam, SIGMA, test,
                             noise_draws=50, seed=[5, n])
        gaps.append(abs(est.risk - est.bias - est.variance) / (4 * est.mc_stderr))
    dt = time.time() - t0
    ok = max(gaps) <= 1.0 and dt < 180.0
    _report("4", ok, f"|risk - bias - var| / (4 stderr) worst {max(gaps):.3f} "
                     f"over {len(configs)} configs, {dt:.1f}s")
    assert max(gaps) <= 1.0
    assert dt < 180.0


@pytest.fixture(scope="session")
def eig_setup():
    cov = make_covariance(D, "harmonic")
    data, _ = sample_dataset(cov, 300, TargetSpec(noise_sigma=SIGMA), 3)
    return cov, data


def _eig_pieces(cov, data, spec):
    params = linearize_params(spec, cov.tau, cov.trace_ratio)
    K_lin = dense_lin_with_t(LinModel(params), data)
    G = data.features @ data.features.T / data.d
    eig_lin = np.linalg.eigvalsh(K_lin)[::-1]
    eig_g = np.linalg.eigvalsh(G)[::-1]
    return params, eig_lin, eig_g


def test_c05_interlacing_inner_product(eig_setup):
    cov, data = eig_setup
    params, eig_lin, eig_g = _eig_pieces(cov, data, KernelSpec.polynomial(3))
    report = interlacing_check(eig_lin, eig_g, params.beta, params.gamma, (1, 0))
    ok = len(report.violations) == 0
    _report("5a", ok, f"inner-product interlacing, inertia (1, 0): "
                      f"{len(report.violations)} violations (max {report.max_violation:.2e})")
    assert len(report.violations) == 0


def test_c05_interlacing_radial(eig_setup):
    cov, data = eig_setup
    params, eig_lin, eig_g = _eig_pieces(cov, data, KernelSpec.gaussian())
    inertia = perturbation_inertia(params)
    report = interlacing_check(eig_lin, eig_g, params.beta, params.gamma, inertia)
    ok = len(report.violations) == 0
    _report("5b", ok, f"radial Weyl interlacing, inertia {inertia}: "
                      f"{len(report.violations)} violations (max {report.max_violation:.2e})")
    assert len(report.violations) == 0


def test_c05_spearman_decay_equivalence(eig_setup):
    import scipy.stats
    cov, data = eig_setup
    t0 = time.time()
    rhos = {}
    G = data.features @ data.features.T / data.d
    eig_g = np.linalg.eigvalsh(G)[::-1]
    for name, spec in (("polynomial(3)", KernelSpec.polynomial(3)),
                       ("gaussian", KernelSpec.gaussian())):
        K = kernel_matrix(spec, data)
        eig_k = np.linalg.eigvalsh(K)[::-1]
        rhos[name] = scipy.stats.spearmanr(eig_k[5:], eig_g[5:]).statistic
    dt = time.time() - t0
    ok = min(rhos.values()) >= 0.99 and dt < 60.0
    _report("5c", ok, f"spearman beyond top 5: {rhos}, {dt:.1f}s")
    assert min(rhos.values()) >= 0.99
    assert dt < 60.0


def test_c06_bell_shapes_gaussian(sweep_gauss_23):
    var_shape = classify_curve([p.var_emp for p in sweep_gauss_23])
    risk_shape = classify_curve([p.risk_emp for p in sweep_gauss_23])
    ok = var_shape is CurveShape.BELL and risk_shape is CurveShape.BELL
    _report("6a", ok, f"linearized gaussian: variance {var_shape.value}, "
                      f"risk {risk_shape.value}")
    assert var_shape is CurveShape.BELL
    assert risk_shape is CurveShape.BELL


def test_c06_bell_shapes_polynomial(sweep_poly_23):
    var_shape = classify_curve([p.var_emp for p in sweep_poly_23])
    risk_shape = classify_curve([p.risk_emp for p in sweep_poly_23])
    ok = var_shape is CurveShape.BELL and risk_shape is CurveShape.BELL
    _report("6b", ok, f"linearized polynomial: variance {var_shape.value}, "
                      f"risk {risk_shape.value}")
    assert var_shape is CurveShape.BELL
    assert risk_shape is CurveShape.BELL


def test_c06_bound_peak_tracks_empirical(sweep_gauss_23, sweep_poly_23):
    decay = DecaySpec("harmonic", r_star=D)
    results = {}
    for name, spec, points in (("gaussian", KernelSpec.gaussian(), sweep_gauss_23),
                               ("polynomial", KernelSpec.polynomial(3), sweep_poly_23)):
        params = linearize_params(spec, 1.0, 0.0)
        n_bound, _ = numeric_peak(decay, GRID, D, CBAR, 2 / 3, 0.0, params.beta, SIGMA)
        n_emp = _argmax_n(points)
        results[name] = (n_bound, n_emp, max(n_bound, n_emp) / min(n_bound, n_emp))
    ok = all(r[2] <= 2.0 for r in results.values())
    _report("6c", ok, f"V1 numeric peak vs empirical variance argmax "
                      f"(bound_n, emp_n, factor): {results}")
    assert all(r[2] <= 2.0 for r in results.values())


def _bias_slope(points, lo=200):
    pts = [(p.n, p.bias_emp) for p in points if p.n >= lo]
    ns = np.log([p[0] for p in pts])
    bs = np.log([p[1] for p in pts])
    return float(np.polyfit(ns, bs, 1)[0])


def test_c07_bias_rate_theta_two_thirds(sweep_gauss_23, sweep_poly_23):
    slopes = {"gaussian": _bias_slope(sweep_gauss_23),
              "polynomial": _bias_slope(sweep_poly_23)}
    ok = all(abs(s + 4 / 3) <= 0.35 for s in slopes.values())
    _report("7a", ok, f"bias log-log slope over n in [200,1000], target -4/3 "
                      f"+/- 0.35: {slopes}")
    for s in slopes.values():
        assert abs(s + 4 / 3) <= 0.35


def test_c07_bias_rate_theta_one_third(sweep_gauss_13, sweep_poly_13):
    slopes = {"gaussian": _bias_slope(sweep_gauss_13),
              "polynomial": _bias_slope(sweep_poly_13)}
    ok = all(abs(s + 2 / 3) <= 0.35 for s in slopes.values())
    _report("7b", ok, f"bias log-log slope over n in [200,1000], target -2/3 "
                      f"+/- 0.35: {slopes}")
    for s in slopes.values():
        assert abs(s + 2 / 3) <= 0.35


def test_c08_peak_shift_with_regularization(sweep_gauss_23, sweep_poly_23,
                                            sweep_gauss_13, sweep_poly_13):
    t0 = time.time()
    shifts = {
        "gaussian": (_argmax_n(sweep_gauss_13), _argmax_n(sweep_gauss_23)),
        "polynomial": (_argmax_n(sweep_poly_13), _argmax_n(sweep_poly_23)),
    }
    dt = time.time() - t0
    ok = all(a < b for a, b in shifts.values())
    _report("8", ok, f"variance argmax (theta=1/3, theta=2/3): {shifts}, {dt:.1f}s")
    for a, b in shifts.values():
        assert a < b


def test_c09_exponential_monotone():
    t0 = time.time()
    cond = exp_monotone_condition(CBAR, 2 / 3, 0.0, 1.0, D)
    decay = DecaySpec("exponential", a=1.0, r_star=D)
    curve = [SIGMA ** 2 * 1.0 / D * bound_N(decay, n, n * CBAR * n ** (-2 / 3))
             for n in GRID]
    shape = classify_curve(curve)
    dt = time.time() - t0
    ok = cond and shape is CurveShape.MONOTONE_DECREASING and dt < 120.0
    _report("9", ok, f"condition {cond}, V1 bound curve {shape.value}, {dt:.1f}s")
    assert cond
    assert shape is CurveShape.MONOTONE_DECREASING
    assert dt < 120.0


def test_c10_n_independent_lambda():
    t0 = time.time()
    peaks = {}
    for lam in (1e-5, 1e-3, 1e-1):
        points = _sweep("polynomial", 0.0, fixed_lambda=lam, trials=5)
        vals = [p.var_emp for p in points]
        peaks[lam] = (points[int(np.argmax(vals))].n, max(vals))
    ns = [v[0] for v in peaks.values()]
    mags = [peaks[l][1] for l in (1e-5, 1e-3, 1e-1)]
    step = GRID[1] - GRID[0]
    dt = time.time() - t0
    ok = (max(ns) - min(ns) <= step) and mags[0] > mags[1] > mags[2] and dt < 600.0
    _report("10", ok, f"fixed-ridge peaks (n, magnitude): {peaks}, {dt:.1f}s")
    assert max(ns) - min(ns) <= step
    assert mags[0] > mags[1] > mags[2]
    assert dt < 600.0


def test_c11_linearization_convergence():
    t0 = time.time()
    spec = KernelSpec.gaussian()
    errs = {}
    for (n, d) in ((100, 200), (400, 800)):
        vals = []
        for seed in range(5):
            rng = np.random.default_rng([11, n, d, seed])
            X = rng.standard_normal((n, d))        # Sigma = I, iid entries
            data = Dataset(X, np.zeros(n))
            params = linearize_params(spec, 1.0, 1.0 / d)
            K = kernel_matrix(spec, data)
            K_lin = dense_lin_with_t(LinModel(params), data)
            vals.append(approx_error(K, K_lin))
        errs[(n, d)] = float(np.mean(vals))
    ratio = errs[(400, 800)] / errs[(100, 200)]
    dt = time.time() - t0
    ok = ratio <= 0.5 and dt < 120.0
    _report("11", ok, f"mean ||K - K_lin||_2: {errs}, ratio {ratio:.3f} "
                      f"(need <= 0.5), {dt:.1f}s")
    assert ratio <= 0.5
    assert dt < 120.0


def _norm_fluctuation_population(cov, data, m):
    """Population value of the rank-two estimate and the MC standard error of
    its lam2/lam1 ratio over m Gaussian queries q ~ N(0, Sigma).

    psi_q = (||q||^2 - tr Sigma)/d has cumulants k_j = 2^(j-1) (j-1)! tr(Sigma^j)/d^j,
    so E psi_q = 0 and E psi_q^2 = k_2 = 2 tr(Sigma^2)/d^2: the estimate
    c2 11^T + c1 (1 psi^T + psi 1^T) + psi psi^T tends to k_2 11^T + psi psi^T.
    The error of the ratio follows from that of (c1, c2) = the sample means of
    (psi_q, psi_q^2) by first-order eigenvalue perturbation (delta method).
    """
    d, diag = data.d, cov.diag
    k2, k3, k4 = (c * np.sum(diag ** j) / d ** j for c, j in ((2, 2), (8, 3), (48, 4)))
    psi = np.einsum("ij,ij->i", data.features, data.features) / d - diag.sum() / d
    ones = np.ones(data.n)
    w, U = np.linalg.eigh(k2 * np.outer(ones, ones) + np.outer(psi, psi))
    lam1, lam2, u1, u2 = w[-1], w[-2], U[:, -1], U[:, -2]
    ratio = lam2 / lam1

    def dlam(u):            # d lam / d (c1, c2) for the unit eigenvector u
        return np.array([2.0 * (u @ ones) * (u @ psi), (u @ ones) ** 2])

    grad = (dlam(u2) - ratio * dlam(u1)) / lam1
    cov_c = np.array([[k2, k3], [k3, k4 + 2.0 * k2 ** 2]])   # per-query cov of (psi, psi^2)
    return (lam1, lam2), float(ratio), float(np.sqrt(grad @ cov_c @ grad / m))


def test_c12_norm_fluctuation_rank_structure():
    # Training and query points share one law, so the estimate's two nonzero
    # eigenvalues, ~ n E[psi_q^2] and ||psi||^2, are of the same order: the
    # ratio is checked against its population value, not against 0.
    t0 = time.time()
    m = 20000
    cov = make_covariance(D, "harmonic")
    data, _ = sample_dataset(cov, 100, TargetSpec(noise_sigma=SIGMA), 12)
    queries = sample_features(cov, m, 13)          # m > D: i.i.d. Gaussian rows
    res = moment_diagnostics(data, queries, sigma_d=cov.diag)
    pair, ratio_pop, se = _norm_fluctuation_population(cov, data, m)
    tol = 4.0 * se
    dt = time.time() - t0
    ok = abs(res.rank1_ratio - ratio_pop) <= tol and dt < 60.0
    _report("12", ok, f"MC estimate of the norm-fluctuation outer product: "
                      f"lam2/lam1 = {res.rank1_ratio:.3f}, population "
                      f"{ratio_pop:.3f} from eigenvalues ({pair[0]:.3f}, "
                      f"{pair[1]:.3f}), tolerance 4 MC stderr = {tol:.3f}, {dt:.1f}s")
    assert abs(res.rank1_ratio - ratio_pop) <= tol
    assert dt < 60.0


def test_c13_real_data_pipeline(tmp_path):
    t0 = time.time()
    data = parse_libsvm(FIXTURE, 24)
    rt = str(tmp_path / "rt.libsvm")
    export_libsvm(data, rt)
    again = parse_libsvm(rt, 24)
    roundtrip = (np.array_equal(again.features, data.features)
                 and np.array_equal(again.responses, data.responses))

    csv_path = str(tmp_path / "real.csv")
    cfg = ExperimentConfig(mode="real", input_path=FIXTURE, d=24,
                           n_grid=[40, 55, 70, 85, 100], kernel="gaussian",
                           trials=3, test_points=100, noise_draws=10,
                           sigma=1.0, seed=1, standardize=True,
                           output_path=csv_path)
    points, csv_text = run_sweep(cfg)
    finite = all(np.isfinite([p.bias_emp, p.var_emp, p.risk_emp, p.v1_bound,
                              p.v2_bound, p.bias_ref, p.mc_stderr]).all()
                 for p in points)
    svg_path = str(tmp_path / "real.svg")
    blob = emit_plot(csv_path, ["bias_emp", "var_emp", "risk_emp", "v1_bound"],
                     svg_path)
    dt = time.time() - t0
    ok = roundtrip and finite and blob.startswith(b"<svg") and dt < 60.0
    _report("13", ok, f"round trip exact: {roundtrip}, finite sweep ({len(points)} "
                      f"points), SVG {len(blob)} bytes, {dt:.1f}s")
    assert roundtrip
    assert finite
    assert blob.startswith(b"<svg") and blob.rstrip().endswith(b"</svg>")
    assert dt < 60.0
