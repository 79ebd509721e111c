import math

import numpy as np
import pytest

from krrlab import (ConfigError, DecaySpec, Spectrum, bound_N, effective_dimension,
                    exp_monotone_condition, generate_decay_spectrum,
                    numeric_peak, peak_point, polynomial_theta_threshold,
                    quantity_N)


class TestSpectrumType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]))           # not descending
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            Spectrum(np.array([np.inf, 1.0]))

    @pytest.mark.parametrize("kind", ["exponential", "polynomial", "harmonic"])
    @pytest.mark.parametrize("a", [np.inf, np.nan])
    def test_decay_spec_rejects_non_finite_a(self, kind, a):
        with pytest.raises(ConfigError, match="must be finite"):
            DecaySpec(kind, a=a, r_star=3)

    def test_decay_spec_validation(self):
        with pytest.raises(ValueError):
            DecaySpec("polynomial", a=0.5, r_star=3)
        with pytest.raises(ValueError):
            DecaySpec("exponential", a=0.0, r_star=3)
        with pytest.raises(ValueError):
            DecaySpec("harmonic", r_star=0)
        with pytest.raises(ValueError):
            DecaySpec("zipf", r_star=1)


class TestGenerateDecay:
    def test_harmonic_values(self):
        s = generate_decay_spectrum(DecaySpec("harmonic", r_star=4), 4)
        assert np.allclose(s.values, [4.0, 2.0, 4.0 / 3.0, 1.0])

    def test_polynomial_truncation(self):
        s = generate_decay_spectrum(DecaySpec("polynomial", a=1.0, r_star=2), 4)
        assert np.allclose(s.values, [4.0, 1.0, 0.0, 0.0])

    def test_fast_exponential_collapses_to_rank_one(self):
        s = generate_decay_spectrum(DecaySpec("exponential", a=50.0, r_star=4), 4)
        assert s.values[0] == pytest.approx(4 * np.exp(-50.0))
        assert s.values[1] <= 1e-20 * s.values[0]

    @pytest.mark.parametrize("kind,a", [("harmonic", 1.0), ("polynomial", 0.75),
                                        ("polynomial", 2.0), ("exponential", 0.05),
                                        ("exponential", 1.0)])
    @pytest.mark.parametrize("n", [1, 37, 1000])
    def test_values_equal_closed_form_to_the_bit(self, n, kind, a):
        i = np.arange(1, n + 1, dtype=float)
        want = {"harmonic": lambda: n / i, "polynomial": lambda: n * i ** (-2.0 * a),
                "exponential": lambda: n * np.exp(-a * i)}[kind]()
        s = generate_decay_spectrum(DecaySpec(kind, a=a, r_star=n), n)
        assert np.array_equal(s.values, want)

    def test_rank_soft_cap(self):
        s = generate_decay_spectrum(DecaySpec("harmonic", r_star=100), 3)
        assert len(s) == 3 and np.all(s.values > 0)


class TestQuantityN:
    def test_single_matched_eigenvalue(self):
        for b in (0.25, 1.0, 7.0):
            assert quantity_N(np.array([b]), b) == pytest.approx(1.0 / (4 * b))

    def test_zero_spectrum(self):
        assert quantity_N(np.zeros(5), 2.0) == 0.0

    def test_two_eigenvalues(self):
        assert quantity_N(np.array([2.0, 1.0]), 1.0) == pytest.approx(2 / 9 + 1 / 4)

    def test_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((20, 20))
            M = A @ A.T
            w = np.sort(np.linalg.eigvalsh(M))[::-1]
            b = rng.uniform(0.1, 5.0)
            inv = np.linalg.inv(M + b * np.eye(20))
            oracle = float(np.trace(inv @ inv @ M))
            assert quantity_N(np.maximum(w, 0.0), b) == pytest.approx(oracle, rel=1e-10)

    def test_per_term_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = np.sort(rng.uniform(0, 10, size=8))[::-1]
            b = rng.uniform(0.01, 3.0)
            assert quantity_N(v, b) <= np.count_nonzero(v) / (4 * b) + 1e-12

    def test_strictly_decreasing_in_b(self):
        v = np.array([3.0, 1.0, 0.5])
        vals = [quantity_N(v, b) for b in (0.1, 0.5, 1.0, 4.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quantity_N(np.array([1.0]), 0.0)


class TestEffectiveDimension:
    def test_small_lambda_recovers_rank(self):
        assert effective_dimension(np.array([1.0, 1.0]), 1e-12) == pytest.approx(2.0)

    def test_simple_values(self):
        assert effective_dimension(np.array([3.0]), 1.0) == pytest.approx(0.75)
        assert effective_dimension(np.array([3.0, 3.0, 3.0]), 3.0) == pytest.approx(1.5)

    def test_decreasing_and_bounded(self):
        v = np.array([5.0, 2.0, 1.0, 0.0])
        vals = [effective_dimension(v, l) for l in (0.01, 0.1, 1.0, 10.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[0] <= 3.0


class TestBoundN:
    def test_harmonic_dominates_exact_sum(self):
        decay = DecaySpec("harmonic", r_star=50)
        exact = quantity_N(generate_decay_spectrum(decay, 100), 1.0)
        # independent brute-force oracle
        oracle = sum((100 / i) / (1.0 + 100 / i) ** 2 for i in range(1, 51))
        assert exact == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(7.3236, abs=5e-4)
        bnd = bound_N(decay, 100, 1.0)
        assert bnd == pytest.approx(100 * np.log(151 / 101), rel=1e-12)
        assert bnd >= exact

    def test_exponential_formula(self):
        decay = DecaySpec("exponential", a=1.0, r_star=10)
        integral = 1 / (1 + 100 * np.exp(-11.0)) - 1 / (1 + 100 * np.exp(-1.0))
        assert integral == pytest.approx(0.97188, abs=1e-4)
        # the integral alone misses the exact sum; the largest summand closes it
        terms = [100 * np.exp(-i) / (1.0 + 100 * np.exp(-i)) ** 2 for i in range(1, 11)]
        exact = sum(terms)
        assert exact == pytest.approx(0.98177, abs=1e-4)
        assert integral < exact
        expect = integral + max(terms)
        assert expect == pytest.approx(1.21237, abs=1e-4)
        assert bound_N(decay, 100, 1.0) == pytest.approx(expect, rel=1e-12)
        assert bound_N(decay, 100, 1.0) >= exact

    @pytest.mark.parametrize("kind", ["polynomial", "exponential"])
    def test_peak_term_matches_brute_force_maximum(self, kind):
        from krrlab.spectral import _peak_term
        rng = np.random.default_rng(55 if kind == "polynomial" else 56)
        for _ in range(50):
            n = int(rng.integers(5, 2001))
            b = 10 ** rng.uniform(-3, 1)
            r = int(rng.integers(1, n + 1))
            a = rng.uniform(0.55, 3.0) if kind == "polynomial" else rng.uniform(0.05, 3.0)
            decay = DecaySpec(kind, a=a, r_star=r)
            v = generate_decay_spectrum(decay, n).values
            v = v[v > 0]
            assert _peak_term(decay, n, b) == pytest.approx(np.max(v / (b + v) ** 2),
                                                            rel=1e-12)

    def test_vanishes_for_large_b(self):
        for decay in (DecaySpec("harmonic", r_star=20),
                      DecaySpec("polynomial", a=1.0, r_star=20),
                      DecaySpec("exponential", a=0.5, r_star=20)):
            assert bound_N(decay, 50, 1e9) <= 1e-6

    @pytest.mark.parametrize("a", [0.55, 0.6, 0.75, 1.0, 2.0, 8.0, 50.0])
    def test_polynomial_constant_matches_quadrature(self, a):
        import scipy.integrate
        from krrlab.spectral import _poly_bound_constant
        s = 1 / (2 * a)
        want, _ = scipy.integrate.quad(lambda u: u ** s / (1.0 + u) ** 2, 0.0, np.inf,
                                       epsabs=1e-12, epsrel=1e-12, limit=200)
        assert _poly_bound_constant(a) == pytest.approx(want, rel=1e-9)

    def test_polynomial_constant_matches_beta_function(self):
        # the constant is B(1+s, 1-s) = Gamma(1+s) Gamma(1-s) for s = 1/(2a)
        from krrlab.spectral import _poly_bound_constant
        for a in (0.75, 1.0, 2.0):
            s = 1 / (2 * a)
            assert _poly_bound_constant(a) == pytest.approx(
                math.gamma(1 + s) * math.gamma(1 - s), rel=1e-9)

    def test_harmonic_domination_random_draws(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            n = int(rng.integers(5, 2001))
            b = 10 ** rng.uniform(-3, 1)
            r = int(rng.integers(1, n + 1))
            decay = DecaySpec("harmonic", r_star=r)
            exact = quantity_N(generate_decay_spectrum(decay, n), b)
            assert bound_N(decay, n, b) >= exact - 1e-9

    @pytest.mark.parametrize("kind", ["polynomial", "exponential"])
    def test_domination_below_spectrum_floor(self, kind):
        # while the summand is increasing over the truncated spectrum, i.e. b
        # at most the smallest nonzero eigenvalue, the integral alone already
        # dominates; the peak term covers b above that floor
        rng = np.random.default_rng(4321 if kind == "polynomial" else 8765)
        for _ in range(50):
            n = int(rng.integers(5, 2001))
            a = rng.uniform(0.55, 3.0) if kind == "polynomial" else rng.uniform(0.05, 3.0)
            r = int(rng.integers(1, min(n, 200) + 1))
            decay = DecaySpec(kind, a=a, r_star=r)
            spec = generate_decay_spectrum(decay, n)
            floor = spec.values[min(r, n) - 1]
            if floor < 1e-3:
                continue
            b = min(10 ** rng.uniform(-3, 1), floor)
            exact = quantity_N(spec, b)
            assert bound_N(decay, n, b) >= exact - 1e-9


class TestLargeSampleLimit:
    @pytest.mark.parametrize("kind,a", [("harmonic", 1.0), ("polynomial", 1.0),
                                        ("exponential", 0.05)])
    def test_bound_curve_vanishes_beyond_rank_saturation(self, kind, a):
        # with the rank fixed at d, the bound-based variance curve decays to
        # zero monotonically once n is well past d
        d = 200
        decay = DecaySpec(kind, a=a, r_star=d)
        grid = [200, 400, 800, 1600, 3200, 6400, 12800]
        curve = []
        for n in grid:
            b = n * 0.1 * n ** (-0.5)       # cbar=0.1, theta=1/2
            curve.append(bound_N(decay, n, b) / d)
        tail = curve[2:]
        assert all(x > y for x, y in zip(tail, tail[1:]))
        assert curve[-1] <= 0.5 * max(curve)


class TestPeaks:
    def test_polynomial_formula(self):
        n_star = peak_point(DecaySpec("polynomial", a=1.0, r_star=10), 1.0, 0.0, 3.0)
        assert n_star == pytest.approx(1.5)

    @pytest.mark.parametrize("kind", ["harmonic", "exponential"])
    def test_exponential_has_no_closed_form(self, kind):
        with pytest.raises(ConfigError, match=f"^{kind} decay has no closed-form peak; "
                                              "use numeric_peak$"):
            peak_point(DecaySpec(kind, a=1.0, r_star=10), 0.5, 0.2, 1.0)

    def test_out_of_regime(self):
        with pytest.raises(ValueError):
            peak_point(DecaySpec("polynomial", a=1.0, r_star=5), 1.0, 0.9, 1.0)

    def test_thresholds(self):
        assert polynomial_theta_threshold(1.0) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("cbar", [0.01, 1.0])
    @pytest.mark.parametrize("a", [0.75, 0.9, 1.0, 2.5, 7.0])
    def test_polynomial_pair_agrees_on_its_boundary(self, a, cbar):
        # an interior peak just below the threshold, none at it; at a = 0.9,
        # 1 - (1 + 1/(2a)) theta* rounds to a positive number, 1 - theta/theta* to 0
        decay, theta_star = DecaySpec("polynomial", a, 100), polynomial_theta_threshold(a)
        assert 0 < peak_point(decay, cbar, theta_star - 1e-6, 0.5) < np.inf
        with pytest.raises(ConfigError, match="out of regime"):
            peak_point(decay, cbar, theta_star, 0.5)

    def test_peak_beyond_the_float_range_is_inf(self):
        assert peak_point(DecaySpec("polynomial", 100.0, 100), 0.01, 0.994, 5.0) == np.inf

    def test_polynomial_pair_matches_the_curve_it_names(self):
        # N(b(n)) on the exact length-n spectrum, b(n) = cbar n^(1-theta) + gamma:
        # an interior peak near peak_point below theta* = 2/3, none above it
        decay, cbar, gamma = DecaySpec("polynomial", 1.0, 10 ** 5), 0.01, 5.0

        def curve(lo, hi, points, theta):
            grid = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(int))
            return grid, np.array([quantity_N(generate_decay_spectrum(decay, int(n)),
                                              cbar * n ** (1.0 - theta) + gamma)
                                   for n in grid])

        for theta in (0.1, 0.2, 0.3):
            n_star = peak_point(decay, cbar, theta, gamma)
            grid, values = curve(n_star / 4.0, 4.0 * n_star, 400, theta)
            argmax = grid[np.argmax(values)]
            assert abs(n_star - argmax) <= 0.05 * argmax
        assert polynomial_theta_threshold(1.0) < 0.7
        for theta in (0.7, 0.8):
            _, values = curve(10, 10 ** 5, 200, theta)
            assert np.all(np.diff(values) > 0)


class TestNumericPeak:
    def test_monotone_curve_peaks_at_first_point(self):
        decay = DecaySpec("harmonic", r_star=1)       # single eigenvalue n
        grid = list(range(100, 1001, 100))
        n_at, _ = numeric_peak(decay, grid, 500, 0.01, 2 / 3, 0.0, 1.0, 1.0)
        assert n_at == 100

    def test_interior_peak_for_harmonic(self):
        decay = DecaySpec("harmonic", r_star=500)
        grid = list(range(100, 1001, 100))
        n_at, vmax = numeric_peak(decay, grid, 500, 0.01, 2 / 3, 0.0, 1.0, 1.0)
        assert 100 < n_at < 1000
        assert vmax > 0

    def test_zero_sigma_ties_break_to_smallest_n(self):
        decay = DecaySpec("harmonic", r_star=10)
        n_at, vmax = numeric_peak(decay, [10, 20, 30], 50, 0.1, 0.5, 0.0, 1.0, 0.0)
        assert vmax == 0.0
        assert n_at == 10

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            numeric_peak(DecaySpec("harmonic", r_star=5), [10, 10], 50, 0.1, 0.5,
                         0.0, 1.0, 1.0)


class TestExpMonotoneCondition:
    def test_theta_below_half_with_zero_gamma(self):
        for cbar in (0.001, 0.1, 1.0):
            for a in (0.1, 1.0, 5.0):
                assert exp_monotone_condition(cbar, 0.3, 0.0, a, 20)

    def test_reference_point(self):
        assert exp_monotone_condition(0.01, 2 / 3, 0.0, 1.0, 50)
        lhs = (2 / 3 * 0.01) ** 2
        rhs = (np.exp(-1) + 0.01 / 3) * (np.exp(-51.0) + 0.01 / 3)
        assert lhs == pytest.approx(4.4e-5, rel=0.02)
        assert rhs == pytest.approx(1.24e-3, rel=0.01)

    def test_large_gamma_fails(self):
        assert not exp_monotone_condition(1.0, 1.0, 10.0, 5.0, 10)

    def test_condition_keeps_the_integral_term_non_increasing(self):
        # the integral term of bound_N's exponential form, without the peak
        # term P, along b(n) = cbar n^(1-theta) + gamma, on seeded draws
        from krrlab.spectral import _peak_term
        rng = np.random.default_rng(1)
        grid = np.unique(np.concatenate([np.arange(1, 51),
                                         np.geomspace(50, 10 ** 5, 100).astype(int)]))
        held = 0
        for _ in range(300):
            a, r_star = 10 ** rng.uniform(-2, 0.7), int(10 ** rng.uniform(0, 3))
            cbar, theta, gamma = rng.uniform(), rng.uniform(), 10 ** rng.uniform(-3, 0.5)
            if not exp_monotone_condition(cbar, theta, gamma, a, r_star):
                continue
            held += 1
            decay = DecaySpec("exponential", a, r_star)
            integral = []
            for n in map(int, grid):
                b = cbar * n ** (1.0 - theta) + gamma
                integral.append(bound_N(decay, n, b) - _peak_term(decay, n, b))
            assert np.all(np.diff(integral) <= 0)
        assert 100 < held < 300


@pytest.mark.parametrize("call,match", [
    (lambda: peak_point(DecaySpec("polynomial"), 0.01, 0.5, np.nan), "gamma must be >= 0"),
    (lambda: DecaySpec("harmonic", 1.0, 2.5), "r_star must be an integer"),
    (lambda: DecaySpec("exponential", 1.0, True), "r_star must be an integer"),
    (lambda: peak_point(DecaySpec("polynomial"), 0.01, 0.5, np.inf), "gamma must be >= 0"),
    (lambda: peak_point(DecaySpec("polynomial"), np.nan, 0.5, 1.0), "cbar must be >= 0"),
    (lambda: peak_point(DecaySpec("polynomial"), -0.1, 0.5, 1.0), "cbar must be >= 0"),
    (lambda: peak_point(DecaySpec("polynomial"), np.inf, 0.5, 1.0), "cbar must be >= 0"),
    (lambda: peak_point(DecaySpec("polynomial"), 0.01, 1.0, 1.0), r"theta must lie in \[0, 1\)"),
    (lambda: peak_point(DecaySpec("polynomial", 1.0), 0.01, -0.1, 1.0), "theta must lie in"),
], ids=["peak_point-nan-gamma", "decay-float-r_star", "decay-bool-r_star",
        "peak_point-inf-gamma", "peak_point-nan-cbar", "peak_point-negative-cbar",
        "peak_point-inf-cbar", "peak_point-theta-1", "peak_point-negative-theta"])
def test_bad_parameters_raise_config_error(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


@pytest.mark.parametrize("b", [np.inf, np.nan])
def test_bound_N_rejects_non_finite_b(b):
    with pytest.raises(ValueError, match="b must be finite and > 0"):
        bound_N(DecaySpec("harmonic", 1.0, 10), 100, b)


@pytest.mark.parametrize("call,match", [
    (lambda: quantity_N(np.array([1.0]), np.inf), "b must be finite and > 0"),
    (lambda: quantity_N(np.array([1.0]), np.nan), "b must be finite and > 0"),
    (lambda: effective_dimension(np.array([1.0]), np.inf), "lam must be finite and > 0"),
], ids=["quantity_N-inf", "quantity_N-nan", "effective_dimension-inf"])
def test_non_finite_scale_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call,match", [
    (lambda: polynomial_theta_threshold(0.0), "polynomial decay requires a > 1/2"),
    (lambda: polynomial_theta_threshold(-1.0), "polynomial decay requires a > 1/2"),
    (lambda: polynomial_theta_threshold(np.nan), "must be finite"),
    (lambda: exp_monotone_condition(np.nan, 0.5, 0.0, 1.0, 10), "cbar must be >= 0"),
    (lambda: exp_monotone_condition(-0.1, 0.5, 0.0, 1.0, 10), "cbar must be >= 0"),
    (lambda: exp_monotone_condition(0.01, np.nan, 0.0, 1.0, 10), "theta must lie in"),
    (lambda: exp_monotone_condition(0.01, 1.5, 0.0, 1.0, 10), "theta must lie in"),
    (lambda: exp_monotone_condition(0.01, 0.5, -1.0, 1.0, 10), "gamma must be >= 0"),
    (lambda: exp_monotone_condition(0.01, 0.5, np.inf, 1.0, 10), "gamma must be >= 0"),
    (lambda: exp_monotone_condition(0.01, 0.5, 0.0, np.nan, 10), "must be finite"),
    (lambda: exp_monotone_condition(0.01, 0.5, 0.0, 0.0, 10), "requires a > 0"),
    (lambda: exp_monotone_condition(0.01, 0.5, 0.0, 1.0, -3), "r_star must be >= 1"),
    (lambda: exp_monotone_condition(0.01, 0.5, 0.0, 1.0, 2.5), "r_star must be an integer"),
], ids=["polynomial-0", "polynomial-negative", "polynomial-nan",
        "exp-nan-cbar", "exp-negative-cbar", "exp-nan-theta", "exp-theta-above-1",
        "exp-negative-gamma", "exp-inf-gamma", "exp-nan-a", "exp-zero-a",
        "exp-negative-r_star", "exp-float-r_star"])
def test_spectral_helpers_reject_out_of_range_input(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


def test_spectral_helpers_accept_range_edges():
    assert polynomial_theta_threshold(0.75) == pytest.approx(0.6)
    assert exp_monotone_condition(0.0, 0.0, 0.0, 1.0, 1)
    assert not exp_monotone_condition(0.0, 1.0, 1.0, 1.0, 1)


@pytest.mark.parametrize("call", [
    lambda: generate_decay_spectrum(DecaySpec("harmonic"), 0),
    lambda: bound_N(DecaySpec("harmonic", 1.0, 10), 0, 1.0),
], ids=["generate_decay_spectrum", "bound_N"])
def test_sample_size_below_one_rejected(call):
    with pytest.raises(ValueError, match="n must be >= 1"):
        call()
