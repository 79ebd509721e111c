import numpy as np
import pytest

from krrlab import (ConfigError, TargetSpec, evaluate_target, make_covariance,
                    random_orthogonal_rows, sample_dataset, sample_features)


class TestMakeCovariance:
    def test_harmonic_d4(self):
        cov = make_covariance(4, "harmonic")
        assert np.allclose(cov.diag, [1.92, 0.96, 0.64, 0.48])

    @pytest.mark.parametrize("kind,a", [("harmonic", None), ("polynomial", 1.0),
                                        ("exponential", 0.5), ("identity", None)])
    def test_trace_equals_d(self, kind, a):
        cov = make_covariance(37, kind, a)
        assert cov.diag.sum() == pytest.approx(37.0, rel=1e-10)
        assert cov.tau == pytest.approx(1.0, rel=1e-10)
        assert np.all(np.diff(cov.diag) <= 0)

    def test_exponential_small_a_is_near_uniform(self):
        cov = make_covariance(50, "exponential", 1e-4)
        assert np.allclose(cov.diag, 1.0, atol=1e-2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_covariance(10, "polynomial", 0.4)
        with pytest.raises(ValueError):
            make_covariance(0, "harmonic")

    @pytest.mark.parametrize("kind,a", [("harmonic", None), ("polynomial", 1.0),
                                        ("polynomial", 0.75), ("exponential", 0.5),
                                        ("exponential", 1e-4)])
    @pytest.mark.parametrize("d", [1, 37, 500])
    def test_diag_equals_closed_form_to_the_bit(self, d, kind, a):
        i = np.arange(1, d + 1, dtype=float)
        base = {"harmonic": lambda: 1.0 / i, "polynomial": lambda: i ** (-2.0 * a),
                "exponential": lambda: np.exp(-a * i)}[kind]()
        assert np.array_equal(make_covariance(d, kind, a).diag, base * (d / base.sum()))

    @pytest.mark.parametrize("kind,match", [
        ("polynomial", "polynomial decay requires a > 1/2, got a=None"),
        ("exponential", "exponential decay requires a > 0, got a=None"),
        ("zipf", "unknown decay"),
    ])
    def test_missing_a_or_unknown_kind_is_a_config_error(self, kind, match):
        with pytest.raises(ConfigError, match=match):
            make_covariance(10, kind)

    @pytest.mark.parametrize("kind,a", [("exponential", np.inf), ("polynomial", np.inf),
                                        ("exponential", np.nan), ("harmonic", np.inf)])
    def test_non_finite_a_is_a_config_error(self, kind, a):
        with pytest.raises(ConfigError, match="must be finite"):
            make_covariance(10, kind, a)


class TestOrthogonalRows:
    def test_rows_orthogonal_scaled(self):
        T = random_orthogonal_rows(20, 50, 0)
        assert np.linalg.norm(T @ T.T / 50 - np.eye(20), 2) <= 1e-8

    def test_deterministic(self):
        a = random_orthogonal_rows(10, 30, 123)
        b = random_orthogonal_rows(10, 30, 123)
        assert np.array_equal(a, b)

    def test_entry_variance_near_one(self):
        T = random_orthogonal_rows(100, 400, 1)
        assert 0.9 <= T.var() <= 1.1

    def test_tall_case_falls_back_to_iid(self):
        T = random_orthogonal_rows(70, 40, 2)
        assert T.shape == (70, 40)
        assert 0.9 <= T.var() <= 1.1


class TestSampleDataset:
    def test_noiseless_responses_are_clean(self):
        cov = make_covariance(30, "harmonic")
        data, clean = sample_dataset(cov, 12, TargetSpec(noise_sigma=0.0), 0)
        assert np.array_equal(data.responses, clean)

    def test_sin_target_at_origin(self):
        t = TargetSpec()
        assert evaluate_target(t, np.zeros((1, 5)))[0] == 0.0

    def test_custom_target(self):
        t = TargetSpec(kind="custom", noise_sigma=0.0, f=lambda X: X[:, 0])
        cov = make_covariance(6, "identity")
        data, clean = sample_dataset(cov, 5, t, 1)
        assert np.array_equal(clean, data.features[:, 0])

    def test_per_coordinate_second_moment(self):
        d, n = 50, 1000
        cov = make_covariance(d, "harmonic")
        X = sample_features(cov, n, 3)
        moment = (X ** 2).mean(axis=0)
        rel = np.abs(moment - cov.diag) / cov.diag
        assert rel.max() <= 5.0 / np.sqrt(n)

    def test_determinism(self):
        cov = make_covariance(20, "polynomial", 1.0)
        t = TargetSpec(noise_sigma=0.7)
        d1, c1 = sample_dataset(cov, 15, t, 42)
        d2, c2 = sample_dataset(cov, 15, t, 42)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.responses, d2.responses)
        assert np.array_equal(c1, c2)


class TestEigenDecayOfGram:
    @pytest.mark.parametrize("kind,a", [("harmonic", None), ("polynomial", 1.0)])
    def test_log_log_slope(self, kind, a):
        d, n = 500, 300
        cov = make_covariance(d, kind, a)
        X = sample_features(cov, n, 42)
        ev = np.sort(np.linalg.eigvalsh(X @ X.T / d))[::-1]
        idx = np.arange(2, n // 2 + 1)
        slope = np.polyfit(np.log(idx), np.log(ev[idx - 1]), 1)[0]
        target = -1.0 if kind == "harmonic" else -2.0 * a
        assert abs(slope - target) <= 0.15 * abs(target)

    def test_exponential_slope(self):
        d, n, a = 500, 300, 0.02
        cov = make_covariance(d, "exponential", a)
        X = sample_features(cov, n, 42)
        ev = np.sort(np.linalg.eigvalsh(X @ X.T / d))[::-1]
        idx = np.arange(2, n // 2 + 1)
        slope = np.polyfit(idx, np.log(ev[idx - 1]), 1)[0]
        assert abs(slope - (-a)) <= 0.15 * a


@pytest.mark.parametrize("sigma", [np.nan, -1.0, np.inf])
def test_target_rejects_bad_noise_sigma(sigma):
    with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
        TargetSpec(noise_sigma=sigma)


@pytest.mark.parametrize("kw,match", [
    (dict(kind="custom"), "custom target needs a callable f"),
    (dict(kind="cubic"), "unknown target kind 'cubic'")], ids=["custom-without-f", "kind"])
def test_target_rejects_bad_kind(kw, match):
    with pytest.raises(ValueError, match=match):
        TargetSpec(**kw)
